"""Single entry point for training any of the eight classifier kinds."""

from __future__ import annotations

from ..errors import DataError, InvalidHyperparameterError
from ..vectorize import FeatureMatrix
from .base import KIND_CLASSES, Model, ModelKind
from .params import make_params


def train(
    kind: ModelKind,
    matrix: FeatureMatrix,
    params=None,
    label_count: int | None = None,
) -> Model:
    """Train a model of `kind` on the matrix's rows and labels.

    `label_count` sets the size of the class universe; it defaults to one
    more than the largest label present.  Training is deterministic given
    the seed carried inside `params`.
    """
    kind = ModelKind(kind)
    model_class = KIND_CLASSES[kind]
    if params is None:
        params = make_params(kind, {})
    if not isinstance(params, model_class.params_class):
        raise InvalidHyperparameterError(
            f"{kind.value} expects {model_class.params_class.__name__}, "
            f"got {type(params).__name__}"
        )
    if matrix.n_rows == 0:
        raise DataError("cannot train on an empty feature matrix")
    if matrix.dim == 0:
        raise DataError("cannot train on zero-dimensional features")
    # min and max, not np.unique, which imports numpy.ma on its plain path.
    lowest, highest = int(matrix.row_labels.min()), int(matrix.row_labels.max())
    if lowest == highest:
        raise DataError("training requires at least two distinct classes")
    if label_count is None:
        label_count = highest + 1
    elif label_count <= highest:
        raise DataError("label_count is smaller than the largest label present")
    return model_class.fit(matrix, params, label_count)
