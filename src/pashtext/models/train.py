"""Single entry point for training any of the eight classifier kinds."""

from __future__ import annotations

import numpy as np

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
    present = np.unique(matrix.row_labels)
    if present.size < 2:
        raise DataError("training requires at least two distinct classes")
    if label_count is None:
        label_count = int(present.max()) + 1
    elif label_count <= int(present.max()):
        raise DataError("label_count is smaller than the largest label present")
    return model_class.fit(matrix, params, label_count)
