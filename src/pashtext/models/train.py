"""Single entry point for training any of the eight classifier kinds."""

from __future__ import annotations

import logging
import time

import numpy as np

from ..errors import DataError, InvalidHyperparameterError
from ..vectorize import FeatureMatrix
from .base import Model, ModelKind
from .knn import train_knn
from .linear import train_linear_svm, train_logistic_regression
from .mlp import train_mlp
from .naive_bayes import train_gaussian_nb, train_multinomial_nb
from .params import default_params, params_class_for
from .tree import train_decision_tree, train_random_forest

logger = logging.getLogger(__name__)

_TRAINERS = {
    ModelKind.GAUSSIAN_NB: train_gaussian_nb,
    ModelKind.MULTINOMIAL_NB: train_multinomial_nb,
    ModelKind.KNN: train_knn,
    ModelKind.DECISION_TREE: train_decision_tree,
    ModelKind.RANDOM_FOREST: train_random_forest,
    ModelKind.LOGISTIC_REGRESSION: train_logistic_regression,
    ModelKind.LINEAR_SVM: train_linear_svm,
    ModelKind.MLP: train_mlp,
}


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
    if params is None:
        params = default_params(kind)
    if not isinstance(params, params_class_for(kind)):
        raise InvalidHyperparameterError(
            f"{kind.value} expects {params_class_for(kind).__name__}, "
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
    started = time.perf_counter()
    model = _TRAINERS[kind](matrix, params, label_count)
    logger.debug(
        "trained %s on %d rows x %d features in %.3fs",
        kind.value, matrix.n_rows, matrix.dim, time.perf_counter() - started,
    )
    return model
