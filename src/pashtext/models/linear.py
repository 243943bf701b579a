"""Linear one-vs-rest SVM and multiclass logistic regression.

Both models share the same parameter shape (a weight row and bias per
class), the same objective `loss_and_grads` and the same full-batch gradient
descent loop; a family supplies only its data term.  Weights start at zero,
so training is deterministic without consuming the seed; the seed field
exists to keep the hyperparameter surface uniform across kinds.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergedError
from ..vectorize import FeatureMatrix
from .base import Model, ModelKind, checked_array, softmax
from .params import LinearParams


def loss_and_grads(terms, weights: np.ndarray, bias: np.ndarray, dense: np.ndarray,
                   labels: np.ndarray, l2_strength: float) -> tuple[float, np.ndarray, np.ndarray]:
    """A family's data term plus L2 on the weights (not the bias), and its
    gradients with respect to the weights and the bias.

    `terms(scores, labels)` returns the data loss of the (n, K) scores and
    `pull`, the derivative of the summed per-sample losses by the scores.
    """
    n = dense.shape[0]
    data_loss, pull = terms(dense @ weights.T + bias, labels)
    loss = float(data_loss + 0.5 * l2_strength * (weights**2).sum())
    return loss, pull.T @ dense / n + l2_strength * weights, pull.sum(axis=0) / n


def hinge_terms(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed one-vs-rest hinge loss, averaged over samples, and its
    subgradient; samples exactly on the margin contribute zero."""
    targets = np.full_like(scores, -1.0)
    targets[np.arange(labels.size), labels] = 1.0
    margins = targets * scores
    violated = margins < 1.0
    data_loss = np.where(violated, 1.0 - margins, 0.0).sum() / labels.size
    return data_loss, np.where(violated, -targets, 0.0)


def cross_entropy_terms(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its derivative, the softmax output
    less 1 at each sample's label."""
    probs = softmax(scores)
    rows = np.arange(labels.size)
    data_loss = -np.log(probs[rows, labels]).mean()
    probs[rows, labels] -= 1.0
    return data_loss, probs


class _LinearModel(Model):
    """A weight row and bias per class, fit by full-batch gradient descent on
    `loss_and_grads` with the family's `terms`."""

    params_class = LinearParams
    payload_arrays = ("weights", "bias")

    def __init__(self, weights, bias, params: LinearParams):
        self.weights = checked_array(self.kind, "weights", weights, (None, None))
        self.label_count, self.feature_dimension = self.weights.shape
        self.bias = checked_array(self.kind, "bias", bias, (self.label_count,))
        self.params = params

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: LinearParams, label_count: int):
        dense = matrix.to_dense()
        weights = np.zeros((label_count, matrix.dim), dtype=np.float64)
        bias = np.zeros(label_count, dtype=np.float64)
        for epoch in range(params.epochs):
            loss, grad_w, grad_b = loss_and_grads(
                cls.terms, weights, bias, dense, matrix.row_labels, params.l2_strength
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            weights -= params.learning_rate * grad_w
            bias -= params.learning_rate * grad_b
        return cls(weights, bias, params)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return matrix.dot(self.weights.T) + self.bias


class LinearSVMModel(_LinearModel):
    """One-vs-rest hinge-trained hyperplanes; scores are raw margins."""

    kind = ModelKind.LINEAR_SVM
    display_name = "Linear SVM"
    terms = staticmethod(hinge_terms)


class LogisticRegressionModel(_LinearModel):
    """Softmax regression; scores are class probabilities."""

    kind = ModelKind.LOGISTIC_REGRESSION
    display_name = "Logistic Regression"
    terms = staticmethod(cross_entropy_terms)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return softmax(super()._scores(matrix))
