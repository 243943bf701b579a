"""Linear one-vs-rest SVM and multiclass logistic regression.

Both models share the same parameter shape (a weight row and bias per
class) and the same full-batch gradient descent loop.  Weights start at
zero, so training is deterministic without consuming the seed; the seed
field exists to keep the hyperparameter surface uniform across kinds.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergedError
from ..vectorize import FeatureMatrix
from .base import Model, ModelKind, softmax
from .params import LinearParams


def hinge_loss_value(margin: float) -> float:
    """Hinge loss max(0, 1 - margin) for a signed margin y * f(x)."""
    return max(0.0, 1.0 - margin)


def _one_vs_rest_targets(labels: np.ndarray, label_count: int) -> np.ndarray:
    targets = -np.ones((labels.size, label_count), dtype=np.float64)
    targets[np.arange(labels.size), labels] = 1.0
    return targets


def svm_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    dense: np.ndarray,
    labels: np.ndarray,
    l2_strength: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed one-vs-rest L2-regularized hinge objective and its subgradient.

    The data term averages over samples within each class column; samples
    exactly on the margin contribute zero, matching the stated subgradient
    convention.  The bias is not regularized.
    """
    n = dense.shape[0]
    targets = _one_vs_rest_targets(labels, weights.shape[0])
    margins = targets * (dense @ weights.T + bias)
    violated = margins < 1.0
    loss = float(
        np.where(violated, 1.0 - margins, 0.0).sum() / n
        + 0.5 * l2_strength * (weights**2).sum()
    )
    pull = np.where(violated, -targets, 0.0)
    grad_w = pull.T @ dense / n + l2_strength * weights
    grad_b = pull.sum(axis=0) / n
    return loss, grad_w, grad_b


def logistic_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    dense: np.ndarray,
    labels: np.ndarray,
    l2_strength: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy with L2 on the weights, plus gradients."""
    n = dense.shape[0]
    probs = softmax(dense @ weights.T + bias)
    picked = probs[np.arange(n), labels]
    loss = float(
        -np.log(picked).mean() + 0.5 * l2_strength * (weights**2).sum()
    )
    residual = probs.copy()
    residual[np.arange(n), labels] -= 1.0
    grad_w = residual.T @ dense / n + l2_strength * weights
    grad_b = residual.sum(axis=0) / n
    return loss, grad_w, grad_b


class _LinearModel(Model):
    def __init__(self, weights, bias, params: LinearParams):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        self.params = params
        self.label_count = self.weights.shape[0]
        self.feature_dimension = self.weights.shape[1]

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return matrix.dot(self.weights.T) + self.bias

    def payload(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias.tolist()}

    @classmethod
    def from_payload(cls, payload: dict, params: LinearParams):
        return cls(payload["weights"], payload["bias"], params)


class LinearSVMModel(_LinearModel):
    """One-vs-rest hinge-trained hyperplanes; scores are raw margins."""

    kind = ModelKind.LINEAR_SVM


class LogisticRegressionModel(_LinearModel):
    """Softmax regression; scores are class probabilities."""

    kind = ModelKind.LOGISTIC_REGRESSION

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return softmax(super()._scores(matrix))


def _fit(matrix: FeatureMatrix, params: LinearParams, label_count: int, loss_and_grads):
    dense = matrix.to_dense()
    weights = np.zeros((label_count, matrix.dim), dtype=np.float64)
    bias = np.zeros(label_count, dtype=np.float64)
    for epoch in range(params.epochs):
        loss, grad_w, grad_b = loss_and_grads(
            weights, bias, dense, matrix.row_labels, params.l2_strength
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        weights -= params.learning_rate * grad_w
        bias -= params.learning_rate * grad_b
    return weights, bias


def train_linear_svm(
    matrix: FeatureMatrix, params: LinearParams, label_count: int
) -> LinearSVMModel:
    weights, bias = _fit(matrix, params, label_count, svm_loss_and_grads)
    return LinearSVMModel(weights, bias, params)


def train_logistic_regression(
    matrix: FeatureMatrix, params: LinearParams, label_count: int
) -> LogisticRegressionModel:
    weights, bias = _fit(matrix, params, label_count, logistic_loss_and_grads)
    return LogisticRegressionModel(weights, bias, params)
