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
from .base import Model, ModelKind, checked_array, softmax
from .params import LinearParams


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
    """A weight row and bias per class, fit by full-batch gradient descent on
    the family's `loss_and_grads`."""

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
        # A diverging fit is reported by the loss check, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(params.epochs):
                loss, grad_w, grad_b = cls.loss_and_grads(
                    weights, bias, dense, matrix.row_labels, params.l2_strength
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
    loss_and_grads = staticmethod(svm_loss_and_grads)


class LogisticRegressionModel(_LinearModel):
    """Softmax regression; scores are class probabilities."""

    kind = ModelKind.LOGISTIC_REGRESSION
    display_name = "Logistic Regression"
    loss_and_grads = staticmethod(logistic_loss_and_grads)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return softmax(super()._scores(matrix))
