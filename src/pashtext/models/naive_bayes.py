"""Gaussian and multinomial naive Bayes.

Both families score a document as log P(class | document) up to the shared
evidence term, then normalise, so `predict_scores` returns proper
log-posteriors and exponentiating them gives posterior probabilities.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, TrainingError
from ..vectorize import FeatureMatrix, class_sums
from .base import Model, ModelKind
from .params import GaussianNBParams, MultinomialNBParams

_LOG_2PI = float(np.log(2.0 * np.pi))


def _log_normalize(joint: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of (n_rows, K) joint log-probabilities."""
    peak = joint.max(axis=1, keepdims=True)
    return joint - (peak + np.log(np.exp(joint - peak).sum(axis=1, keepdims=True)))


def _class_priors(row_labels: np.ndarray, label_count: int) -> np.ndarray:
    counts = np.bincount(row_labels, minlength=label_count).astype(np.float64)
    return counts / counts.sum()


class GaussianNBModel(Model):
    """Per-class feature means and variances; densifies the scored matrix.

    This family needs per-feature statistics, so fitting and scoring work on
    dense rows; scoring loops over classes, so each row's log-likelihood is
    one contiguous sum over the features.
    """

    kind = ModelKind.GAUSSIAN_NB

    def __init__(self, priors, means, variances, params: GaussianNBParams):
        self.priors = np.asarray(priors, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.asarray(variances, dtype=np.float64)
        self.params = params
        self.label_count = self.priors.size
        self.feature_dimension = self.means.shape[1]
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise TrainingError("class priors must sum to 1")
        if np.any(self.variances <= 0):
            raise TrainingError("variances must be strictly positive after flooring")

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        dense = matrix.to_dense()
        log_norms = _LOG_2PI + np.log(self.variances)
        joint = np.empty((matrix.n_rows, self.label_count), dtype=np.float64)
        for c in range(self.label_count):
            terms = log_norms[c] + (dense - self.means[c]) ** 2 / self.variances[c]
            joint[:, c] = -0.5 * terms.sum(axis=1)
        return _log_normalize(np.log(self.priors) + joint)

    def payload(self) -> dict:
        return {
            "priors": self.priors.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict, params: GaussianNBParams) -> "GaussianNBModel":
        return cls(payload["priors"], payload["means"], payload["variances"], params)


def train_gaussian_nb(
    matrix: FeatureMatrix, params: GaussianNBParams, label_count: int
) -> GaussianNBModel:
    dense = matrix.to_dense()
    labels = matrix.row_labels
    priors = _class_priors(labels, label_count)
    means = np.zeros((label_count, matrix.dim))
    variances = np.zeros((label_count, matrix.dim))
    for c in range(label_count):
        rows = dense[labels == c]
        if rows.size:
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0)  # biased (1/n) variance
    # Floor: variance_floor times the largest pooled per-feature variance.
    # Falls back to a tiny absolute value when the whole matrix is constant.
    floor = params.variance_floor * float(dense.var(axis=0).max())
    if floor == 0.0:
        floor = 1e-12
    variances += floor
    return GaussianNBModel(priors, means, variances, params)


class MultinomialNBModel(Model):
    """Laplace-smoothed per-class token distributions over sparse counts.

    Fractional feature values (TFIDF weights) are accepted and treated as
    pseudo-counts, which keeps the family usable in both feature modes.
    """

    kind = ModelKind.MULTINOMIAL_NB

    def __init__(self, priors, log_token_probs, params: MultinomialNBParams):
        self.priors = np.asarray(priors, dtype=np.float64)
        self.log_token_probs = np.asarray(log_token_probs, dtype=np.float64)
        self.params = params
        self.label_count = self.priors.size
        self.feature_dimension = self.log_token_probs.shape[1]
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise TrainingError("class priors must sum to 1")
        prob_sums = np.exp(self.log_token_probs).sum(axis=1)
        if np.any(np.abs(prob_sums - 1.0) > 1e-9):
            raise TrainingError("per-class token probabilities must sum to 1")

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return _log_normalize(np.log(self.priors) + matrix.dot(self.log_token_probs.T))

    def payload(self) -> dict:
        return {
            "priors": self.priors.tolist(),
            "log_token_probs": self.log_token_probs.tolist(),
        }

    @classmethod
    def from_payload(
        cls, payload: dict, params: MultinomialNBParams
    ) -> "MultinomialNBModel":
        return cls(payload["priors"], payload["log_token_probs"], params)


def train_multinomial_nb(
    matrix: FeatureMatrix, params: MultinomialNBParams, label_count: int
) -> MultinomialNBModel:
    if matrix.nnz and matrix.data.min() < 0:
        raise DataError("multinomial NB requires non-negative feature values")
    priors = _class_priors(matrix.row_labels, label_count)
    token_sums = class_sums(matrix, label_count)
    alpha = params.laplace_alpha
    smoothed = token_sums + alpha
    log_probs = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
    return MultinomialNBModel(priors, log_probs, params)
