"""Gaussian and multinomial naive Bayes.

Both families score a document as log P(class | document) up to the shared
evidence term, then normalise, so `predict_scores` returns proper
log-posteriors and exponentiating them gives posterior probabilities.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, TrainingError
from ..vectorize import FeatureMatrix, class_sums
from . import base
from .base import Model, ModelKind, checked_array
from .params import GaussianNBParams, MultinomialNBParams

_LOG_2PI = float(np.log(2.0 * np.pi))

_FIT_COLUMNS = 64  # fewest columns per fit block, so call overhead does not swamp the sums


def _log_normalize(priors: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the (n_rows, K) joint log-probabilities
    `log(priors) + joint`.  The log prior of a class without training rows
    (prior 0) is -1e300, not -inf, so that every score is finite and that
    class's stays below every other."""
    joint = joint + np.log(priors, out=np.full_like(priors, -1e300), where=priors > 0)
    peak = joint.max(axis=1, keepdims=True)
    return joint - (peak + np.log(np.exp(joint - peak).sum(axis=1, keepdims=True)))


def _class_priors(row_labels: np.ndarray, label_count: int) -> np.ndarray:
    counts = np.bincount(row_labels, minlength=label_count).astype(np.float64)
    return counts / counts.sum()


class GaussianNBModel(Model):
    """Per-class feature means and variances; densifies the scored matrix.

    Fitting reads the training side a block of columns at a time (its
    `column_blocks`), so it never holds the whole side densely; scoring
    densifies each block of scored rows and loops over classes, so each
    row's log-likelihood is one contiguous sum over the features.
    """

    kind = ModelKind.GAUSSIAN_NB
    params_class = GaussianNBParams
    display_name = "Gaussian Naive Bayes"
    payload_arrays = ("priors", "means", "variances")

    def __init__(self, priors, means, variances, params: GaussianNBParams):
        self.means = checked_array(self.kind, "means", means, (None, None))
        self.label_count, self.feature_dimension = self.means.shape
        self.priors = checked_array(self.kind, "priors", priors, (self.label_count,))
        self.variances = checked_array(self.kind, "variances", variances, self.means.shape)
        self.params = params
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise TrainingError("class priors must sum to 1")
        if np.any(self.variances <= 0):
            raise TrainingError("variances must be strictly positive after flooring")

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: GaussianNBParams,
            label_count: int) -> "GaussianNBModel":
        labels = matrix.row_labels
        priors = _class_priors(labels, label_count)
        means = np.zeros((label_count, matrix.dim))
        variances = np.zeros((label_count, matrix.dim))
        by_class = np.argsort(labels, kind="stable")  # a class is one slice of a block
        ends = np.bincount(labels, minlength=label_count).cumsum().tolist()
        pooled = []  # each block's largest pooled per-feature variance
        budget = max(base._BLOCK_CELLS, _FIT_COLUMNS * labels.size)
        for columns, block in matrix.column_blocks(budget):
            pooled.append(block.var(axis=0).max())
            block = block[by_class]
            for c, (start, end) in enumerate(zip([0] + ends, ends)):
                if end > start:
                    means[c, columns] = block[start:end].mean(axis=0)
                    variances[c, columns] = block[start:end].var(axis=0)  # biased (1/n)
        # Floor: variance_floor times the largest pooled per-feature variance.
        # Falls back to a tiny absolute value when the whole matrix is constant.
        floor = params.variance_floor * float(np.max(pooled))
        if floor == 0.0:
            floor = 1e-12
        variances += floor
        return cls(priors, means, variances, params)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        dense = matrix.to_dense()
        log_norms = _LOG_2PI + np.log(self.variances)
        joint = np.empty((matrix.n_rows, self.label_count), dtype=np.float64)
        # log_norms[c] + (dense - means[c]) ** 2 / variances[c], the same
        # ufuncs in the same order, written into one buffer.
        terms = np.empty_like(dense)
        for c in range(self.label_count):
            np.subtract(dense, self.means[c], out=terms)
            np.square(terms, out=terms)
            np.divide(terms, self.variances[c], out=terms)
            np.add(log_norms[c], terms, out=terms)
            joint[:, c] = -0.5 * terms.sum(axis=1)
        return _log_normalize(self.priors, joint)


class MultinomialNBModel(Model):
    """Laplace-smoothed per-class token distributions over sparse counts.

    Fractional feature values (TFIDF weights) are accepted and treated as
    pseudo-counts, which keeps the family usable in both feature modes.
    """

    kind = ModelKind.MULTINOMIAL_NB
    params_class = MultinomialNBParams
    display_name = "Multinomial Naive Bayes"
    payload_arrays = ("priors", "log_token_probs")

    def __init__(self, priors, log_token_probs, params: MultinomialNBParams):
        self.log_token_probs = checked_array(
            self.kind, "log_token_probs", log_token_probs, (None, None)
        )
        self.label_count, self.feature_dimension = self.log_token_probs.shape
        self.priors = checked_array(self.kind, "priors", priors, (self.label_count,))
        self.params = params
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise TrainingError("class priors must sum to 1")
        with np.errstate(over="ignore"):  # an overflow fails the sum check below
            prob_sums = np.exp(self.log_token_probs).sum(axis=1)
        if np.any(np.abs(prob_sums - 1.0) > 1e-9):
            raise TrainingError("per-class token probabilities must sum to 1")

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: MultinomialNBParams,
            label_count: int) -> "MultinomialNBModel":
        if matrix.nnz and matrix.data.min() < 0:
            raise DataError("multinomial NB requires non-negative feature values")
        priors = _class_priors(matrix.row_labels, label_count)
        smoothed = class_sums(matrix, label_count) + params.laplace_alpha
        log_probs = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
        return cls(priors, log_probs, params)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return _log_normalize(self.priors, matrix.dot(self.log_token_probs.T))
