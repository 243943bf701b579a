"""Model kind enumeration and the common batched predict contract."""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum

import numpy as np

from ..errors import DataError
from ..vectorize import FeatureMatrix


class ModelKind(str, Enum):
    """The eight supported classifier families, in canonical order.

    The enumeration order is the canonical report and tie-break order for
    everything that iterates over kinds.
    """

    GAUSSIAN_NB = "gaussian_nb"
    MULTINOMIAL_NB = "multinomial_nb"
    KNN = "knn"
    DECISION_TREE = "decision_tree"
    RANDOM_FOREST = "random_forest"
    LOGISTIC_REGRESSION = "logistic_regression"
    LINEAR_SVM = "linear_svm"
    MLP = "mlp"


KIND_DISPLAY_NAMES = {
    ModelKind.GAUSSIAN_NB: "Gaussian Naive Bayes",
    ModelKind.MULTINOMIAL_NB: "Multinomial Naive Bayes",
    ModelKind.KNN: "K Nearest Neighbor",
    ModelKind.DECISION_TREE: "Decision Tree",
    ModelKind.RANDOM_FOREST: "Random Forest",
    ModelKind.LOGISTIC_REGRESSION: "Logistic Regression",
    ModelKind.LINEAR_SVM: "Linear SVM",
    ModelKind.MLP: "Multilayer Perceptron",
}


# Dense cells per scoring block: large enough that per-block overhead is
# negligible, small enough that no (rows x block width) temporary grows with
# the number of rows scored.
_BLOCK_CELLS = 1 << 16


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, shifted by the row maximum."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


class Model(ABC):
    """A trained classifier: immutable, shareable, pure at prediction time.

    `predict_scores` returns one finite real per row and class; its meaning
    is family-specific (log-posteriors, votes, margins or probabilities) but
    the row-wise argmax with lowest-index tie-break is the prediction for
    every family.
    """

    kind: ModelKind
    label_count: int
    feature_dimension: int

    def predict_scores(self, matrix: FeatureMatrix) -> np.ndarray:
        """(n_rows, label_count) per-class scores, computed block by block."""
        if matrix.dim != self.feature_dimension:
            raise DataError(
                f"matrix dimension {matrix.dim} does not match model "
                f"feature dimension {self.feature_dimension}"
            )
        step = max(1, _BLOCK_CELLS // max(self._block_width(), 1))
        blocks = [
            self._scores(matrix.row_block(start, start + step))
            for start in range(0, matrix.n_rows, step)
        ]
        return np.concatenate(blocks) if blocks else np.zeros((0, self.label_count))

    def _block_width(self) -> int:
        """Columns of the widest temporary `_scores` makes per scored row."""
        return self.feature_dimension

    @abstractmethod
    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        """Family-specific scores of a matrix whose dimension was checked."""

    def predict_rows(self, matrix: FeatureMatrix) -> np.ndarray:
        """Predicted class index of every row (lowest index wins ties)."""
        return np.argmax(self.predict_scores(matrix), axis=1).astype(np.int64)

    @abstractmethod
    def payload(self) -> dict:
        """JSON-serializable family-specific parameters."""

    @classmethod
    @abstractmethod
    def from_payload(cls, payload: dict, params) -> "Model":
        """Rebuild a model from `payload` (inverse of :meth:`payload`)."""
