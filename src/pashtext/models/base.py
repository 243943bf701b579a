"""The kind -> class table and the common batched predict contract."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import DataError
from ..kinds import ModelKind
from ..vectorize import FeatureMatrix


# The class of each kind; the family modules fill it as they define them.
KIND_CLASSES: dict[ModelKind, type["Model"]] = {}


# Dense cells per scoring block: large enough that per-block overhead is
# negligible, small enough that no (rows x block width) temporary grows with
# the number of rows scored.
_BLOCK_CELLS = 1 << 16


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, shifted by the row maximum."""
    # The ufuncs behind ndarray.max/.sum, without their per-call Python wrappers.
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.add.reduce(exps, axis=-1, keepdims=True)


def checked_array(kind: ModelKind, name: str, values, shape: tuple) -> np.ndarray:
    """`values` as a float64 array of `shape` (None matches any length) whose
    entries are all finite; otherwise a DataError naming `kind` and `name`."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        expected = ", ".join("any" if want is None else str(want) for want in shape)
        raise DataError(
            f"malformed {kind.value} weights: {name} has shape {array.shape}, "
            f"expected ({expected})"
        )
    if not np.all(np.isfinite(array)):
        raise DataError(f"malformed {kind.value} weights: {name} holds a non-finite value")
    return array


class Model(ABC):
    """A trained classifier: immutable, shareable, pure at prediction time.

    `predict_scores` returns one finite real per row and class; its meaning
    is family-specific (log-posteriors, votes, margins or probabilities) but
    the row-wise argmax with lowest-index tie-break is the prediction for
    every family.

    Each concrete family sets `kind`, its hyperparameter record class
    `params_class` and its report name `display_name`; defining the class
    enters it in `KIND_CLASSES`.  A family whose payload is named float
    arrays lists their attribute names in `payload_arrays`, in constructor
    order, and inherits `payload` and `from_payload`; any other family sets
    none and overrides both.
    """

    kind: ModelKind
    params_class: type
    display_name: str
    payload_arrays: tuple[str, ...] = ()
    label_count: int
    feature_dimension: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            if cls.kind in KIND_CLASSES:
                raise TypeError(f"a second model class of kind {cls.kind.value}")
            KIND_CLASSES[cls.kind] = cls

    @classmethod
    @abstractmethod
    def fit(cls, matrix: FeatureMatrix, params, label_count: int) -> "Model":
        """Train on the matrix's rows and labels, which `train` has checked;
        `train` runs this with numpy's overflow, invalid-value and
        divide-by-zero warnings silenced."""

    def predict_scores(self, matrix: FeatureMatrix) -> np.ndarray:
        """(n_rows, label_count) per-class scores, computed block by block;
        weights that overflow them or make them undefined are a DataError."""
        if matrix.dim != self.feature_dimension:
            raise DataError(
                f"matrix dimension {matrix.dim} does not match model "
                f"feature dimension {self.feature_dimension}"
            )
        step = max(1, _BLOCK_CELLS // max(self._block_width(), 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            blocks = [
                self._scores(matrix.row_block(start, start + step))
                for start in range(0, matrix.n_rows, step)
            ]
        scores = np.concatenate(blocks) if blocks else np.zeros((0, self.label_count))
        if not np.isfinite(scores).all():
            raise DataError(f"{self.kind.value} model gives non-finite scores")
        return scores

    def _block_width(self) -> int:
        """Columns of the widest temporary `_scores` makes per scored row."""
        return self.feature_dimension

    @abstractmethod
    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        """Family-specific scores of a matrix whose dimension was checked."""

    def predict_rows(self, matrix: FeatureMatrix) -> np.ndarray:
        """Predicted class index of every row (lowest index wins ties)."""
        return np.argmax(self.predict_scores(matrix), axis=1).astype(np.int64)

    def payload(self) -> dict:
        """JSON-serializable family-specific parameters: by default each of
        `payload_arrays` as nested lists."""
        return {name: getattr(self, name).tolist() for name in self.payload_arrays}

    @classmethod
    def from_payload(cls, payload: dict, params, label_count: int,
                     feature_dimension: int) -> "Model":
        """Rebuild a model from `payload` (inverse of :meth:`payload`) and the
        document's declared sizes, which kinds whose payload implies them
        ignore.  By default `cls(*arrays, params)`, which reads each array as
        float64: a `true` or `"0.5"` reads as 1.0 or 0.5, and the load rule
        (`model_from_document`) refuses it when it writes the array back."""
        return cls(*(payload[name] for name in cls.payload_arrays), params)
