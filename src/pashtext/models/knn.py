"""k-nearest-neighbour classification over sparse feature rows."""

from __future__ import annotations

import numpy as np

from ..errors import DataError, InvalidHyperparameterError
from ..vectorize import FeatureMatrix
from . import base
from .base import Model, ModelKind
from .params import EUCLIDEAN, KNNParams

# A model's stored values lie in [0, MAX_STORED_VALUE]: no count or TFIDF
# weight is negative, and below this bound, far above any of them, no squared
# norm, dot product or norm product in `_nearest` can overflow float64.
MAX_STORED_VALUE = 1e100


def _nearest(
    matrix: FeatureMatrix,
    row_norm_sq: np.ndarray,
    queries: FeatureMatrix,
    k: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The k training rows nearest to each query row, given the training
    rows' squared norms.

    Returns (n_queries, k) arrays of training row indices and distances.
    Distances are Euclidean or cosine distance (1 - cosine similarity, with
    all-zero vectors treated as similarity 0).  Ties on distance are broken
    by lower row index; each query's neighbours are sorted by
    (distance, row_index).  Each query's distances are computed in full,
    then `_smallest` picks its k nearest without sorting the whole row.
    """
    # dots[q, i] = <query q, training row i>, summed over their shared columns.
    dots = queries.row_dots(matrix, base._BLOCK_CELLS)
    query_norm_sq = queries.squared_norms()[:, None]
    if metric == EUCLIDEAN:
        # row_norm_sq - 2.0 * dots + query_norm_sq, 0.0 at least, in `dots`:
        # a - b is (-b) + a, and -2.0 * x is the negation of 2.0 * x.
        distances = np.multiply(dots, -2.0, out=dots)
        np.add(distances, row_norm_sq, out=distances)
        np.add(distances, query_norm_sq, out=distances)
        np.sqrt(np.maximum(distances, 0.0, out=distances), out=distances)
    else:
        denom = np.sqrt(row_norm_sq * query_norm_sq)
        similarity = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        distances = 1.0 - similarity
    return _smallest(distances, k)


def _smallest(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The column indices and values of each row's k smallest distances, in
    (distance, column) order: exactly the first k columns of a stable
    `argsort`, which puts NaN after every number, without sorting whole rows.

    `np.partition` finds each row's k-th smallest distance.  The chosen are
    the distances below it and, of those equal to it, the ones in the lowest
    columns (a row with more such ties than places is trimmed on its own);
    a stable sort orders only these k.
    """
    # A copy, so that the partitioned rows are freed at once.
    kth = np.partition(distances, k - 1, axis=1)[:, k - 1].copy()
    kth_is_nan = np.isnan(kth)
    chosen = distances <= kth[:, None]
    # Where the k-th distance is NaN, every number and the first NaNs are chosen.
    chosen[kth_is_nan] = True
    excess = np.count_nonzero(chosen, axis=1) - k
    for row in np.flatnonzero(excess):  # unchoose the k-th place ties in the highest columns
        tied = np.isnan(distances[row]) if kth_is_nan[row] else distances[row] == kth[row]
        chosen[row, np.flatnonzero(tied)[-excess[row]:]] = False
    # The chosen columns of each row, ascending; every row has k of them.
    columns = (np.flatnonzero(chosen) % distances.shape[1]).reshape(-1, k)
    values = np.take_along_axis(distances, columns, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    return np.take_along_axis(columns, order, axis=1), np.take_along_axis(values, order, axis=1)


class KNNModel(Model):
    """Memorises the training matrix; scores are neighbour vote counts.

    `predict_scores` returns the per-class vote counts among the k nearest
    training rows, so argmax with the lowest-class-index rule resolves vote
    ties deterministically.
    """

    kind = ModelKind.KNN
    params_class = KNNParams
    display_name = "K Nearest Neighbor"

    def __init__(self, matrix: FeatureMatrix, params: KNNParams, label_count: int):
        if (matrix.data < 0).any() or (matrix.data > MAX_STORED_VALUE).any():
            raise DataError(f"knn stored values must lie in [0, {MAX_STORED_VALUE:g}]")
        if matrix.n_rows and (
            matrix.row_labels.min() < 0 or matrix.row_labels.max() >= label_count
        ):
            raise DataError("knn row labels must lie in [0, label_count)")
        if params.k > matrix.n_rows:
            raise InvalidHyperparameterError(
                f"k={params.k} exceeds the {matrix.n_rows} training rows"
            )
        self.matrix = matrix
        self.params = params
        self.label_count = label_count
        self.feature_dimension = matrix.dim
        self._row_norm_sq = matrix.squared_norms()

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: KNNParams, label_count: int) -> "KNNModel":
        return cls(matrix, params, label_count)

    def _block_width(self) -> int:
        # Distances and the chosen mask: one row each; `row_dots` bounds
        # its own temporaries.
        return self.matrix.n_rows

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        neighbors, _ = _nearest(
            self.matrix, self._row_norm_sq, matrix, self.params.k, self.params.metric,
        )
        neighbor_labels = self.matrix.row_labels[neighbors]
        votes = np.zeros((matrix.n_rows, self.label_count), dtype=np.float64)
        np.add.at(votes, (np.arange(matrix.n_rows)[:, None], neighbor_labels), 1.0)
        return votes

    def payload(self) -> dict:
        return {
            "dim": self.matrix.dim,
            "mode": self.matrix.mode,
            "label_count": self.label_count,
            "row_labels": self.matrix.row_labels.tolist(),
            "rows": [
                {"indices": indices.tolist(), "values": values.tolist()}
                for indices, values in map(self.matrix.row, range(self.matrix.n_rows))
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict, params: KNNParams, label_count: int,
                     feature_dimension: int) -> "KNNModel":
        rows = payload["rows"]
        matrix = FeatureMatrix(
            indptr=np.cumsum([0] + [len(entry["indices"]) for entry in rows]),
            indices=[index for entry in rows for index in entry["indices"]],
            data=[value for entry in rows for value in entry["values"]],
            row_labels=np.ravel(payload["row_labels"]),  # a nested list writes back flat
            mode=payload["mode"],
            dim=int(payload["dim"]),
        )
        return cls(matrix, params, int(payload["label_count"]))
