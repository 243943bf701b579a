"""k-nearest-neighbour classification over sparse feature rows."""

from __future__ import annotations

import numpy as np

from ..errors import DataError, InvalidHyperparameterError
from ..vectorize import FeatureMatrix
from .base import Model, ModelKind
from .params import COSINE, EUCLIDEAN, KNNParams


def knn_neighbors(
    matrix: FeatureMatrix,
    queries: FeatureMatrix,
    k: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The k training rows nearest to each query row.

    Returns (n_queries, k) arrays of training row indices and distances.
    Distances are Euclidean or cosine distance (1 - cosine similarity, with
    all-zero vectors treated as similarity 0).  Ties on distance are broken
    by lower row index; each query's neighbours are sorted by
    (distance, row_index).
    """
    if metric not in (EUCLIDEAN, COSINE):
        raise InvalidHyperparameterError(f"unknown metric {metric!r}")
    if k > matrix.n_rows:
        raise InvalidHyperparameterError(
            f"k={k} exceeds the {matrix.n_rows} stored training rows"
        )
    return _nearest(matrix, matrix.squared_norms(), queries, k, metric)


def _nearest(
    matrix: FeatureMatrix,
    row_norm_sq: np.ndarray,
    queries: FeatureMatrix,
    k: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """`knn_neighbors` with the training rows' squared norms given.  Each
    query's distances are computed in full, then `_smallest` picks its k
    nearest without sorting the whole row."""
    # dots[q, i] = <query q, training row i>, summed over row i's entries.
    dots = matrix.dot(queries.to_dense().T).T
    query_norm_sq = queries.squared_norms()[:, None]
    if metric == EUCLIDEAN:
        distances = np.sqrt(np.maximum(row_norm_sq - 2.0 * dots + query_norm_sq, 0.0))
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
        if matrix.n_rows and (
            matrix.row_labels.min() < 0 or matrix.row_labels.max() >= label_count
        ):
            raise DataError("knn row labels must lie in [0, label_count)")
        if params.k > matrix.n_rows:
            raise DataError(f"knn stores {matrix.n_rows} rows, fewer than k={params.k}")
        self.matrix = matrix
        self.params = params
        self.label_count = label_count
        self.feature_dimension = matrix.dim
        self._row_norm_sq = matrix.squared_norms()

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: KNNParams, label_count: int) -> "KNNModel":
        if params.k > matrix.n_rows:
            raise InvalidHyperparameterError(
                f"k={params.k} exceeds the {matrix.n_rows} training rows"
            )
        return cls(matrix, params, label_count)

    def _block_width(self) -> int:
        # Distances, the chosen mask and the dense queries: one row each.
        return max(self.feature_dimension, self.matrix.n_rows)

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
        if any(len(entry["indices"]) != len(entry["values"]) for entry in rows):
            raise DataError("each stored row needs as many indices as values")
        row_labels = payload["row_labels"]
        indices = [index for entry in rows for index in entry["indices"]]
        values = [value for entry in rows for value in entry["values"]]
        # `type`, not `isinstance`: a JSON true or false is no integer here.
        for name, entries, kinds, what in (
            ("row_labels", row_labels, {int}, "integers"),
            ("indices", indices, {int}, "integers"),
            ("values", values, {int, float}, "numbers"),
        ):
            if not set(map(type, entries)) <= kinds:
                raise DataError(f"knn stored {name} must be {what}")
        matrix = FeatureMatrix(
            indptr=np.cumsum([0] + [len(entry["indices"]) for entry in rows]),
            indices=indices,
            data=values,
            row_labels=row_labels,
            mode=payload["mode"],
            dim=payload["dim"],
        )
        if (matrix.data < 0).any():  # no unigram or TFIDF value is negative
            raise DataError("knn stored feature values must not be negative")
        return cls(matrix, params, payload["label_count"])
