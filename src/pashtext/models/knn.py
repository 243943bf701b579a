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
    return _nearest(matrix, matrix.row_ids(), matrix.squared_norms(), queries, k, metric)


def _nearest(
    matrix: FeatureMatrix,
    row_ids: np.ndarray,
    row_norm_sq: np.ndarray,
    queries: FeatureMatrix,
    k: int,
    metric: str,
) -> tuple[np.ndarray, np.ndarray]:
    """`knn_neighbors` with the training rows' row ids and squared norms given."""
    query_dense = queries.to_dense()
    # dots[q, i] = <query q, training row i>, summed over row i's entries.
    dots = np.empty((queries.n_rows, matrix.n_rows), dtype=np.float64)
    for q in range(queries.n_rows):
        dots[q] = np.bincount(
            row_ids, weights=matrix.data * query_dense[q, matrix.indices],
            minlength=matrix.n_rows,
        )
    query_norm_sq = queries.squared_norms()[:, None]
    if metric == EUCLIDEAN:
        distances = np.sqrt(np.maximum(row_norm_sq - 2.0 * dots + query_norm_sq, 0.0))
    else:
        denom = np.sqrt(row_norm_sq * query_norm_sq)
        similarity = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        distances = 1.0 - similarity
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(distances, order, axis=1)


class KNNModel(Model):
    """Memorises the training matrix; scores are neighbour vote counts.

    `predict_scores` returns the per-class vote counts among the k nearest
    training rows, so argmax with the lowest-class-index rule resolves vote
    ties deterministically.
    """

    kind = ModelKind.KNN

    def __init__(self, matrix: FeatureMatrix, params: KNNParams, label_count: int):
        self.matrix = matrix
        self.params = params
        self.label_count = label_count
        self.feature_dimension = matrix.dim
        self._row_ids = matrix.row_ids()
        self._row_norm_sq = matrix.squared_norms()

    def _block_width(self) -> int:
        # Distances, their sort order and the dense queries: one row each.
        return max(self.feature_dimension, self.matrix.n_rows)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        neighbors, _ = _nearest(
            self.matrix, self._row_ids, self._row_norm_sq, matrix,
            self.params.k, self.params.metric,
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
    def from_payload(cls, payload: dict, params: KNNParams) -> "KNNModel":
        rows = payload["rows"]
        if any(len(entry["indices"]) != len(entry["values"]) for entry in rows):
            raise DataError("each stored row needs as many indices as values")
        matrix = FeatureMatrix(
            indptr=np.cumsum([0] + [len(entry["indices"]) for entry in rows]),
            indices=[index for entry in rows for index in entry["indices"]],
            data=[value for entry in rows for value in entry["values"]],
            row_labels=payload["row_labels"],
            mode=payload["mode"],
            dim=payload["dim"],
        )
        return cls(matrix, params, payload["label_count"])


def train_knn(matrix: FeatureMatrix, params: KNNParams, label_count: int) -> KNNModel:
    if params.k > matrix.n_rows:
        raise InvalidHyperparameterError(
            f"k={params.k} exceeds the {matrix.n_rows} training rows"
        )
    return KNNModel(matrix, params, label_count)
