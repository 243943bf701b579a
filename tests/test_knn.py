"""Nearest-neighbour search and voting against brute-force distance scans."""

import math
import random

import numpy as np
import pytest
from matrices import matrix_from_dense

from pashtext.errors import DataError, InvalidHyperparameterError
from pashtext.models import knn
from pashtext.models.knn import KNNModel
from pashtext.models.params import COSINE, EUCLIDEAN, KNNParams


def knn_neighbors(m, q, k, metric):
    """The k rows of `m` nearest to each row of `q`, as the model finds them."""
    return knn._nearest(m, m.squared_norms(), q, k, metric)


def queries(*rows):
    return matrix_from_dense(np.array(rows, dtype=np.float64))


def brute_distances(dense, query, metric):
    out = []
    for row in dense:
        if metric == EUCLIDEAN:
            out.append(math.sqrt(sum((a - b) ** 2 for a, b in zip(row, query))))
        else:
            dot = sum(a * b for a, b in zip(row, query))
            norms = math.sqrt(sum(a * a for a in row)) * math.sqrt(
                sum(b * b for b in query)
            )
            out.append(1.0 - (dot / norms if norms > 0 else 0.0))
    return out


def test_neighbors_match_brute_force_sweep():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10)
        dim = rng.randrange(1, 5)
        dense = [
            [rng.choice([0.0, 0.0, rng.uniform(0, 3)]) for _ in range(dim)]
            for _ in range(n)
        ]
        batch = [
            [rng.choice([0.0, rng.uniform(0, 3)]) for _ in range(dim)]
            for _ in range(rng.randrange(1, 4))
        ]
        k = rng.randrange(1, n + 1)
        metric = rng.choice([EUCLIDEAN, COSINE])
        found, distances = knn_neighbors(
            matrix_from_dense(dense), queries(*batch), k, metric
        )
        assert found.shape == distances.shape == (len(batch), k)
        for query, row_ids, row_distances in zip(batch, found, distances):
            got = list(zip(row_ids.tolist(), row_distances.tolist()))
            expected = brute_distances(dense, query, metric)
            for i, d in got:
                assert d == pytest.approx(expected[i], abs=1e-9)
            # returned pairs are sorted by (distance, row index)
            keys = [(d, i) for i, d in got]
            assert keys == sorted(keys)
            # nothing excluded is closer than what was returned (up to fp
            # noise between the expanded and direct distance formulas)
            excluded = [expected[i] for i in range(n) if i not in {i for i, _ in got}]
            if excluded:
                assert max(d for _, d in got) <= min(excluded) + 1e-9


def test_distance_ties_break_by_lower_row_index():
    rows = matrix_from_dense([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    found, _ = knn_neighbors(rows, queries([1.0, 0.0]), 3, EUCLIDEAN)
    assert found.tolist() == [[0, 2, 1]]


def test_cosine_zero_vector_has_similarity_zero():
    rows = matrix_from_dense([[0.0, 0.0], [1.0, 1.0]])
    found, distances = knn_neighbors(rows, queries([1.0, 1.0], [0.0, 0.0]), 2, COSINE)
    assert found[0].tolist() == [1, 0]
    assert distances[0][0] == pytest.approx(0.0, abs=1e-12)
    assert distances[0][1] == 1.0
    # a zero query is equidistant from everything under cosine
    assert distances[1].tolist() == [1.0, 1.0]


def reference_smallest(distances, k):
    """The selection `knn._smallest` replaced: a full stable argsort."""
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(distances, order, axis=1)


def assert_same_selection(got, want):
    """Equal indices and bit-identical distances."""
    assert np.array_equal(got[0], want[0])
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def test_top_k_equals_stable_argsort_on_tied_distances():
    rng = np.random.default_rng(13)
    # Few distinct values, so most rows tie across the k-th place; -0.0
    # ties with 0.0, and NaN sorts after inf.
    pool = np.array([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, np.inf, np.nan])
    for _ in range(3000):
        n = int(rng.integers(1, 12))
        distances = rng.choice(pool[: rng.integers(1, pool.size + 1)],
                               size=(int(rng.integers(0, 6)), n))
        k = int(rng.choice([1, n, rng.integers(1, n + 1)]))
        assert_same_selection(knn._smallest(distances, k), reference_smallest(distances, k))


def test_neighbors_equal_stable_argsort_selection_on_tied_matrices(monkeypatch):
    rng = np.random.default_rng(17)
    cases = 0
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        # Few distinct small counts: duplicate rows, all-zero rows and equal
        # distances across the k-th place.
        distinct = rng.integers(0, 3, (int(rng.integers(1, 5)), dim)).astype(np.float64)
        dense = distinct[rng.integers(len(distinct), size=int(rng.integers(1, 20)))]
        batch = rng.integers(0, 3, (int(rng.integers(1, 8)), dim)).astype(np.float64)
        n = len(dense)
        for k in {1, n, int(rng.integers(1, n + 1))}:
            for metric in (EUCLIDEAN, COSINE):
                args = (matrix_from_dense(dense), queries(*batch), k, metric)
                got = knn_neighbors(*args)
                with monkeypatch.context() as patch:
                    patch.setattr(knn, "_smallest", reference_smallest)
                    want = knn_neighbors(*args)
                assert_same_selection(got, want)
                cases += 1
    assert cases >= 800


def test_k_larger_than_rows_is_rejected():
    with pytest.raises(InvalidHyperparameterError, match="exceeds"):
        KNNModel.fit(matrix_from_dense([[1.0], [2.0]], [0, 1]), KNNParams(k=3), 2)


def test_scores_are_vote_counts():
    dense = [[0.0], [0.1], [5.0], [5.1], [5.2]]
    labels = [0, 0, 1, 1, 1]
    model = KNNModel.fit(matrix_from_dense(dense, labels), KNNParams(k=3), 2)
    votes = model.predict_scores(queries([5.05], [0.05]))
    assert votes.tolist() == [[0.0, 3.0], [2.0, 1.0]]
    assert votes.sum(axis=1).tolist() == [3.0, 3.0]


def test_vote_tie_resolves_to_lower_class_index():
    dense = [[0.0], [2.0]]
    model = KNNModel.fit(matrix_from_dense(dense, [1, 0]), KNNParams(k=2), 2)
    assert model.predict_rows(queries([1.0])).tolist() == [0]


def test_payload_round_trip():
    dense = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [1.0, 1.0, 1.0]]
    model = KNNModel.fit(matrix_from_dense(dense, [0, 1, 2]), KNNParams(k=2), 3)
    restored = KNNModel.from_payload(
        model.payload(), model.params, model.label_count, model.feature_dimension
    )
    probes = queries([0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0])
    assert np.array_equal(restored.predict_scores(probes), model.predict_scores(probes))
    assert restored.payload() == model.payload()
    assert restored.feature_dimension == 3
    assert restored.label_count == 3


def test_param_validation_and_dimension_check():
    with pytest.raises(InvalidHyperparameterError):
        KNNParams(k=0)
    with pytest.raises(InvalidHyperparameterError):
        KNNParams(metric="chebyshev")
    model = KNNModel.fit(matrix_from_dense([[1.0]], [0]), KNNParams(k=1), 1)
    with pytest.raises(DataError):
        model.predict_scores(queries([1.0, 2.0]))
