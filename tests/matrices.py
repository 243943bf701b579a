"""Feature matrices written out densely, for tests that spell out small
examples entry by entry, seeded and wide matrices for the fits that read
columns, and a bitwise comparison of float64 arrays."""

import tracemalloc

import numpy as np

from pashtext.vectorize import UNIGRAM, FeatureMatrix


def matrix_from_dense(dense, row_labels=None) -> FeatureMatrix:
    """Unigram matrix of the nonzero entries of a 2-D array (labels default to 0)."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    if row_labels is None:
        row_labels = np.zeros(dense.shape[0], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(dense, axis=1))))
    return FeatureMatrix(indptr, cols, dense[rows, cols], row_labels, UNIGRAM, dense.shape[1])


def assert_same_bits(got, want):
    """Equal dtype, shape and bits: -0.0 differs from 0.0, and NaN equals
    only the NaN of the same bits."""
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def matrix_of_every_cell(dense, row_labels) -> FeatureMatrix:
    """Unigram matrix that stores every entry of a 2-D array, 0.0 and -0.0 too."""
    dense = np.asarray(dense, dtype=np.float64)
    n, dim = dense.shape
    return FeatureMatrix(np.arange(n + 1) * dim, np.tile(np.arange(dim), n), dense.ravel(),
                         row_labels, UNIGRAM, dim)


def column_cases(rng) -> tuple[FeatureMatrix, int]:
    """A seeded training matrix and its class count, holding what a fit that
    reads columns must keep: an all-zero column, a column with no zero,
    stored 0.0 and -0.0, repeated and inexact values, a class with one row
    and a class with none."""
    n, dim, label_count = int(rng.integers(1, 60)), int(rng.integers(1, 40)), int(rng.integers(3, 7))
    dense = np.round(rng.uniform(-3, 3, (n, dim)), int(rng.choice([1, 8])))
    dense[rng.random((n, dim)) >= rng.choice([0.1, 0.5, 1.0])] = 0.0
    dense[:, rng.integers(dim)] = rng.uniform(0.5, 2.0, n)  # no zero
    dense[:, rng.integers(dim)] = 0.0  # all zeros
    dense[(dense == 0.0) & (rng.random((n, dim)) < 0.5)] = -0.0
    labels = rng.integers(0, label_count - 2, n)
    labels[rng.integers(n)] = label_count - 2  # one row; class label_count - 1 has none
    if rng.random() < 0.5:
        return matrix_of_every_cell(dense, labels), label_count
    matrix = matrix_from_dense(dense, labels)
    stored_zeros = rng.random(matrix.nnz) < 0.1
    matrix.data[stored_zeros] = rng.choice([0.0, -0.0], int(stored_zeros.sum()))
    return matrix, label_count


def wide_sparse_matrix() -> FeatureMatrix:
    """120 rows of two classes over 65,536 columns, 0.2 % of each row
    stored as small counts (the density of the benchmark's noisy corpus):
    its dense copy is 62.9 MB."""
    rng = np.random.default_rng(67)
    n, dim = 120, 1 << 16
    per_row = dim // 500
    indices = np.sort([rng.choice(dim, per_row, replace=False) for _ in range(n)], axis=1)
    return FeatureMatrix(np.arange(n + 1) * per_row, indices.ravel(),
                         rng.integers(1, 4, n * per_row).astype(np.float64),
                         np.arange(n) % 2, UNIGRAM, dim)


def traced_peak(call) -> int:
    """The most bytes `tracemalloc` saw allocated at once while `call()` ran;
    numpy reports its array buffers to it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
