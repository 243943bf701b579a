"""Feature matrices written out densely, for tests that spell out small
examples entry by entry, and a bitwise comparison of float64 arrays."""

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
