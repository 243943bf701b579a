"""Vocabulary building, unigram/TFIDF sparse matrices, chi-square selection.

Everything here is fitted on training documents only. Transforming a test
document never mutates the vocabulary; unseen tokens are simply dropped.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .corpus import Corpus, CorpusSplit, LabelSet
from .errors import DataError, malformed
from .kinds import FEATURE_MODES, TFIDF, UNIGRAM
from .pipeline import TokenizedDocument, preprocess

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class FeatureMatrix:
    """Compressed sparse rows: one row per document, plus class indices.

    Row i stores its column indices in ``indices[indptr[i]:indptr[i + 1]]``
    (strictly increasing, within [0, dim)) and the matching finite values
    in the same slice of ``data``.  The whole layout is validated once, here.
    """

    indptr: np.ndarray  # int64, n_rows + 1 offsets, starts at 0, non-decreasing
    indices: np.ndarray  # int64 column per stored value
    data: np.ndarray  # float64 stored values
    row_labels: np.ndarray  # int64 class indices, one per row
    mode: str
    dim: int

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        self.row_labels = np.asarray(self.row_labels, dtype=np.int64)
        if self.mode not in FEATURE_MODES:
            raise DataError(f"unknown feature mode {self.mode!r}")
        if self.dim < 0:
            raise DataError("matrix dimension must be non-negative")
        if (
            self.indptr.ndim != 1
            or self.indptr.size != self.row_labels.size + 1
            or self.indptr[0] != 0
            or np.any(np.diff(self.indptr) < 0)
        ):
            raise DataError("indptr must hold n_rows + 1 non-decreasing offsets from 0")
        if not self.indices.shape == self.data.shape == (int(self.indptr[-1]),):
            raise DataError("indices and data must hold indptr[-1] entries each")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.dim:
                raise DataError("sparse index out of range")
            increasing = np.diff(self.indices) > 0
            starts = self.indptr[1:-1]
            increasing[starts[(starts > 0) & (starts < self.indices.size)] - 1] = True
            if not increasing.all():
                raise DataError("sparse indices must be strictly increasing within a row")
            if not np.all(np.isfinite(self.data)):
                raise DataError("sparse values must be finite")

    @property
    def n_rows(self) -> int:
        return self.row_labels.size

    @property
    def nnz(self) -> int:
        return self.indices.size

    def row_ids(self) -> np.ndarray:
        """Row index of every stored value."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) views of row i."""
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.data[start:end]

    def row_block(self, start: int, stop: int) -> "FeatureMatrix":
        """Rows [start, stop) as a matrix of their own."""
        stop = min(stop, self.n_rows)
        first, last = self.indptr[start], self.indptr[stop]
        return FeatureMatrix(
            self.indptr[start : stop + 1] - first, self.indices[first:last],
            self.data[first:last], self.row_labels[start:stop], self.mode, self.dim,
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.dim), dtype=np.float64)
        dense[self.row_ids(), self.indices] = self.data
        return dense

    def dot(self, weights: np.ndarray) -> np.ndarray:
        """(n_rows, m) product with a dense (dim, m) array.

        Each entry sums its row's stored products in index order, so memory
        stays O(nnz + n_rows * m) however wide the matrix is.
        """
        rows = self.row_ids()
        out = np.empty((self.n_rows, weights.shape[1]), dtype=np.float64)
        for j in range(weights.shape[1]):
            out[:, j] = np.bincount(
                rows, weights=self.data * weights[self.indices, j], minlength=self.n_rows
            )
        return out

    @cached_property
    def _by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix's one column view: the stored values sorted by column,
        in row order within a column, as per-column offsets and each value's
        row and value.  Made at the first `row_dots` against this matrix or
        `column_blocks` of it, and kept for the next."""
        order = np.argsort(self.indices, kind="stable")
        return _indptr(self.indices[order], self.dim), self.row_ids()[order], self.data[order]

    def column_blocks(self, budget: int):
        """(column slice, block) pairs, left to right, where a block is
        `to_dense()[:, slice]` filled from the column view alone.  A block is
        about `budget` cells and at least two columns wide, so numpy sums an
        axis-0 reduction of it row by row, as it does the whole matrix's: a
        lone last column joins the block before it, a narrower matrix is one."""
        column_ptr, column_rows, column_data = self._by_column
        width = max(2, budget // max(self.n_rows, 1))
        starts = list(range(0, max(self.dim - 1, 1), width))
        for a, b in zip(starts, starts[1:] + [self.dim]):
            lo, hi = column_ptr[a], column_ptr[b]
            block = np.zeros((self.n_rows, b - a))
            columns = np.repeat(np.arange(b - a), np.diff(column_ptr[a:b + 1]))
            block[column_rows[lo:hi], columns] = column_data[lo:hi]
            yield slice(a, b), block

    def row_dots(self, other: "FeatureMatrix", budget: int) -> np.ndarray:
        """(n_rows, other.n_rows) inner products of this matrix's rows with
        `other`'s, multiplying only the columns each pair shares.

        Each entry sums its terms in column order, as
        `other.dot(self.to_dense().T).T` does.  The terms it skips are finite
        values times 0.0, and adding ±0.0 leaves a sum that starts at +0.0
        as it is, so the two agree bit for bit.  A new chunk of rows starts
        where the running count of products passes a multiple of `budget`,
        so the temporaries stay O(budget + other.nnz) however dense the rows.
        """
        column_ptr, column_rows, column_data = other._by_column
        starts = column_ptr[self.indices]
        counts = column_ptr[self.indices + 1] - starts  # products of each stored value
        before = np.concatenate(([0], np.cumsum(counts)))  # products before each value
        # Product p of value e reads `other`'s value p + shift[e] in column order.
        shift = starts - before[:-1]
        row_keys = self.row_ids() * other.n_rows
        chunk = before[self.indptr[:-1]] // budget
        edges = np.flatnonzero(chunk[1:] != chunk[:-1]) + 1
        out = np.empty((self.n_rows, other.n_rows), dtype=np.float64)
        for a, b in zip(np.append(0, edges).tolist(), np.append(edges, self.n_rows).tolist()):
            first, last = self.indptr[a], self.indptr[b]
            repeats = counts[first:last]
            source = np.arange(before[first], before[last])
            source += np.repeat(shift[first:last], repeats)
            keys = np.repeat(row_keys[first:last] - a * other.n_rows, repeats)
            keys += column_rows[source]
            weights = column_data[source]
            weights *= np.repeat(self.data[first:last], repeats)
            # An empty bincount is int64; `out` takes it as 0.0.
            out[a:b] = np.bincount(
                keys, weights, minlength=(b - a) * other.n_rows
            ).reshape(b - a, other.n_rows)
        return out

    def squared_norms(self) -> np.ndarray:
        """Per-row sum of squared values, accumulated in index order."""
        return np.bincount(
            self.row_ids(), weights=self.data * self.data, minlength=self.n_rows
        )


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR offsets for entries whose (sorted) row indices are `rows`."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


@dataclass
class Vocabulary:
    """Token-to-index mapping plus per-token document frequency.

    Built from training documents only; indices are dense in [0, V) in
    first-occurrence order, and the dict holds its tokens in index order.
    """

    token_to_index: dict[str, int]
    document_frequency: np.ndarray  # int64 per index, each >= 1
    n_train_docs: int

    def __post_init__(self):
        self.document_frequency = np.asarray(self.document_frequency, dtype=np.int64)
        size = len(self.token_to_index)
        if list(self.token_to_index.values()) != list(range(size)):
            raise DataError("vocabulary indices must be 0, 1, ..., V-1 in token order")
        if self.document_frequency.size != size:
            raise DataError("document_frequency length must equal vocabulary size")
        if size and (
            self.document_frequency.min() < 1
            or self.document_frequency.max() > self.n_train_docs
        ):
            raise DataError("document frequencies must lie in [1, n_train_docs]")

    def __len__(self) -> int:
        return len(self.token_to_index)

    def to_json_dict(self) -> dict:
        frequencies = self.document_frequency.tolist()
        return {
            "n_train_docs": self.n_train_docs,
            "entries": list(map(list, zip(self.token_to_index, self.token_to_index.values(),
                                          frequencies))),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Vocabulary":
        """The vocabulary saved as `payload`: tokens as strings, numbers as integers."""
        with malformed("vocabulary"):
            entries = payload["entries"]
            # Every entry must unpack as [token, index, frequency].
            tokens, indices, counts = zip(*entries, strict=True) if entries else ((), (), ())
            index = np.fromiter(indices, np.int64, len(indices))
            return cls(dict(zip(map(str, tokens), index.tolist())),
                       np.fromiter(counts, np.int64, index.size), int(payload["n_train_docs"]))


@dataclass
class FeatureMask:
    """Indices kept by feature selection, plus the full score vector."""

    kept_indices: np.ndarray  # sorted int64
    scores: np.ndarray  # float64 per original index

    def __post_init__(self):
        self.kept_indices = np.asarray(self.kept_indices, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.kept_indices.size and (
            np.any(np.diff(self.kept_indices) <= 0)
            or self.kept_indices[0] < 0
            or self.kept_indices[-1] >= self.scores.size
        ):
            raise DataError("kept_indices must be sorted and within [0, V)")
        if np.any(~np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise DataError("selection scores must be finite and non-negative")

    def to_json_dict(self) -> dict:
        return {"kept": self.kept_indices.tolist(), "scores": self.scores.tolist()}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FeatureMask":
        with malformed("feature mask"):
            # Flattened: a nested or scalar value then writes back as another.
            return cls(np.ravel(payload["kept"]), np.ravel(payload["scores"]))


# (rows, columns, counts) of the distinct cells of a count matrix, in CSR order.
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]


def _token_cells(docs: Sequence[TokenizedDocument], index: dict[str, int]) -> Cells:
    """The cells of the count matrix of `docs` over the columns of `index`:
    each token counts in its document's row and its column; a token that
    `index` lacks is dropped."""
    dim = len(index)
    lengths = [len(doc.tokens) for doc in docs]
    tokens = chain.from_iterable(doc.tokens for doc in docs)
    keys = np.fromiter(map(index.get, tokens, repeat(-1)), dtype=np.int64, count=sum(lengths))
    known = keys >= 0
    keys += np.repeat(np.arange(len(docs), dtype=np.int64) * dim, lengths)
    keys, counts = np.unique(keys[known], return_counts=True)
    rows, columns = np.divmod(keys, max(dim, 1))
    return rows, columns, counts


def _count_matrix(
    cells: Cells, docs: Sequence[TokenizedDocument], labels: LabelSet, dim: int
) -> FeatureMatrix:
    """The unigram count matrix of `docs` with these cells."""
    rows, columns, counts = cells
    return FeatureMatrix(
        indptr=_indptr(rows, len(docs)),
        indices=columns,
        data=counts.astype(np.float64),
        row_labels=np.array([labels.index(doc.label) for doc in docs], dtype=np.int64),
        mode=UNIGRAM,
        dim=dim,
    )


def _fit(train_docs: Sequence[TokenizedDocument]) -> tuple[Vocabulary, Cells]:
    """The vocabulary of the training documents and the cells of their
    count matrix, which `_token_cells` counts as it counts any other side.

    One pass over the tokens builds the index in first-occurrence order
    (document order, then token order within the document).  Each distinct
    (row, column) cell is one document holding the column's token, so the
    cell columns count document frequency.
    """
    if not train_docs:
        raise DataError("cannot build a vocabulary from zero documents")
    tokens = chain.from_iterable(doc.tokens for doc in train_docs)
    index = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
    if not index:
        raise DataError("cannot build a vocabulary from documents without tokens")
    cells = _token_cells(train_docs, index)
    vocab = Vocabulary(
        token_to_index=index,
        document_frequency=np.bincount(cells[1], minlength=len(index)),
        n_train_docs=len(train_docs),
    )
    return vocab, cells


def build_vocabulary(train_docs: Sequence[TokenizedDocument]) -> Vocabulary:
    """The vocabulary of the training documents, as the fit builds it."""
    return _fit(train_docs)[0]


def idf_weights(vocab: Vocabulary) -> np.ndarray:
    """Natural-log inverse document frequency: ln(n_train_docs / df)."""
    return np.log(vocab.n_train_docs / vocab.document_frequency.astype(np.float64))


def vectorize_documents(
    docs: Sequence[TokenizedDocument],
    vocab: Vocabulary,
    labels: LabelSet,
) -> FeatureMatrix:
    """Build the unigram count matrix of a document sequence.

    Tokens outside the vocabulary are ignored; `tfidf_from_counts` weights
    the counts.
    """
    return _count_matrix(_token_cells(docs, vocab.token_to_index), docs, labels, len(vocab))


def _kept_entries(matrix: FeatureMatrix, keep: np.ndarray, indices: np.ndarray,
                  data: np.ndarray, mode: str, dim: int) -> FeatureMatrix:
    """The `mode` matrix of width `dim` with the rows and labels of `matrix`
    and only its entries where `keep` holds, whose new columns and values
    are `indices` and `data`."""
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return FeatureMatrix(
        indptr=kept_before[matrix.indptr],
        indices=indices,
        data=data,
        row_labels=matrix.row_labels.copy(),
        mode=mode,
        dim=dim,
    )


def tfidf_from_counts(counts: FeatureMatrix, vocab: Vocabulary,
                      mask: FeatureMask | None) -> FeatureMatrix:
    """The TFIDF matrix of a unigram count matrix: each count times its
    token's idf, with the entries that become exactly zero dropped.  With a
    mask, `counts` holds the mask's columns (`apply_mask` of the counts)."""
    idf = idf_weights(vocab)
    if mask is not None:
        idf = idf[mask.kept_indices]
    values = counts.data * idf[counts.indices]
    keep = values != 0.0
    return _kept_entries(counts, keep, counts.indices[keep], values[keep], TFIDF, counts.dim)


def class_sums(matrix: FeatureMatrix, n_classes: int) -> np.ndarray:
    """(n_classes, dim) per-class column sums, accumulated in row order."""
    sums = np.zeros((n_classes, matrix.dim), dtype=np.float64)
    np.add.at(sums, (matrix.row_labels[matrix.row_ids()], matrix.indices), matrix.data)
    return sums


def chi2_scores(matrix: FeatureMatrix, n_classes: int) -> np.ndarray:
    """Chi-square association score of each feature with the class labels.

    Observed O[c, j] is the per-class sum of feature j; expected E[c, j] is
    the class's share of rows times the feature total. The score is
    sum_c (O - E)^2 / E, skipping classes with zero expectation. Valid for
    counts and for TFIDF weights alike (non-negative values required).
    """
    if matrix.n_rows == 0:
        raise DataError("cannot score features of an empty matrix")
    if n_classes < 1 or np.any(matrix.row_labels >= n_classes):
        raise DataError("row label out of range for n_classes")
    if matrix.nnz and matrix.data.min() < 0:
        raise DataError("chi-square selection requires non-negative features")
    observed = class_sums(matrix, n_classes)
    class_share = np.bincount(matrix.row_labels, minlength=n_classes) / matrix.n_rows
    feature_totals = observed.sum(axis=0)
    expected = np.outer(class_share, feature_totals)
    nonzero = expected > 0
    contrib = np.where(
        nonzero, (observed - expected) ** 2 / np.where(nonzero, expected, 1.0), 0.0
    )
    return contrib.sum(axis=0)


def select_top_k(scores: np.ndarray, k: int) -> FeatureMask:
    """Keep the k highest-scoring features; ties go to the lower index.

    k larger than the feature count is clamped (with a warning).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if k < 1:
        raise DataError("k must be >= 1")
    if k > scores.size:
        logger.warning("select_top_k: k=%d exceeds %d features; clamping", k, scores.size)
        k = scores.size
    order = np.argsort(-scores, kind="stable")  # stable: equal scores keep index order
    kept = np.sort(order[:k])
    return FeatureMask(kept_indices=kept, scores=scores)


def apply_mask(mask: FeatureMask, matrix: FeatureMatrix) -> FeatureMatrix:
    """Project the matrix onto the mask's features, remapped densely."""
    kept = mask.kept_indices
    hit = np.isin(matrix.indices, kept)
    return _kept_entries(matrix, hit, np.searchsorted(kept, matrix.indices[hit]),
                         matrix.data[hit], matrix.mode, int(kept.size))


def side_documents(
    corpus: Corpus, split: CorpusSplit, side: str
) -> list[TokenizedDocument]:
    """The preprocessed documents of one side ("train" or "test") of `split`.

    The training side shares its token strings (one object per distinct
    token): the fit holds its documents longest, and there most tokens
    repeat.  The test side's documents are dropped once counted, so
    sharing would cost time there and save no memory.

    Ids missing from the corpus, and a side left without a usable document,
    are a DataError.
    """
    ids = split.train_ids if side == "train" else split.test_ids
    result = preprocess(corpus.subset(ids), share_tokens=side == "train")
    if result.excluded:
        logger.warning(
            "%d %s documents were excluded by preprocessing", len(result.excluded), side
        )
    if not result.documents:
        raise DataError(f"no usable documents on the {side} side of the split")
    return result.documents


def fit_features(
    train_docs: Sequence[TokenizedDocument], labels: LabelSet, select_k: int | None
) -> tuple[Vocabulary, FeatureMask | None, FeatureMatrix]:
    """Fit the vocabulary on the training documents and, when `select_k` is
    set, the top-k chi-square mask over their unigram counts.

    Returns the vocabulary, the mask (None without `select_k`) and the
    training documents' count matrix.
    """
    vocab, cells = _fit(train_docs)
    counts = _count_matrix(cells, train_docs, labels, len(vocab))
    if select_k is None:
        return vocab, None, counts
    return vocab, select_top_k(chi2_scores(counts, len(labels)), select_k), counts


def feature_matrix(
    counts: FeatureMatrix, vocab: Vocabulary, mask: FeatureMask | None, mode: str
) -> FeatureMatrix:
    """The `mode` matrix of a count matrix: the counts themselves or their
    TFIDF weights, projected onto the mask's features when there is one.

    The mask applies to the counts first, so only the kept entries are
    weighted: each weight is the same product, and the same exact zeros
    are dropped, as weighting every count and then masking."""
    if mode not in FEATURE_MODES:
        raise DataError(f"unknown feature mode {mode!r}")
    matrix = counts if mask is None else apply_mask(mask, counts)
    return matrix if mode == UNIGRAM else tfidf_from_counts(matrix, vocab, mask)
