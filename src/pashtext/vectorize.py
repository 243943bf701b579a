"""Vocabulary building, unigram/TFIDF sparse matrices, chi-square selection.

Everything here is fitted on training documents only. Transforming a test
document never mutates the vocabulary; unseen tokens are simply dropped.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusSplit, LabelSet
from .errors import DataError
from .pipeline import PipelineConfig, TokenizedDocument, preprocess

logger = logging.getLogger(__name__)

UNIGRAM = "unigram"
TFIDF = "tfidf"
FEATURE_MODES = (UNIGRAM, TFIDF)


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

    @classmethod
    def from_dense(cls, dense, row_labels=None) -> "FeatureMatrix":
        """Unigram matrix of the nonzero entries of a 2-D array (labels default to 0)."""
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        if row_labels is None:
            row_labels = np.zeros(dense.shape[0], dtype=np.int64)
        return cls(
            _indptr(rows, dense.shape[0]), cols, dense[rows, cols], row_labels,
            UNIGRAM, dense.shape[1],
        )

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
    first-occurrence order.
    """

    token_to_index: dict[str, int]
    document_frequency: np.ndarray  # int64 per index, each >= 1
    n_train_docs: int

    def __post_init__(self):
        self.document_frequency = np.asarray(self.document_frequency, dtype=np.int64)
        size = len(self.token_to_index)
        if sorted(self.token_to_index.values()) != list(range(size)):
            raise DataError("vocabulary indices must be dense in [0, V)")
        if self.document_frequency.size != size:
            raise DataError("document_frequency length must equal vocabulary size")
        if size and (
            self.document_frequency.min() < 1
            or self.document_frequency.max() > self.n_train_docs
        ):
            raise DataError("document frequencies must lie in [1, n_train_docs]")

    def __len__(self) -> int:
        return len(self.token_to_index)

    def save(self, path: str | Path) -> None:
        payload = self.to_json_dict()
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )

    def to_json_dict(self) -> dict:
        entries = sorted(self.token_to_index.items(), key=lambda kv: kv[1])
        return {
            "n_train_docs": self.n_train_docs,
            "entries": [
                [token, index, int(self.document_frequency[index])]
                for token, index in entries
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Vocabulary":
        try:
            entries = payload["entries"]
            token_to_index = {token: int(index) for token, index, _ in entries}
            df = np.zeros(len(entries), dtype=np.int64)
            for _, index, count in entries:
                df[int(index)] = int(count)
            n_train_docs = int(payload["n_train_docs"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DataError(
                f"malformed vocabulary: {type(exc).__name__}: {exc}"
            ) from None
        return cls(
            token_to_index=token_to_index,
            document_frequency=df,
            n_train_docs=n_train_docs,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read vocabulary {path}: {exc}") from None
        return cls.from_json_dict(payload)


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


def build_vocabulary(
    train_docs: Sequence[TokenizedDocument], min_df: int = 1
) -> Vocabulary:
    """Collect tokens appearing in at least `min_df` training documents.

    Index order is first-occurrence order (document order, then token order
    within the document).
    """
    if not train_docs:
        raise DataError("cannot build a vocabulary from zero documents")
    if min_df < 1:
        raise DataError("min_df must be >= 1")
    df: dict[str, int] = {}
    for doc in train_docs:
        for token in dict.fromkeys(doc.tokens):  # distinct, first-occurrence order
            df[token] = df.get(token, 0) + 1
    kept = {token for token, count in df.items() if count >= min_df}
    if not kept:
        raise DataError(
            f"vocabulary is empty after filtering at min_df={min_df}"
        )
    token_to_index: dict[str, int] = {}
    for doc in train_docs:
        for token in doc.tokens:
            if token in kept and token not in token_to_index:
                token_to_index[token] = len(token_to_index)
    frequencies = np.zeros(len(token_to_index), dtype=np.int64)
    for token, index in token_to_index.items():
        frequencies[index] = df[token]
    return Vocabulary(
        token_to_index=token_to_index,
        document_frequency=frequencies,
        n_train_docs=len(train_docs),
    )


def idf_weights(vocab: Vocabulary) -> np.ndarray:
    """Natural-log inverse document frequency: ln(n_train_docs / df)."""
    return np.log(vocab.n_train_docs / vocab.document_frequency.astype(np.float64))


def vectorize_documents(
    docs: Sequence[TokenizedDocument],
    vocab: Vocabulary,
    mode: str,
    labels: LabelSet,
) -> FeatureMatrix:
    """Build the unigram or TFIDF matrix for a document sequence.

    Unigram values are raw occurrence counts; TFIDF multiplies each count by
    its idf and drops the entries that become exactly zero.  Tokens outside
    the vocabulary are ignored.
    """
    if mode not in FEATURE_MODES:
        raise DataError(f"unknown feature mode {mode!r}")
    lookup = vocab.token_to_index
    dim = len(vocab)
    found = [[lookup[token] for token in doc.tokens if token in lookup] for doc in docs]
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), [len(f) for f in found])
    columns = np.fromiter(chain.from_iterable(found), dtype=np.int64, count=rows.size)
    # One sorted (row, column) key per distinct cell gives CSR order directly.
    keys, counts = np.unique(rows * dim + columns, return_counts=True)
    cell_rows, indices = np.divmod(keys, max(dim, 1))
    values = counts.astype(np.float64)
    if mode == TFIDF:
        values = values * idf_weights(vocab)[indices]
        keep = values != 0.0
        cell_rows, indices, values = cell_rows[keep], indices[keep], values[keep]
    return FeatureMatrix(
        indptr=_indptr(cell_rows, len(docs)),
        indices=indices,
        data=values,
        row_labels=np.array([labels.index(doc.label) for doc in docs], dtype=np.int64),
        mode=mode,
        dim=dim,
    )


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
    hits_before = np.concatenate(([0], np.cumsum(hit)))
    return FeatureMatrix(
        indptr=hits_before[matrix.indptr],
        indices=np.searchsorted(kept, matrix.indices[hit]),
        data=matrix.data[hit],
        row_labels=matrix.row_labels.copy(),
        mode=matrix.mode,
        dim=int(kept.size),
    )


TRAIN = "train"
TEST = "test"


@dataclass
class SplitFeatures:
    """Vocabulary, optional mask, and each requested side's matrix per mode."""

    vocab: Vocabulary
    mask: FeatureMask | None
    train: dict[str, FeatureMatrix]
    test: dict[str, FeatureMatrix]


def split_features(
    corpus: Corpus,
    split: CorpusSplit,
    config: PipelineConfig,
    modes: Sequence[str],
    sides: Sequence[str] = (TRAIN, TEST),
    select_k: int | None = None,
    vocab: Vocabulary | None = None,
    mask: FeatureMask | None = None,
) -> SplitFeatures:
    """Turn split ids into a vocabulary, an optional mask and feature matrices.

    Only the sides that are needed are looked up (ids missing from the corpus
    are a DataError) and preprocessed.  Without a fitted `vocab`, the
    vocabulary (and, when `select_k` is set, the top-k chi-square mask over
    unigram counts) is fitted on the train side.  Every requested side is
    then vectorized in every requested mode and masked.
    """
    needed = set(sides) if vocab is not None else {TRAIN, *sides}
    docs = {}
    for side, ids in ((TRAIN, split.train_ids), (TEST, split.test_ids)):
        if side not in needed:
            continue
        result = preprocess(Corpus(corpus.subset(ids), corpus.labels), config)
        if result.excluded:
            logger.warning(
                "%d %s documents were excluded by preprocessing",
                len(result.excluded), side,
            )
        if not result.documents:
            raise DataError(f"no usable documents on the {side} side of the split")
        docs[side] = result.documents
    if vocab is None:
        vocab = build_vocabulary(docs[TRAIN])
        if select_k is not None:
            counts = vectorize_documents(docs[TRAIN], vocab, UNIGRAM, corpus.labels)
            mask = select_top_k(chi2_scores(counts, len(corpus.labels)), select_k)
    matrices: dict[str, dict[str, FeatureMatrix]] = {TRAIN: {}, TEST: {}}
    for side in sides:
        for mode in modes:
            matrix = vectorize_documents(docs[side], vocab, mode, corpus.labels)
            matrices[side][mode] = matrix if mask is None else apply_mask(mask, matrix)
    return SplitFeatures(vocab, mask, matrices[TRAIN], matrices[TEST])
