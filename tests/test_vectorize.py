"""Sparse feature matrices, vocabulary fitting, TFIDF weights and chi-square selection."""

import json
import math
import random

import numpy as np
import pytest

from pashtext.corpus import LabelSet
from pashtext.errors import DataError
from pashtext.pipeline import TokenizedDocument
from pashtext.vectorize import (
    TFIDF,
    UNIGRAM,
    FeatureMatrix,
    Vocabulary,
    apply_mask,
    build_vocabulary,
    chi2_scores,
    idf_weights,
    select_top_k,
    vectorize_documents,
)


def tdoc(doc_id, tokens, label="a"):
    return TokenizedDocument(id=doc_id, tokens=tuple(tokens), label=label)


def csr(indptr, indices, data, dim, labels=None):
    n = len(indptr) - 1
    labels = [0] * n if labels is None else labels
    return FeatureMatrix(
        np.array(indptr), np.array(indices), np.array(data, dtype=float),
        np.array(labels), UNIGRAM, dim,
    )


def test_sparse_vector_invariants():
    """Every CSR row must hold strictly increasing, in-range, finite entries."""
    ok = csr([0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], 3)
    assert ok.n_rows == 2 and ok.nnz == 3
    # a row boundary may restart the index order; within a row it may not
    with pytest.raises(DataError):
        csr([0, 2], [1, 1], [1.0, 2.0], 3)
    with pytest.raises(DataError):
        csr([0, 2], [2, 1], [1.0, 2.0], 3)
    with pytest.raises(DataError):
        csr([0, 2], [0, 3], [1.0, 2.0], 3)
    with pytest.raises(DataError):
        csr([0, 1], [-1], [1.0], 3)
    with pytest.raises(DataError):
        csr([0, 1], [0], [np.inf], 3)
    with pytest.raises(DataError):
        csr([0, 1], [0], [1.0, 2.0], 3)
    # offsets must start at 0, never decrease and cover every entry
    with pytest.raises(DataError):
        csr([1, 1], [0], [1.0], 3)
    with pytest.raises(DataError):
        csr([0, 2, 1], [0, 1], [1.0, 2.0], 3)
    with pytest.raises(DataError):
        csr([0, 1], [0, 1], [1.0, 2.0], 3)
    with pytest.raises(DataError):
        csr([0, 1], [0], [1.0], 3, labels=[0, 1])
    with pytest.raises(DataError):
        FeatureMatrix(np.array([0]), [], [], [], "bigram", 3)


def test_sparse_vector_round_trips_and_get():
    dense = np.array([[0.0, 2.0, 0.0, -1.5], [0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]])
    m = FeatureMatrix.from_dense(dense, [1, 0, 1])
    assert m.nnz == 3 and m.n_rows == 3 and m.dim == 4
    assert m.indptr.tolist() == [0, 2, 2, 3]
    indices, values = m.row(0)
    assert indices.tolist() == [1, 3] and values.tolist() == [2.0, -1.5]
    assert m.row(1)[0].size == 0
    assert m.row_ids().tolist() == [0, 0, 2]
    assert m.row_labels.tolist() == [1, 0, 1]
    assert np.array_equal(m.to_dense(), dense)
    assert FeatureMatrix.from_dense(dense).row_labels.tolist() == [0, 0, 0]


def test_sparse_dot_matches_dense_sweep():
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.randrange(1, 12)
        n = rng.randrange(1, 5)
        a = [[rng.choice([0.0, 0.0, rng.uniform(-2, 2)]) for _ in range(dim)]
             for _ in range(n)]
        width = rng.randrange(1, 4)
        b = [[rng.uniform(-2, 2) for _ in range(width)] for _ in range(dim)]
        m = FeatureMatrix.from_dense(a)
        assert np.allclose(m.dot(np.array(b)), np.dot(a, b), atol=1e-12)
        squares = (np.asarray(a) ** 2).sum(axis=1)
        assert np.allclose(m.squared_norms(), squares, atol=1e-12)


def test_build_vocabulary_first_occurrence_order():
    docs = [tdoc("1", ["b", "a", "b"]), tdoc("2", ["c", "a"])]
    vocab = build_vocabulary(docs)
    assert vocab.token_to_index == {"b": 0, "a": 1, "c": 2}
    assert vocab.document_frequency.tolist() == [1, 2, 1]
    assert vocab.n_train_docs == 2


def test_build_vocabulary_min_df():
    docs = [tdoc("1", ["a", "b"]), tdoc("2", ["a", "c"])]
    vocab = build_vocabulary(docs, min_df=2)
    assert list(vocab.token_to_index) == ["a"]
    with pytest.raises(DataError, match="empty after filtering"):
        build_vocabulary(docs, min_df=3)
    with pytest.raises(DataError):
        build_vocabulary([], min_df=1)


def test_unigram_vector_counts_and_oov():
    labels = LabelSet(["a"])
    vocab = build_vocabulary([tdoc("1", ["a", "b"]), tdoc("2", ["b", "c"])])
    m = vectorize_documents(
        [tdoc("q", ["b", "a", "b", "zzz"]), tdoc("oov", ["zzz", "yyy"])],
        vocab, UNIGRAM, labels,
    )
    assert m.dim == 3
    dense = m.to_dense()
    assert dense[0, vocab.token_to_index["a"]] == 1.0
    assert dense[0, vocab.token_to_index["b"]] == 2.0
    assert dense[0, vocab.token_to_index["c"]] == 0.0
    assert m.row(1)[0].size == 0 and m.nnz == 2


def test_idf_is_natural_log_of_inverse_df():
    docs = [tdoc("1", ["a", "b"]), tdoc("2", ["b"]), tdoc("3", ["b", "c"])]
    vocab = build_vocabulary(docs)
    idf = idf_weights(vocab)
    assert idf[vocab.token_to_index["a"]] == pytest.approx(math.log(3 / 1), abs=1e-15)
    assert idf[vocab.token_to_index["b"]] == pytest.approx(0.0, abs=1e-15)
    assert idf[vocab.token_to_index["c"]] == pytest.approx(math.log(3 / 1), abs=1e-15)


def test_tfidf_prunes_zero_weights():
    docs = [tdoc("1", ["a", "b"]), tdoc("2", ["b"])]
    vocab = build_vocabulary(docs)
    weighted = vectorize_documents(
        [tdoc("q", ["a", "b", "b"])], vocab, TFIDF, LabelSet(["a"])
    )
    # "b" appears in every training doc, so its idf (and weight) is 0.
    assert weighted.to_dense()[0, vocab.token_to_index["b"]] == 0.0
    assert vocab.token_to_index["b"] not in weighted.indices.tolist()
    assert weighted.to_dense()[0, vocab.token_to_index["a"]] == pytest.approx(
        1.0 * math.log(2.0), abs=1e-12
    )


def test_vectorize_documents_modes_and_labels():
    labels = LabelSet(["x", "y"])
    docs = [tdoc("1", ["a", "a", "b"], "x"), tdoc("2", ["b"], "y")]
    vocab = build_vocabulary(docs)
    counts = vectorize_documents(docs, vocab, UNIGRAM, labels)
    assert counts.mode == UNIGRAM
    assert counts.row_labels.tolist() == [0, 1]
    assert counts.to_dense()[0, vocab.token_to_index["a"]] == 2.0
    weighted = vectorize_documents(docs, vocab, TFIDF, labels)
    assert weighted.mode == TFIDF
    with pytest.raises(DataError):
        vectorize_documents(docs, vocab, "bigram", labels)


def test_chi2_worked_examples():
    # Two docs, one per class. Feature present with weight 2 in class 0:
    # O = (2, 0), E = (1, 1), score = (2-1)^2/1 + (0-1)^2/1 = 2.
    m = FeatureMatrix.from_dense([[2.0], [0.0]], [0, 1])
    assert chi2_scores(m, 2)[0] == pytest.approx(2.0, abs=1e-12)
    # O = (1, 0), E = (0.5, 0.5) -> 1.0
    m = FeatureMatrix.from_dense([[1.0], [0.0]], [0, 1])
    assert chi2_scores(m, 2)[0] == pytest.approx(1.0, abs=1e-12)
    # A feature absent everywhere has E = 0 for every class: score 0.
    m = FeatureMatrix.from_dense([[0.0, 1.0], [0.0, 1.0]], [0, 1])
    assert chi2_scores(m, 2)[0] == 0.0


def brute_force_chi2(dense, labels, n_classes):
    n, dim = dense.shape
    scores = []
    for j in range(dim):
        total = sum(dense[i][j] for i in range(n))
        score = 0.0
        for c in range(n_classes):
            observed = sum(dense[i][j] for i in range(n) if labels[i] == c)
            n_c = sum(1 for lab in labels if lab == c)
            expected = (n_c / n) * total
            if expected > 0:
                score += (observed - expected) ** 2 / expected
        scores.append(score)
    return scores


def test_chi2_matches_brute_force_sweep():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(2, 8)
        dim = rng.randrange(1, 5)
        n_classes = rng.randrange(2, 4)
        labels = [rng.randrange(n_classes) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0] = 0
            labels[1] = 1
        dense = np.array(
            [[rng.choice([0.0, 0.0, 1.0, 2.0]) for _ in range(dim)] for _ in range(n)]
        )
        m = FeatureMatrix.from_dense(dense, labels)
        expected = brute_force_chi2(dense, labels, n_classes)
        assert np.allclose(chi2_scores(m, n_classes), expected, atol=1e-12)


def test_chi2_rejects_negative_values_and_bad_labels():
    m = FeatureMatrix.from_dense([[-1.0], [1.0]], [0, 1])
    with pytest.raises(DataError):
        chi2_scores(m, 2)
    ok = FeatureMatrix.from_dense([[1.0]], [1])
    with pytest.raises(DataError):
        chi2_scores(ok, 1)


def test_select_top_k_stable_ties_and_clamp(caplog):
    scores = np.array([1.0, 3.0, 3.0, 0.5])
    mask = select_top_k(scores, 2)
    # the two 3.0 scores win; ties keep the lower index first
    assert mask.kept_indices.tolist() == [1, 2]
    mask = select_top_k(scores, 3)
    assert mask.kept_indices.tolist() == [0, 1, 2]
    with caplog.at_level("WARNING"):
        mask = select_top_k(scores, 10)
    assert mask.kept_indices.tolist() == [0, 1, 2, 3]
    assert any("clamping" in r.message for r in caplog.records)
    with pytest.raises(DataError):
        select_top_k(scores, 0)


def test_apply_mask_matches_dense_slicing():
    rng = random.Random(4)
    for _ in range(50):
        dim = rng.randrange(2, 10)
        n = rng.randrange(1, 6)
        dense = np.array(
            [[rng.choice([0.0, 0.0, rng.uniform(0, 3)]) for _ in range(dim)]
             for _ in range(n)]
        )
        m = FeatureMatrix.from_dense(dense)
        k = rng.randrange(1, dim + 1)
        scores = np.array([rng.random() for _ in range(dim)])
        mask = select_top_k(scores, k)
        masked = apply_mask(mask, m)
        assert masked.dim == k
        assert np.array_equal(masked.to_dense(), dense[:, mask.kept_indices])
        assert masked.row_labels.tolist() == m.row_labels.tolist()


def test_vocabulary_round_trip_and_validation(tmp_path):
    docs = [tdoc("1", ["الف", "ب"]), tdoc("2", ["ب"])]
    vocab = build_vocabulary(docs)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.token_to_index == vocab.token_to_index
    assert loaded.document_frequency.tolist() == vocab.document_frequency.tolist()
    assert loaded.n_train_docs == vocab.n_train_docs
    with pytest.raises(DataError):
        Vocabulary({"a": 0, "b": 2}, np.array([1, 1]), 2)
    with pytest.raises(DataError):
        Vocabulary({"a": 0}, np.array([5]), 2)
    # malformed files fail as data errors, not as KeyError/TypeError
    for payload in ({"n_train_docs": 2}, {"entries": []}, {"entries": [["a", 0]],
                    "n_train_docs": 1}, {"entries": 5, "n_train_docs": 1}):
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="malformed vocabulary"):
            Vocabulary.load(path)
