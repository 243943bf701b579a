"""Sparse feature matrices, vocabulary fitting, TFIDF weights and chi-square selection."""

import json
import math
import random
from itertools import chain

import numpy as np
import pytest
from matrices import assert_same_bits, column_cases, matrix_from_dense

from pashtext.corpus import Corpus, CorpusSplit, Document, LabelSet, stratified_split
from pashtext.errors import DataError
from pashtext.pipeline import TokenizedDocument, preprocess
from pashtext.synth import generate_corpus
from pashtext.vectorize import (
    FEATURE_MODES,
    TFIDF,
    UNIGRAM,
    FeatureMatrix,
    Vocabulary,
    _indptr,
    apply_mask,
    build_vocabulary,
    chi2_scores,
    feature_matrix,
    fit_features,
    idf_weights,
    select_top_k,
    side_documents,
    tfidf_from_counts,
    vectorize_documents,
)

TRAIN, TEST = "train", "test"


def one_side(ids, side):
    """A split with `ids` on `side` and none on the other."""
    ids = tuple(ids)
    return CorpusSplit(0.5, 0, ids if side == TRAIN else (), ids if side == TEST else ())


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
    m = matrix_from_dense(dense, [1, 0, 1])
    assert m.nnz == 3 and m.n_rows == 3 and m.dim == 4
    assert m.indptr.tolist() == [0, 2, 2, 3]
    indices, values = m.row(0)
    assert indices.tolist() == [1, 3] and values.tolist() == [2.0, -1.5]
    assert m.row(1)[0].size == 0
    assert m.row_ids().tolist() == [0, 0, 2]
    assert m.row_labels.tolist() == [1, 0, 1]
    assert np.array_equal(m.to_dense(), dense)
    assert matrix_from_dense(dense).row_labels.tolist() == [0, 0, 0]


def test_sparse_dot_matches_dense_sweep():
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.randrange(1, 12)
        n = rng.randrange(1, 5)
        a = [[rng.choice([0.0, 0.0, rng.uniform(-2, 2)]) for _ in range(dim)]
             for _ in range(n)]
        width = rng.randrange(1, 4)
        b = [[rng.uniform(-2, 2) for _ in range(width)] for _ in range(dim)]
        m = matrix_from_dense(a)
        assert np.allclose(m.dot(np.array(b)), np.dot(a, b), atol=1e-12)
        squares = (np.asarray(a) ** 2).sum(axis=1)
        assert np.allclose(m.squared_norms(), squares, atol=1e-12)


def test_build_vocabulary_first_occurrence_order():
    docs = [tdoc("1", ["b", "a", "b"]), tdoc("2", ["c", "a"])]
    vocab = build_vocabulary(docs)
    assert vocab.token_to_index == {"b": 0, "a": 1, "c": 2}
    assert vocab.document_frequency.tolist() == [1, 2, 1]
    assert vocab.n_train_docs == 2
    rng = random.Random(5)
    for _ in range(50):
        docs = [
            tdoc(str(i), [rng.choice("abcdefgh") for _ in range(rng.randrange(0, 6))])
            for i in range(rng.randrange(1, 6))
        ]
        if not any(doc.tokens for doc in docs):
            continue
        order = []
        for token in (token for doc in docs for token in doc.tokens):
            if token not in order:
                order.append(token)
        vocab = build_vocabulary(docs)
        assert list(vocab.token_to_index) == order
        assert list(vocab.token_to_index.values()) == list(range(len(order)))
        assert vocab.document_frequency.tolist() == [
            sum(token in doc.tokens for doc in docs) for token in order
        ]


def test_build_vocabulary_rejects_empty_input():
    with pytest.raises(DataError, match="zero documents"):
        build_vocabulary([])
    with pytest.raises(DataError, match="without tokens"):
        build_vocabulary([tdoc("1", []), tdoc("2", [])])


def test_unigram_vector_counts_and_oov():
    labels = LabelSet(["a"])
    vocab = build_vocabulary([tdoc("1", ["a", "b"]), tdoc("2", ["b", "c"])])
    m = vectorize_documents(
        [tdoc("q", ["b", "a", "b", "zzz"]), tdoc("oov", ["zzz", "yyy"])], vocab, labels
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
    weighted = tfidf_from_counts(
        vectorize_documents([tdoc("q", ["a", "b", "b"])], vocab, LabelSet(["a"])), vocab
    )
    # "b" appears in every training doc, so its idf (and weight) is 0.
    assert weighted.to_dense()[0, vocab.token_to_index["b"]] == 0.0
    assert vocab.token_to_index["b"] not in weighted.indices.tolist()
    assert weighted.to_dense()[0, vocab.token_to_index["a"]] == pytest.approx(
        1.0 * math.log(2.0), abs=1e-12
    )


def test_vectorize_documents_counts_and_feature_matrix_modes():
    labels = LabelSet(["x", "y"])
    docs = [tdoc("1", ["a", "a", "b"], "x"), tdoc("2", ["b"], "y")]
    vocab = build_vocabulary(docs)
    counts = vectorize_documents(docs, vocab, labels)
    assert counts.mode == UNIGRAM
    assert counts.row_labels.tolist() == [0, 1]
    assert counts.to_dense()[0, vocab.token_to_index["a"]] == 2.0
    assert feature_matrix(counts, vocab, None, UNIGRAM) is counts
    weighted = feature_matrix(counts, vocab, None, TFIDF)
    assert weighted.mode == TFIDF
    with pytest.raises(DataError, match="^unknown feature mode 'bigram'$"):
        feature_matrix(counts, vocab, None, "bigram")


def test_chi2_worked_examples():
    # Two docs, one per class. Feature present with weight 2 in class 0:
    # O = (2, 0), E = (1, 1), score = (2-1)^2/1 + (0-1)^2/1 = 2.
    m = matrix_from_dense([[2.0], [0.0]], [0, 1])
    assert chi2_scores(m, 2)[0] == pytest.approx(2.0, abs=1e-12)
    # O = (1, 0), E = (0.5, 0.5) -> 1.0
    m = matrix_from_dense([[1.0], [0.0]], [0, 1])
    assert chi2_scores(m, 2)[0] == pytest.approx(1.0, abs=1e-12)
    # A feature absent everywhere has E = 0 for every class: score 0.
    m = matrix_from_dense([[0.0, 1.0], [0.0, 1.0]], [0, 1])
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
        m = matrix_from_dense(dense, labels)
        expected = brute_force_chi2(dense, labels, n_classes)
        assert np.allclose(chi2_scores(m, n_classes), expected, atol=1e-12)


def test_chi2_rejects_negative_values_and_bad_labels():
    m = matrix_from_dense([[-1.0], [1.0]], [0, 1])
    with pytest.raises(DataError):
        chi2_scores(m, 2)
    ok = matrix_from_dense([[1.0]], [1])
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
        m = matrix_from_dense(dense)
        k = rng.randrange(1, dim + 1)
        scores = np.array([rng.random() for _ in range(dim)])
        mask = select_top_k(scores, k)
        masked = apply_mask(mask, m)
        assert masked.dim == k
        assert np.array_equal(masked.to_dense(), dense[:, mask.kept_indices])
        assert masked.row_labels.tolist() == m.row_labels.tolist()


def test_column_blocks_are_the_dense_columns_in_blocks_of_two_or_more():
    """Blocks are read from the column view alone, bit for bit the dense
    columns; each but the last is `budget // n_rows` columns wide (at least
    two), and a lone last column joins the block before it."""
    rng = np.random.default_rng(53)
    lone = 0
    for _ in range(300):
        matrix, _ = column_cases(rng)
        n, dim = matrix.n_rows, matrix.dim
        budget = n * int(rng.integers(0, dim + 2)) + int(rng.integers(n))
        width = max(2, budget // n)
        blocks = list(matrix.column_blocks(budget))
        widths = [columns.stop - columns.start for columns, _ in blocks]
        assert [columns.start for columns, _ in blocks] == np.cumsum([0] + widths[:-1]).tolist()
        assert sum(widths) == dim and set(widths[:-1]) <= {width}
        assert min(2, dim) <= widths[-1] <= width + 1
        lone += widths[-1] == width + 1
        dense = matrix.to_dense()
        for columns, block in blocks:
            assert_same_bits(block, np.ascontiguousarray(dense[:, columns]))
    assert lone >= 20


def test_vocabulary_round_trip_and_validation():
    docs = [tdoc("1", ["الف", "ب"]), tdoc("2", ["ب"])]
    vocab = build_vocabulary(docs)
    loaded = Vocabulary.from_json_dict(json.loads(json.dumps(vocab.to_json_dict())))
    assert loaded.token_to_index == vocab.token_to_index
    assert loaded.document_frequency.tolist() == vocab.document_frequency.tolist()
    assert loaded.n_train_docs == vocab.n_train_docs
    with pytest.raises(DataError):
        Vocabulary({"a": 0, "b": 2}, np.array([1, 1]), 2)
    with pytest.raises(DataError):
        Vocabulary({"a": 0}, np.array([5]), 2)
    # Indices follow the tokens' order, in the dict and in a saved payload.
    with pytest.raises(DataError, match="0, 1, ..., V-1 in token order"):
        Vocabulary({"b": 1, "a": 0}, np.array([1, 1]), 2)
    with pytest.raises(DataError, match="0, 1, ..., V-1 in token order"):
        Vocabulary.from_json_dict({"entries": [["b", 1, 1], ["a", 0, 2]], "n_train_docs": 2})
    # malformed payloads fail as data errors, not as KeyError/TypeError
    for payload in ({"n_train_docs": 2}, {"entries": []}, {"entries": [["a", 0]],
                    "n_train_docs": 1}, {"entries": 5, "n_train_docs": 1}):
        with pytest.raises(DataError, match="malformed vocabulary"):
            Vocabulary.from_json_dict(payload)


# The per-token vocabulary loop, per-mode vectorizer and per-mode split path
# that one document-frequency count and one count matrix per split side
# replaced, kept verbatim as references.
def reference_build_vocabulary(train_docs):
    df = {}
    for doc in train_docs:
        for token in dict.fromkeys(doc.tokens):
            df[token] = df.get(token, 0) + 1
    return Vocabulary(
        token_to_index={token: index for index, token in enumerate(df)},
        document_frequency=np.fromiter(df.values(), dtype=np.int64, count=len(df)),
        n_train_docs=len(train_docs),
    )


def reference_vectorize_documents(docs, vocab, mode, labels):
    lookup = vocab.token_to_index
    dim = len(vocab)
    found = [[lookup[token] for token in doc.tokens if token in lookup] for doc in docs]
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), [len(f) for f in found])
    columns = np.fromiter(chain.from_iterable(found), dtype=np.int64, count=rows.size)
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


def reference_split_features(corpus, split, modes, sides=(TRAIN, TEST), select_k=None,
                             vocab=None, mask=None):
    needed = set(sides) if vocab is not None else {TRAIN, *sides}
    docs = {}
    for side, ids in ((TRAIN, split.train_ids), (TEST, split.test_ids)):
        if side not in needed:
            continue
        docs[side] = preprocess(Corpus(corpus.subset(ids).documents, corpus.labels)).documents
    if vocab is None:
        vocab = reference_build_vocabulary(docs[TRAIN])
        if select_k is not None:
            counts = reference_vectorize_documents(docs[TRAIN], vocab, UNIGRAM, corpus.labels)
            mask = select_top_k(chi2_scores(counts, len(corpus.labels)), select_k)
    matrices = {TRAIN: {}, TEST: {}}
    for side in sides:
        for mode in modes:
            matrix = reference_vectorize_documents(docs[side], vocab, mode, corpus.labels)
            matrices[side][mode] = matrix if mask is None else apply_mask(mask, matrix)
    return vocab, mask, matrices


def assert_same_matrix(got, expected):
    for name in ("indptr", "indices", "data", "row_labels"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.mode, got.dim) == (expected.mode, expected.dim)


def test_vocabulary_and_matrices_match_the_per_mode_reference():
    """Random documents, with one token in every training document (idf 0,
    so dropped from TFIDF) and unseen tokens on the test side."""
    rng = random.Random(5)
    labels = LabelSet(["x", "y", "z"])
    for case in range(60):
        alphabet = [f"t{i}" for i in range(rng.randrange(1, 30))]

        def docs(n, extra):
            return [
                tdoc(f"{case}-{i}", [rng.choice(alphabet) for _ in range(rng.randrange(0, 12))]
                     + extra, rng.choice(labels.names))
                for i in range(n)
            ]

        train_docs = docs(rng.randrange(1, 20), ["common"] * rng.randrange(1, 3))
        test_docs = docs(rng.randrange(0, 10), ["unseen", "common"][: rng.randrange(0, 3)])
        vocab = build_vocabulary(train_docs)
        expected_vocab = reference_build_vocabulary(train_docs)
        assert list(vocab.token_to_index.items()) == list(expected_vocab.token_to_index.items())
        assert vocab.document_frequency.tobytes() == expected_vocab.document_frequency.tobytes()
        assert idf_weights(vocab)[vocab.token_to_index["common"]] == 0.0
        for side in (train_docs, test_docs):
            counts = vectorize_documents(side, vocab, labels)
            assert_same_matrix(counts, reference_vectorize_documents(side, vocab, UNIGRAM, labels))
            expected = reference_vectorize_documents(side, vocab, TFIDF, labels)
            assert_same_matrix(tfidf_from_counts(counts, vocab), expected)
            assert vocab.token_to_index["common"] not in expected.indices


@pytest.mark.parametrize(
    "tokens",
    [
        pytest.param([["b", "a", "b", "b"], ["a", "a"], ["c", "b", "c"]], id="repeats"),
        pytest.param([["a", "b"], ["c"], ["d", "e", "f"]], id="disjoint"),
        pytest.param([["a"]], id="one-token"),
        pytest.param([["a"], ["a"], ["a", "a"]], id="one-distinct-token"),
        pytest.param([[], ["b", "a"], [], ["a", "c", "c"], []], id="empty-documents"),
    ],
)
@pytest.mark.parametrize("select_k", [None, 2])
def test_fit_features_matches_the_reference_fit(tokens, select_k):
    """One token pass gives the reference vocabulary, in order, with its
    document frequencies and count matrix bit-equal; `build_vocabulary` is
    that pass."""
    labels = LabelSet(["x", "y"])
    docs = [tdoc(str(i), doc, labels.names[i % 2]) for i, doc in enumerate(tokens)]
    vocab, mask, counts = fit_features(docs, labels, select_k)
    expected = reference_build_vocabulary(docs)
    expected_counts = reference_vectorize_documents(docs, expected, UNIGRAM, labels)
    for fitted in (vocab, build_vocabulary(docs)):
        assert list(fitted.token_to_index.items()) == list(expected.token_to_index.items())
        assert fitted.document_frequency.dtype == expected.document_frequency.dtype
        assert fitted.document_frequency.tobytes() == expected.document_frequency.tobytes()
        assert fitted.n_train_docs == expected.n_train_docs
    assert_same_matrix(counts, expected_counts)
    if select_k is None:
        assert mask is None
    else:
        expected_mask = select_top_k(chi2_scores(expected_counts, len(labels)), select_k)
        assert mask.kept_indices.tolist() == expected_mask.kept_indices.tolist()
        assert mask.scores.tobytes() == expected_mask.scores.tobytes()


@pytest.mark.parametrize("select_k", [None, 1, 15, 10**6])
def test_split_features_matches_the_per_mode_reference(select_k):
    """`side_documents`, `fit_features` and `feature_matrix`, composed as the
    `grid`, `train` and `evaluate` commands compose them."""
    corpus = generate_corpus(3, 12, noise_rate=0.6, seed=3)
    split = stratified_split(corpus, 0.75, 4)
    docs = {side: side_documents(corpus, split, side) for side in (TRAIN, TEST)}
    vocab, mask, train_counts = fit_features(docs[TRAIN], corpus.labels, select_k)
    counts = {TRAIN: train_counts,
              TEST: vectorize_documents(docs[TEST], vocab, corpus.labels)}
    # the mask is scored on the train side's unigram counts
    assert_same_matrix(train_counts, reference_vectorize_documents(
        docs[TRAIN], vocab, UNIGRAM, corpus.labels))
    for modes in (FEATURE_MODES, [TFIDF], [UNIGRAM]):
        for sides in ((TRAIN, TEST), (TRAIN,), (TEST,)):
            expected_vocab, expected_mask, expected = reference_split_features(
                corpus, split, modes, sides, select_k)
            assert vocab.to_json_dict() == expected_vocab.to_json_dict()
            if select_k is None:
                assert mask is None and expected_mask is None
            else:
                assert mask.kept_indices.tolist() == expected_mask.kept_indices.tolist()
                assert mask.scores.tobytes() == expected_mask.scores.tobytes()
            # the evaluate path: a fitted vocabulary and mask, the test side only
            _, _, expected_fitted = reference_split_features(
                corpus, split, modes, [TEST], vocab=expected_vocab, mask=expected_mask)
            fitted_counts = vectorize_documents(
                side_documents(corpus, split, TEST), expected_vocab, corpus.labels)
            for mode in modes:
                for side in sides:
                    assert_same_matrix(feature_matrix(counts[side], vocab, mask, mode),
                                       expected[side][mode])
                assert_same_matrix(
                    feature_matrix(fitted_counts, expected_vocab, expected_mask, mode),
                    expected_fitted[TEST][mode])


def test_side_documents_errors_and_warning_name_the_side(caplog):
    """Unknown ids and empty sides are data errors naming the side, and the
    exclusion warning names the side.  A split cannot repeat an id, but
    `Corpus.subset` still refuses one by name."""
    corpus = Corpus(
        [Document(id="a", text="کلمه متن", label="x"),
         Document(id="latin", text="only latin 123", label="x")],
        LabelSet(["x"]),
    )
    with caplog.at_level("WARNING"):
        kept = side_documents(corpus, one_side(["a", "latin"], TRAIN), TRAIN)
    assert [doc.id for doc in kept] == ["a"]
    assert "1 train documents were excluded by preprocessing" in caplog.text
    with pytest.raises(DataError, match="^no usable documents on the test side of the split$"):
        side_documents(corpus, one_side(["latin"], TEST), TEST)
    with pytest.raises(DataError, match="ghost"):
        side_documents(corpus, one_side(["a", "ghost"], TRAIN), TRAIN)
    with pytest.raises(DataError, match="^duplicate document id 'a'$"):
        corpus.subset(["a", "a"])


def test_training_side_holds_one_string_per_distinct_token():
    """The training side's documents share one string object per distinct
    token; the test side keeps `str.split`'s strings, and the two forms of
    the same documents are equal."""
    corpus = generate_corpus(3, 12, noise_rate=0.6, seed=3)
    ids = [doc.id for doc in corpus.documents]
    train = side_documents(corpus, one_side(ids, TRAIN), TRAIN)
    test = side_documents(corpus, one_side(ids, TEST), TEST)
    assert train == test
    for side, shared in ((train, True), (test, False)):
        tokens = list(chain.from_iterable(doc.tokens for doc in side))
        assert len(tokens) > 2 * len(set(tokens))  # the documents repeat tokens
        assert (len({id(token) for token in tokens}) == len(set(tokens))) is shared
