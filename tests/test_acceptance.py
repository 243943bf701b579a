"""Acceptance gate for the toolkit.

Eight criteria, each with a pinned tolerance and (where stated) a time
budget.  Every test prints one CRITERION line on success, and `pytest -v`
shows one pass/fail line per criterion via the test names.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from pashtext.cli import main as cli_main
from pashtext.corpus import Corpus, Document, LabelSet, SplitSpec, stratified_split
from pashtext.metrics import evaluate_predictions
from pashtext.models import (
    DecisionTreeParams,
    KNNParams,
    LinearParams,
    MLPParams,
    ModelKind,
    MultinomialNBParams,
    GaussianNBParams,
    RandomForestParams,
    train,
    train_decision_tree,
    train_gaussian_nb,
    train_multinomial_nb,
    train_random_forest,
)
from pashtext.models.linear import logistic_loss_and_grads, svm_loss_and_grads
from pashtext.models.mlp import init_mlp, mlp_loss_and_grads
from pashtext.pipeline import (
    PASHTO_DEFAULT,
    TokenizedDocument,
    preprocess,
    preprocess_text,
)
from pashtext.synth import generate_corpus
from pashtext.vectorize import (
    TFIDF,
    UNIGRAM,
    FeatureMatrix,
    build_vocabulary,
    chi2_scores,
    vectorize_documents,
)

matrix_from_dense = FeatureMatrix.from_dense


# --------------------------------------------------------------------------
# Criterion 1: TFIDF worked-example oracle, tolerance 1e-9, < 1 s


def test_criterion_1_tfidf_oracle():
    started = time.perf_counter()
    texts = [
        "سهار مو په خير",
        "خير دى. وړخ مو په خير",
        "ښه قسمت درته غواړم",
    ]
    corpus = Corpus(
        [Document(id=f"t{i}", text=t, label="a") for i, t in enumerate(texts)],
        LabelSet(["a"]),
    )
    result = preprocess(corpus, PASHTO_DEFAULT)
    assert not result.excluded
    vocab = build_vocabulary(result.documents)
    target = "خير"
    assert target in vocab.token_to_index
    assert int(vocab.document_frequency[vocab.token_to_index[target]]) == 2
    matrix = vectorize_documents(result.documents, vocab, TFIDF, corpus.labels)
    weights = matrix.to_dense()[:, vocab.token_to_index[target]].tolist()
    expected_single = 1.0 * math.log(3.0 / 2.0)  # 0.405465...
    expected_double = 2.0 * math.log(3.0 / 2.0)  # 0.810930...
    assert weights[0] == pytest.approx(expected_single, abs=1e-9)
    assert weights[1] == pytest.approx(expected_double, abs=1e-9)
    assert weights[2] == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: TFIDF worked-example weights match tf*ln(3/2) "
          f"within 1e-9 ({elapsed:.3f}s < 1s)")


# --------------------------------------------------------------------------
# Criterion 2: metrics vs brute-force counting on 1,000 random prediction
# sets, agreement within 1e-12, < 10 s


def brute_metrics(truth, preds, label_count):
    per_class = []
    for c in range(label_count):
        tp = sum(1 for t, p in zip(truth, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truth, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truth, preds) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_class.append((precision, recall, f1, sum(1 for t in truth if t == c)))
    macro = tuple(sum(m[i] for m in per_class) / label_count for i in range(3))
    total = sum(m[3] for m in per_class)
    weighted = tuple(sum(m[i] * m[3] for m in per_class) / total for i in range(3))
    accuracy = sum(1 for t, p in zip(truth, preds) if t == p) / len(truth)
    return per_class, macro, weighted, accuracy


def test_criterion_2_metric_oracle():
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        label_count = rng.randrange(2, 6)  # K <= 5
        n = rng.randrange(1, 51)  # n <= 50
        truth = [rng.randrange(label_count) for _ in range(n)]
        preds = [rng.randrange(label_count) for _ in range(n)]
        report = evaluate_predictions(truth, preds, label_count)
        per_class, macro, weighted, accuracy = brute_metrics(
            truth, preds, label_count
        )
        for c, (precision, recall, f1, support) in enumerate(per_class):
            got = report.per_class[c]
            assert abs(got.precision - precision) <= 1e-12
            assert abs(got.recall - recall) <= 1e-12
            assert abs(got.f1 - f1) <= 1e-12
            assert got.support == support
        for got, expected in (
            (report.macro, macro),
            (report.weighted, weighted),
        ):
            assert abs(got.precision - expected[0]) <= 1e-12
            assert abs(got.recall - expected[1]) <= 1e-12
            assert abs(got.f1 - expected[2]) <= 1e-12
        assert abs(report.accuracy - accuracy) <= 1e-12
        assert abs(report.weighted.recall - report.accuracy) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"CRITERION 2 PASS: 1000 random metric sets match brute-force "
          f"counting within 1e-12 ({elapsed:.2f}s < 10s)")


# --------------------------------------------------------------------------
# Criterion 3: both NB variants match brute-force posterior enumeration on
# small corpora from a fixed generator, tolerance 1e-9, < 10 s


def brute_multinomial_posterior(dense, labels, query, label_count, alpha):
    n, dim = len(dense), len(dense[0])
    joint = []
    for c in range(label_count):
        rows = [dense[i] for i in range(n) if labels[i] == c]
        prior = len(rows) / n
        counts = [sum(row[j] for row in rows) for j in range(dim)]
        total = sum(counts) + alpha * dim
        value = prior
        for j in range(dim):
            value *= ((counts[j] + alpha) / total) ** query[j]
        joint.append(value)
    denominator = sum(joint)
    return [v / denominator for v in joint]


def brute_gaussian_posterior(dense, labels, query, label_count, variance_floor):
    arr = np.asarray(dense, dtype=np.float64)
    n, dim = arr.shape
    floor = variance_floor * float(arr.var(axis=0).max())
    if floor == 0.0:
        floor = 1e-12
    joint = []
    for c in range(label_count):
        rows = [arr[i] for i in range(n) if labels[i] == c]
        prior = len(rows) / n
        likelihood = 1.0
        for j in range(dim):
            column = [row[j] for row in rows]
            mean = sum(column) / len(column)
            var = sum((v - mean) ** 2 for v in column) / len(column) + floor
            likelihood *= math.exp(
                -((query[j] - mean) ** 2) / (2 * var)
            ) / math.sqrt(2 * math.pi * var)
        joint.append(prior * likelihood)
    total = sum(joint)
    return [v / total for v in joint]


def test_criterion_3_naive_bayes_oracle():
    started = time.perf_counter()
    rng = random.Random(3003)
    instances = 0
    while instances < 200:
        n = rng.randrange(2, 5)  # <= 4 docs
        dim = rng.randrange(1, 4)  # <= 3 tokens in the vocabulary
        label_count = 2 if n == 2 else rng.randrange(2, 4)
        labels = [rng.randrange(label_count) for _ in range(n)]
        for c in range(label_count):
            labels[c % n] = c
        dense = [[float(rng.randrange(4)) for _ in range(dim)] for _ in range(n)]
        if float(np.asarray(dense).var(axis=0).max()) == 0.0:
            continue  # keep the generous variance floor well-defined
        query = [float(rng.randrange(4)) for _ in range(dim)]
        matrix = matrix_from_dense(dense, labels)
        query_matrix = matrix_from_dense([query])

        mnb = train_multinomial_nb(matrix, MultinomialNBParams(laplace_alpha=1.0),
                                   label_count)
        got = np.exp(mnb.predict_scores(query_matrix)[0])
        expected = brute_multinomial_posterior(dense, labels, query, label_count, 1.0)
        assert np.allclose(got, expected, atol=1e-9)

        params = GaussianNBParams(variance_floor=0.5)
        gnb = train_gaussian_nb(matrix, params, label_count)
        got = np.exp(gnb.predict_scores(query_matrix)[0])
        expected = brute_gaussian_posterior(
            dense, labels, query, label_count, params.variance_floor
        )
        assert np.allclose(got, expected, atol=1e-9)
        instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"CRITERION 3 PASS: both NB posteriors match brute-force enumeration "
          f"on {instances} small corpora within 1e-9 ({elapsed:.2f}s < 10s)")


# --------------------------------------------------------------------------
# Criterion 4: central finite-difference gradient check (h = 1e-5, relative
# error < 1e-4) for the MLP, logistic regression and the hinge objective on
# 20 random small instances, < 30 s

_H = 1e-5
_REL_TOL = 1e-4


def relative_error(analytic, numeric):
    scale = max(1.0, float(np.abs(analytic).max()), float(np.abs(numeric).max()))
    return float(np.abs(analytic - numeric).max()) / scale


def check_linear_gradients(loss_and_grads, rng):
    n, dim, label_count = rng.randrange(2, 5), rng.randrange(1, 4), 2
    for _ in range(50):
        dense = np.array([[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)])
        labels = np.array([i % label_count for i in range(n)])
        weights = np.array(
            [[rng.uniform(-0.8, 0.8) for _ in range(dim)] for _ in range(label_count)]
        )
        bias = np.array([rng.uniform(-0.3, 0.3) for _ in range(label_count)])
        targets = np.where(
            np.arange(label_count)[None, :] == labels[:, None], 1.0, -1.0
        )
        margins = targets * (dense @ weights.T + bias)
        if np.abs(margins - 1.0).min() > 1e-3:
            break
    else:
        raise AssertionError("could not sample an instance away from the hinge kink")
    l2 = 1e-2
    _, grad_w, grad_b = loss_and_grads(weights, bias, dense, labels, l2)
    num_w = np.zeros_like(weights)
    for idx in np.ndindex(weights.shape):
        up, down = weights.copy(), weights.copy()
        up[idx] += _H
        down[idx] -= _H
        num_w[idx] = (
            loss_and_grads(up, bias, dense, labels, l2)[0]
            - loss_and_grads(down, bias, dense, labels, l2)[0]
        ) / (2 * _H)
    num_b = np.zeros_like(bias)
    for c in range(bias.size):
        up, down = bias.copy(), bias.copy()
        up[c] += _H
        down[c] -= _H
        num_b[c] = (
            loss_and_grads(weights, up, dense, labels, l2)[0]
            - loss_and_grads(weights, down, dense, labels, l2)[0]
        ) / (2 * _H)
    assert relative_error(grad_w, num_w) < _REL_TOL
    assert relative_error(grad_b, num_b) < _REL_TOL


def check_mlp_gradients(rng):
    for _ in range(50):
        dim = rng.randrange(1, 4)
        label_count = rng.randrange(2, 4)
        n = rng.randrange(1, 4)
        params = MLPParams(hidden_units=20, seed=rng.randrange(10000))
        model = init_mlp(dim, label_count, params)
        model.b1 += np.array([rng.uniform(-0.3, 0.3) for _ in range(20)])
        dense = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
        labels = np.array([rng.randrange(label_count) for _ in range(n)])
        matrix = matrix_from_dense(dense, labels)
        rows = range(n)
        pres = np.asarray(dense) @ model.w1 + model.b1
        if np.abs(pres).min() > 1e-3:
            break
    else:
        raise AssertionError("could not sample an instance away from the ReLU kink")
    _, grads = mlp_loss_and_grads(model, matrix, rows, labels)
    for name in ("w1", "b1", "w2", "b2"):
        tensor = getattr(model, name)
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            original = tensor[idx]
            tensor[idx] = original + _H
            up = mlp_loss_and_grads(model, matrix, rows, labels)[0]
            tensor[idx] = original - _H
            down = mlp_loss_and_grads(model, matrix, rows, labels)[0]
            tensor[idx] = original
            numeric[idx] = (up - down) / (2 * _H)
        assert relative_error(grads[name], numeric) < _REL_TOL, name


def test_criterion_4_gradient_checks():
    started = time.perf_counter()
    rng = random.Random(404)
    for _ in range(20):
        check_mlp_gradients(rng)
        check_linear_gradients(logistic_loss_and_grads, rng)
        check_linear_gradients(svm_loss_and_grads, rng)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"CRITERION 4 PASS: MLP, logistic and hinge gradients match central "
          f"differences (h=1e-5, rel err < 1e-4) on 20 instances "
          f"({elapsed:.2f}s < 30s)")


# --------------------------------------------------------------------------
# Criterion 5: chi-square scores match hand-computed sum((O-E)^2 / E) on
# binary instances (2 classes, <= 6 docs, <= 4 features), tolerance 1e-9.
# Small size classes are enumerated exhaustively; larger ones are sampled
# from a fixed generator.


def brute_chi2(dense, labels, label_count):
    n, dim = len(dense), len(dense[0])
    scores = []
    for j in range(dim):
        total = sum(dense[i][j] for i in range(n))
        score = 0.0
        for c in range(label_count):
            n_c = sum(1 for lab in labels if lab == c)
            expected = (n_c / n) * total
            if expected > 0:
                observed = sum(dense[i][j] for i in range(n) if labels[i] == c)
                score += (observed - expected) ** 2 / expected
        scores.append(score)
    return scores


def both_class_labelings(n):
    out = []
    for bits in range(2**n):
        labeling = [(bits >> i) & 1 for i in range(n)]
        if 0 < sum(labeling) < n:
            out.append(labeling)
    return out


def binary_instances(cap_per_cell=2000, sample_size=1000):
    rng = random.Random(505)
    for n in range(2, 7):
        labelings = both_class_labelings(n)
        for dim in range(1, 5):
            total = (2 ** (n * dim)) * len(labelings)
            if total <= cap_per_cell:
                for bits in range(2 ** (n * dim)):
                    dense = [
                        [float((bits >> (i * dim + j)) & 1) for j in range(dim)]
                        for i in range(n)
                    ]
                    for labeling in labelings:
                        yield dense, labeling
            else:
                for _ in range(sample_size):
                    dense = [
                        [float(rng.getrandbits(1)) for _ in range(dim)]
                        for _ in range(n)
                    ]
                    yield dense, list(rng.choice(labelings))


def test_criterion_5_chi_square_oracle():
    started = time.perf_counter()
    count = 0
    for dense, labeling in binary_instances():
        matrix = matrix_from_dense(dense, labeling)
        got = chi2_scores(matrix, 2)
        expected = brute_chi2(dense, labeling, 2)
        assert np.allclose(got, expected, atol=1e-9)
        count += 1
    elapsed = time.perf_counter() - started
    print(f"CRITERION 5 PASS: chi-square matches sum((O-E)^2/E) on {count} "
          f"binary instances within 1e-9 ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# Criteria 6 and 7 share one desk-scale experiment: the full 16-cell grid on
# a synthetic 8-class, 100-docs-per-class corpus, run twice with one seed.


@pytest.fixture(scope="module")
def desk_grid(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    corpus_path = root / "corpus.jsonl"
    code = cli_main(
        [
            "synth",
            "--classes", "8",
            "--per-class", "100",
            "--noise", "0.3",
            "--seed", "42",
            "--out", str(corpus_path),
        ]
    )
    assert code == 0
    runs = []
    first_elapsed = None
    for name in ("run1", "run2"):
        out = root / name
        run_started = time.perf_counter()
        code = cli_main(
            [
                "grid",
                "--corpus", str(corpus_path),
                "--fraction", "0.8",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - run_started
        assert code == 0
        if first_elapsed is None:
            first_elapsed = elapsed
        runs.append(out)
    return {"corpus": corpus_path, "runs": runs, "elapsed": first_elapsed}


def test_criterion_6_grid_reproduction(desk_grid):
    elapsed = desk_grid["elapsed"]
    assert elapsed < 300.0
    out = desk_grid["runs"][0]
    grid = json.loads((out / "grid.json").read_text(encoding="utf-8"))
    cells = {(c["kind"], c["mode"]): c for c in grid["cells"]}
    assert len(cells) == 16
    for cell in cells.values():
        assert cell["error"] is None
        assert 0.0 <= cell["accuracy"] <= 1.0
    assert cells[("mlp", "tfidf")]["accuracy"] >= 0.90
    assert cells[("knn", "unigram")]["accuracy"] >= 0.5
    assert cells[("knn", "tfidf")]["accuracy"] >= 0.5

    # headline table: one row per classifier, one accuracy column per mode
    table = (out / "accuracy_table.md").read_text(encoding="utf-8")
    rows = [line for line in table.splitlines() if line.startswith("|")]
    assert len(rows) == 2 + 8
    assert "Unigram" in rows[0] and "TFIDF" in rows[0]

    # per-class tables: one section per classifier with per-class
    # precision/recall/F1/support in both feature modes
    per_class = (out / "per_class_tables.md").read_text(encoding="utf-8")
    assert per_class.count("## ") == 8
    for label in grid["labels"]:
        assert label in per_class
    header = "| Class | Unigram P | Unigram R | Unigram F1 | TFIDF P | TFIDF R | TFIDF F1 | Support |"
    assert per_class.count(header) == 8
    csv_rows = (
        (out / "per_class_tables.csv").read_text(encoding="utf-8").strip().splitlines()
    )
    assert len(csv_rows) == 1 + 8 * 8 * 2
    print(f"CRITERION 6 PASS: 16/16 grid cells on the 800-document synthetic "
          f"corpus in {elapsed:.1f}s < 300s; MLP+TFIDF "
          f"{cells[('mlp', 'tfidf')]['accuracy']:.3f} >= 0.90, KNN >= 0.5, "
          f"all cells in [0,1], report layouts verified")


def test_criterion_7_determinism(desk_grid):
    run1, run2 = desk_grid["runs"]
    for name in (
        "grid.json",
        "split.json",
        "accuracy_table.md",
        "accuracy_table.csv",
        "per_class_tables.md",
        "per_class_tables.csv",
    ):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name

    # a one-tree, no-bootstrap, all-features forest is exactly a plain tree
    corpus = generate_corpus(classes=4, per_class=12, seed=6)
    split = stratified_split(corpus, SplitSpec(train_fraction=0.75, seed=6))
    tokenized = preprocess(corpus, PASHTO_DEFAULT)
    by_id = {doc.id: doc for doc in tokenized.documents}
    train_docs = [by_id[i] for i in split.train_ids]
    test_docs = [by_id[i] for i in split.test_ids]
    vocab = build_vocabulary(train_docs)
    train_matrix = vectorize_documents(train_docs, vocab, UNIGRAM, corpus.labels)
    test_matrix = vectorize_documents(test_docs, vocab, UNIGRAM, corpus.labels)
    tree = train_decision_tree(train_matrix, DecisionTreeParams(), 4)
    forest = train_random_forest(
        train_matrix,
        RandomForestParams(
            n_trees=1, bootstrap=False, features_per_split=train_matrix.dim
        ),
        4,
    )
    for matrix in (train_matrix, test_matrix):
        assert np.array_equal(forest.predict_rows(matrix), tree.predict_rows(matrix))
    print("CRITERION 7 PASS: repeated grid runs are byte-identical and the "
          "one-tree forest equals the plain tree on every row")


# --------------------------------------------------------------------------
# Criterion 8: an all-out-of-vocabulary document flows through all eight
# trained models and receives a valid class via the tie-break rule.


def test_criterion_8_out_of_vocabulary_robustness():
    corpus = generate_corpus(classes=3, per_class=10, seed=8)
    tokenized = preprocess(corpus, PASHTO_DEFAULT)
    vocab = build_vocabulary(tokenized.documents)
    matrix = vectorize_documents(tokenized.documents, vocab, UNIGRAM, corpus.labels)
    quick = {
        ModelKind.KNN: KNNParams(k=3),
        ModelKind.RANDOM_FOREST: RandomForestParams(n_trees=5, seed=1),
        ModelKind.LOGISTIC_REGRESSION: LinearParams(epochs=20),
        ModelKind.LINEAR_SVM: LinearParams(epochs=20),
        ModelKind.MLP: MLPParams(hidden_units=6, epochs=10, seed=1),
    }
    oov_tokens = preprocess_text("کلمات ناپيژندلي بهرنيان", PASHTO_DEFAULT)
    assert all(token not in vocab.token_to_index for token in oov_tokens)
    oov_doc = TokenizedDocument(id="oov", tokens=tuple(oov_tokens), label="history")
    oov_matrix = vectorize_documents([oov_doc], vocab, UNIGRAM, corpus.labels)
    assert oov_matrix.nnz == 0
    label_count = len(corpus.labels)
    for kind in ModelKind:
        model = train(kind, matrix, quick.get(kind), label_count=label_count)
        scores = model.predict_scores(oov_matrix)
        assert scores.shape == (1, label_count)
        assert np.isfinite(scores).all(), kind
        (predicted,) = model.predict_rows(oov_matrix)
        assert 0 <= predicted < label_count
        # the prediction is the first of the maximal scores
        assert predicted == min(np.flatnonzero(scores[0] == scores[0].max()))
    print("CRITERION 8 PASS: the all-OOV document gets a valid tie-broken "
          "class from all eight models")
