"""Output checks computed apart from the program.

Nothing here imports ``pashtext``.  Each check reads what the program wrote
(split.json, grid.json, eval.json, model bundles) plus the benchmark's own
record of the inputs, recomputes the result from first principles with the
standard library and numpy, and returns a list of human-readable errors;
an empty list means the output is correct.

Predictions are recomputed from each bundle's saved parameters.  Scores
that the program and the recomputation sum in a different order can differ
in the last bits, so a row whose two best classes (or whose k-th and
(k+1)-th neighbours) are closer than ``NEAR_TIE`` is counted as ambiguous:
its predicted class is left open and only its true class is checked.
"""

from __future__ import annotations

import json
import math
import unicodedata
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

NEAR_TIE = 1e-9
ARABIC_SCRIPT = ((0x0600, 0x06FF), (0x0750, 0x077F), (0x08A0, 0x08FF))


def read_corpus(path: Path) -> dict[str, tuple[str, str]]:
    """Document id -> (label, text), in file order."""
    docs = {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            docs[record["id"]] = (record["label"], record["text"])
    return docs


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def identical_errors(digest_sets: list[dict]) -> list[str]:
    """Every run wrote the same bytes to every output file."""
    first = digest_sets[0]
    differing = sorted(p for p in first if any(d.get(p) != first[p] for d in digest_sets[1:]))
    if differing or any(set(d) != set(first) for d in digest_sets[1:]):
        return [f"outputs are not byte-identical across runs: {', '.join(differing)}"]
    return []


# -- split ---------------------------------------------------------------------
def split_errors(split: dict, labels_by_id: dict[str, str], fraction: float,
                 seed: int) -> list[str]:
    errors = []
    train, test = split["train_ids"], split["test_ids"]
    if split.get("train_fraction") != fraction or split.get("seed") != seed:
        errors.append("split.json does not record the requested fraction and seed")
    if len(set(train)) != len(train) or len(set(test)) != len(test):
        errors.append("split lists a document twice on one side")
    if set(train) & set(test):
        errors.append("split puts a document on both sides")
    if set(train) | set(test) != set(labels_by_id):
        errors.append("split does not cover exactly the corpus documents")
    per_label: dict[str, list[int]] = {}
    for label in labels_by_id.values():
        per_label.setdefault(label, [0, 0])[0] += 1
    for doc_id in train:
        if doc_id in labels_by_id:
            per_label[labels_by_id[doc_id]][1] += 1
    for label, (total, on_train) in sorted(per_label.items()):
        wanted = int((Decimal(str(fraction)) * total).quantize(Decimal(1), ROUND_HALF_UP))
        if on_train != wanted:
            errors.append(f"class {label}: {on_train} train documents, stratified "
                          f"share of {total} is {wanted}")
    return errors


# -- evaluation reports --------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def recomputed_metrics(confusion) -> dict:
    """Per-class precision/recall/F1/support, macro, weighted and accuracy."""
    grid = np.asarray(confusion, dtype=np.int64)
    per_class = []
    for i in range(grid.shape[0]):
        tp, support, predicted = int(grid[i, i]), int(grid[i].sum()), int(grid[:, i].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        degenerate = predicted == 0 or support == 0 or precision + recall == 0
        per_class.append((precision, recall, f1, support, degenerate))
    total = int(grid.sum())
    macro = [sum(m[j] for m in per_class) / len(per_class) for j in range(3)]
    weighted = [sum(m[j] * m[3] for m in per_class) / total for j in range(3)]
    return {
        "per_class": per_class,
        "macro": macro,
        "weighted": weighted,
        "accuracy": float(np.trace(grid)) / total,
    }


def report_errors(report: dict, where: str) -> list[str]:
    """Every metric in an eval or grid-cell report, from its confusion counts."""
    errors = []
    expected = recomputed_metrics(report["confusion"])
    for name, (p, r, f, support, degenerate) in zip(report["labels"], expected["per_class"]):
        written = report["per_class"][name]
        if not (_close(written["precision"], p) and _close(written["recall"], r)
                and _close(written["f1"], f)):
            errors.append(f"{where}: class {name} precision/recall/F1 disagree with confusion")
        if written["support"] != support or written["degenerate"] != degenerate:
            errors.append(f"{where}: class {name} support or degenerate flag is wrong")
    for block in ("macro", "weighted"):
        values = [report[block][key] for key in ("precision", "recall", "f1")]
        if not all(_close(a, b) for a, b in zip(values, expected[block])):
            errors.append(f"{where}: {block} averages disagree with confusion")
    if not _close(report["accuracy"], expected["accuracy"]):
        errors.append(f"{where}: accuracy disagrees with confusion")
    return errors


def support_errors(report: dict, test_ids, labels_by_id: dict[str, str],
                   where: str) -> list[str]:
    """Supports and confusion row sums equal the split's test counts per label."""
    wanted = {name: 0 for name in report["labels"]}
    for doc_id in test_ids:
        wanted[labels_by_id[doc_id]] += 1
    rows = np.asarray(report["confusion"]).sum(axis=1)
    errors = []
    for i, name in enumerate(report["labels"]):
        if report["per_class"][name]["support"] != wanted[name] or rows[i] != wanted[name]:
            errors.append(f"{where}: support of {name} is not its {wanted[name]} "
                          "test documents")
    return errors


def macro_f1(report: dict) -> float:
    return recomputed_metrics(report["confusion"])["macro"][2]


# -- vocabulary and feature selection ------------------------------------------
def _is_arabic(ch: str) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in ARABIC_SCRIPT)


def is_arabic_word(token: str) -> bool:
    """A non-empty run of Arabic-script letters, each with optional marks."""
    if not token or not unicodedata.category(token[0]).startswith("L"):
        return False
    return all(
        _is_arabic(ch) and (unicodedata.category(ch).startswith("L")
                            or unicodedata.category(ch) == "Mn")
        for ch in token
    )


def vocabulary_errors(vocabulary: dict, train_tokens=None) -> list[str]:
    """Entries are Arabic words with dense indices; optionally exactly the
    distinct training tokens, each with its document frequency."""
    errors = []
    entries = vocabulary["entries"]
    bad = [token for token, _, _ in entries if not is_arabic_word(token)]
    if bad:
        errors.append(f"{len(bad)} vocabulary entries are not Arabic-script words, "
                      f"e.g. {bad[0]!r}")
    if sorted(index for _, index, _ in entries) != list(range(len(entries))):
        errors.append("vocabulary indices are not dense")
    if train_tokens is not None:
        frequency: dict[str, int] = {}
        for tokens in train_tokens:
            for token in set(tokens):
                frequency[token] = frequency.get(token, 0) + 1
        written = {token: df for token, _, df in entries}
        if written != frequency or vocabulary["n_train_docs"] != len(train_tokens):
            errors.append("vocabulary is not the training tokens with their "
                          "document frequencies")
    return errors


def _index_lists(token_lists, vocabulary: dict):
    lookup = {token: index for token, index, _ in vocabulary["entries"]}
    return [[lookup[t] for t in tokens if t in lookup] for tokens in token_lists]


def chi2_errors(bundle: dict, train_tokens, train_labels, k: int) -> list[str]:
    """Recompute chi-square scores on unigram counts and the top-k mask."""
    vocabulary, mask = bundle["vocabulary"], bundle["mask"]
    if mask is None:
        return ["bundle has no feature mask"]
    n_classes, dim = len(bundle["labels"]), len(vocabulary["entries"])
    observed = np.zeros((n_classes, dim))
    for indices, label in zip(_index_lists(train_tokens, vocabulary), train_labels):
        np.add.at(observed[label], indices, 1.0)
    share = np.bincount(train_labels, minlength=n_classes) / len(train_labels)
    expected = np.outer(share, observed.sum(axis=0))
    positive = expected > 0
    scores = np.where(
        positive, (observed - expected) ** 2 / np.where(positive, expected, 1.0), 0.0
    ).sum(axis=0)
    errors = []
    written = np.asarray(mask["scores"], dtype=np.float64)
    if written.shape != scores.shape or not np.allclose(written, scores, rtol=1e-9, atol=1e-12):
        return ["chi-square scores disagree with a recomputation from the counts"]
    order = sorted(range(dim), key=lambda j: (-scores[j], j))
    kept = set(order[:k])
    written_kept = set(mask["kept"])
    boundary = scores[order[k - 1]]
    for j in kept ^ written_kept:
        if not math.isclose(scores[j], boundary, rel_tol=NEAR_TIE, abs_tol=1e-12):
            errors.append(f"feature {j} is wrongly {'kept' if j in written_kept else 'dropped'}"
                          " by chi-square top-k")
            break
    if len(written_kept) != min(k, dim):
        errors.append(f"mask keeps {len(written_kept)} features, not {min(k, dim)}")
    return errors


# -- prediction recomputation --------------------------------------------------
def feature_matrix(bundle: dict, token_lists) -> np.ndarray:
    """Dense rows as the bundle's model sees them: counts or TFIDF, masked."""
    vocabulary, mask = bundle["vocabulary"], bundle["mask"]
    dim = len(vocabulary["entries"])
    df = np.zeros(dim)
    for _, index, count in vocabulary["entries"]:
        df[index] = count
    columns = np.arange(dim) if mask is None else np.asarray(mask["kept"], dtype=np.int64)
    position = np.full(dim, -1)
    position[columns] = np.arange(columns.size)
    dense = np.zeros((len(token_lists), columns.size))
    for row, indices in enumerate(_index_lists(token_lists, vocabulary)):
        kept = position[np.asarray(indices, dtype=np.int64)]
        np.add.at(dense[row], kept[kept >= 0], 1.0)
    if bundle["mode"] == "tfidf":
        dense *= np.log(vocabulary["n_train_docs"] / df[columns])
    return dense


def _argmax_with_ties(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index argmax per row, and whether the runner-up is near-tied."""
    best = np.argmax(scores, axis=1)
    top = scores[np.arange(len(scores)), best]
    rest = scores.copy()
    rest[np.arange(len(scores)), best] = -np.inf
    runner_up = rest.max(axis=1)
    scale = np.maximum(1.0, np.abs(top))
    return best, (top - runner_up) <= NEAR_TIE * scale


def _tree_arrays(root: dict):
    feature, threshold, left, right, leaf = [], [], [], [], []
    stack = [root]
    nodes = []
    while stack:
        node = stack.pop()
        nodes.append(node)
        if "counts" not in node:
            stack += [node["left"], node["right"]]
    position = {id(node): i for i, node in enumerate(nodes)}
    for node in nodes:
        if "counts" in node:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            leaf.append(int(np.argmax(node["counts"])))
        else:
            feature.append(int(node["feature"]))
            threshold.append(float(node["threshold"]))
            left.append(position[id(node["left"])])
            right.append(position[id(node["right"])])
            leaf.append(-1)
    return [np.asarray(a) for a in (feature, threshold, left, right, leaf)]


def _walk(root: dict, dense: np.ndarray) -> np.ndarray:
    """Leaf class (lowest-index majority) reached by each row."""
    feature, threshold, left, right, leaf = _tree_arrays(root)
    at = np.zeros(len(dense), dtype=np.int64)
    rows = np.arange(len(dense))
    while True:
        inner = feature[at] >= 0
        if not inner.any():
            return leaf[at]
        i = rows[inner]
        goes_left = dense[i, feature[at[i]]] <= threshold[at[i]]
        at[i] = np.where(goes_left, left[at[i]], right[at[i]])


def _knn(payload: dict, params: dict, dense: np.ndarray, n_labels: int):
    dim = payload["dim"]
    train = np.zeros((len(payload["rows"]), dim))
    for row, entry in enumerate(payload["rows"]):
        train[row, entry["indices"]] = entry["values"]
    labels = np.asarray(payload["row_labels"])
    dots = dense @ train.T
    train_sq = (train * train).sum(axis=1)
    query_sq = (dense * dense).sum(axis=1)
    if params["metric"] == "euclidean":
        distance = np.sqrt(np.maximum(train_sq[None, :] - 2 * dots + query_sq[:, None], 0.0))
    else:
        denominator = np.sqrt(train_sq[None, :] * query_sq[:, None])
        safe = np.where(denominator > 0, denominator, 1.0)
        distance = 1.0 - np.where(denominator > 0, dots / safe, 0.0)
    k = params["k"]
    predictions = np.zeros(len(dense), dtype=np.int64)
    ambiguous = np.zeros(len(dense), dtype=bool)
    index = np.arange(train.shape[0])
    for row in range(len(dense)):
        order = np.lexsort((index, distance[row]))
        votes = np.bincount(labels[order[:k]], minlength=n_labels)
        predictions[row] = int(np.argmax(votes))
        if k < len(order):
            kth, after = distance[row, order[k - 1]], distance[row, order[k]]
            ambiguous[row] = after - kth <= NEAR_TIE * max(1.0, kth)
    return predictions, ambiguous


def predict(bundle: dict, dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class per row from the bundle's saved parameters, and which
    rows are too close to a tie to pin down."""
    model = bundle["model"]
    kind, payload = model["kind"], model["payload"]
    n_labels = model["label_count"]
    none_ambiguous = np.zeros(len(dense), dtype=bool)
    if kind == "multinomial_nb":
        scores = np.log(payload["priors"]) + dense @ np.asarray(payload["log_token_probs"]).T
        return _argmax_with_ties(scores)
    if kind == "gaussian_nb":
        means = np.asarray(payload["means"])
        variances = np.asarray(payload["variances"])
        log_terms = np.log(2 * np.pi) + np.log(variances)
        scores = np.empty((len(dense), n_labels))
        for start in range(0, len(dense), 256):
            chunk = dense[start:start + 256, None, :]
            scores[start:start + 256] = -0.5 * (
                log_terms + (chunk - means) ** 2 / variances
            ).sum(axis=2)
        return _argmax_with_ties(scores + np.log(payload["priors"]))
    if kind in ("logistic_regression", "linear_svm"):
        scores = dense @ np.asarray(payload["weights"]).T + np.asarray(payload["bias"])
        return _argmax_with_ties(scores)
    if kind == "mlp":
        hidden = np.maximum(dense @ np.asarray(payload["w1"]) + payload["b1"], 0.0)
        return _argmax_with_ties(hidden @ np.asarray(payload["w2"]) + payload["b2"])
    if kind == "decision_tree":
        return _walk(payload["root"], dense), none_ambiguous
    if kind == "random_forest":
        votes = np.zeros((len(dense), n_labels))
        for tree in payload["trees"]:
            votes[np.arange(len(dense)), _walk(tree["root"], dense)] += 1
        return np.argmax(votes, axis=1), none_ambiguous
    if kind == "knn":
        return _knn(payload, model["hyperparams"], dense, n_labels)
    raise ValueError(f"no recomputation for model kind {kind!r}")


def prediction_errors(bundle: dict, report: dict, token_lists, truth, where: str) -> list[str]:
    """Tally recomputed predictions into a confusion matrix and compare it
    with the one the program wrote."""
    if report["labels"] != bundle["labels"]:
        return [f"{where}: report labels differ from the bundle's"]
    predictions, ambiguous = predict(bundle, feature_matrix(bundle, token_lists))
    n = len(bundle["labels"])
    written = np.asarray(report["confusion"], dtype=np.int64)
    settled = np.zeros((n, n), dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    np.add.at(settled, (truth[~ambiguous], predictions[~ambiguous]), 1)
    open_rows = np.bincount(truth[ambiguous], minlength=n)
    remainder = written - settled
    if remainder.min() < 0 or not np.array_equal(remainder.sum(axis=1), open_rows):
        return [f"{where}: confusion matrix disagrees with predictions recomputed "
                f"from the saved {bundle['model']['kind']} parameters"]
    return []
