"""Confusion counts, per-class metrics and aggregate averages."""

import json
import random
import re

import numpy as np
import pytest

from pashtext.errors import DataError
from pashtext.metrics import evaluate_predictions


def names(k: int) -> list[str]:
    return [f"class_{i}" for i in range(k)]


def true_negatives(confusion, class_index: int) -> int:
    """Rows neither labelled nor predicted `class_index`: the grid's sum
    outside that class's row and column.  The package does not need it."""
    others = np.delete(np.delete(confusion, class_index, axis=0), class_index, axis=1)
    return int(others.sum())


def class_accuracy(confusion, class_index: int) -> float:
    """One-vs-rest accuracy of a single class: (TP + TN) / total."""
    tp = int(confusion[class_index, class_index])
    return (tp + true_negatives(confusion, class_index)) / int(confusion.sum())


# Labels giving the 2-class grid [[3, 2], [1, 4]] (entry (true, predicted)).
WORKED_TRUTH = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
WORKED_PREDS = [0, 0, 0, 1, 1, 0, 1, 1, 1, 1]


def test_confusion_counts_and_cell_meaning():
    report = evaluate_predictions([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], ["a", "b", "c"])
    # entry (true, predicted)
    assert report.confusion.dtype == np.int64
    assert report.confusion.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
    assert true_negatives(report.confusion, 1) == 2
    # class b: tp=2 fp=1 fn=0
    assert (report.per_class[1].precision, report.per_class[1].recall) == (2 / 3, 1.0)
    assert [m.support for m in report.per_class] == [2, 2, 1]
    assert report.label_names == ("a", "b", "c")


def test_confusion_validation():
    with pytest.raises(DataError, match="differ in length"):
        evaluate_predictions([0, 1], [0], names(2))
    with pytest.raises(DataError, match="zero samples"):
        evaluate_predictions([], [], names(2))
    with pytest.raises(DataError, match="outside"):
        evaluate_predictions([0, 2], [0, 1], names(2))
    with pytest.raises(DataError, match="outside"):
        evaluate_predictions([0, 1], [0, -1], names(2))


def test_class_metrics_worked_example():
    # class 0: tp=3 fp=1 fn=2 -> p=3/4 r=3/5 f1=2pr/(p+r)=2/3
    report = evaluate_predictions(WORKED_TRUTH, WORKED_PREDS, names(2))
    assert report.confusion.tolist() == [[3, 2], [1, 4]]
    m = report.per_class[0]
    assert m.precision == pytest.approx(0.75, abs=1e-15)
    assert m.recall == pytest.approx(0.6, abs=1e-15)
    assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-15)
    assert m.support == 5
    assert not m.degenerate


def test_degenerate_zero_conventions():
    # class 1 never occurs and is never predicted: everything is 0/0
    report = evaluate_predictions([0, 0, 0, 0], [0, 0, 0, 0], names(2))
    assert report.confusion.tolist() == [[4, 0], [0, 0]]
    m = report.per_class[1]
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.degenerate and m.support == 0
    # class predicted sometimes but never correct: p=0, r=0, f1 hits 0/0
    report = evaluate_predictions([0, 0, 1, 1], [1, 1, 0, 0], names(2))
    assert report.confusion.tolist() == [[0, 2], [2, 0]]
    m = report.per_class[0]
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.degenerate


def brute_metrics(truth, preds, label_count):
    per_class = []
    n = len(truth)
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
        support = sum(1 for t in truth if t == c)
        per_class.append((precision, recall, f1, support))
    macro = tuple(
        sum(m[i] for m in per_class) / label_count for i in range(3)
    )
    total = sum(m[3] for m in per_class)
    weighted = tuple(
        sum(m[i] * m[3] for m in per_class) / total for i in range(3)
    )
    accuracy = sum(1 for t, p in zip(truth, preds) if t == p) / n
    return per_class, macro, weighted, accuracy


def test_metrics_match_brute_force_sweep():
    # The brute force runs the package's float operations in the same order,
    # so everything but macro is bit-equal; macro's `np.mean` sums pairwise.
    rng = random.Random(6)
    for _ in range(200):
        label_count = rng.randrange(2, 6)
        n = rng.randrange(1, 30)
        truth = [rng.randrange(label_count) for _ in range(n)]
        preds = [rng.randrange(label_count) for _ in range(n)]
        report = evaluate_predictions(truth, preds, names(label_count))
        per_class, macro, weighted, accuracy = brute_metrics(truth, preds, label_count)
        for c, (precision, recall, f1, support) in enumerate(per_class):
            got = report.per_class[c]
            assert (got.precision, got.recall, got.f1, got.support) == (
                precision, recall, f1, support)
        assert report.macro.precision == pytest.approx(macro[0], abs=1e-12)
        assert report.macro.recall == pytest.approx(macro[1], abs=1e-12)
        assert report.macro.f1 == pytest.approx(macro[2], abs=1e-12)
        assert (report.weighted.precision, report.weighted.recall,
                report.weighted.f1) == weighted
        assert report.accuracy == accuracy


def test_weighted_recall_equals_accuracy():
    rng = random.Random(61)
    for _ in range(50):
        label_count = rng.randrange(2, 5)
        n = rng.randrange(1, 20)
        truth = [rng.randrange(label_count) for _ in range(n)]
        preds = [rng.randrange(label_count) for _ in range(n)]
        report = evaluate_predictions(truth, preds, names(label_count))
        assert report.weighted.recall == pytest.approx(report.accuracy, abs=1e-12)


def test_overall_and_class_accuracy():
    report = evaluate_predictions(WORKED_TRUTH, WORKED_PREDS, names(2))
    assert report.accuracy == pytest.approx(0.7, abs=1e-15)
    assert class_accuracy(report.confusion, 0) == pytest.approx((3 + 4) / 10, abs=1e-15)
    assert class_accuracy(report.confusion, 1) == pytest.approx((4 + 3) / 10, abs=1e-15)


def test_macro_counts_empty_classes():
    # class 2 has no support; macro still divides by 3, weighted ignores it
    truth = [0, 0, 1, 1]
    preds = [0, 0, 1, 0]
    report = evaluate_predictions(truth, preds, names(3))
    per_class, _, _, _ = brute_metrics(truth, preds, 3)
    expected_macro_recall = sum(m[1] for m in per_class) / 3
    assert report.macro.recall == pytest.approx(expected_macro_recall, abs=1e-12)
    assert report.per_class[2].support == 0


def test_report_formats():
    report = evaluate_predictions([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], ["x", "y", "z"])
    text = report.to_json_text()
    data = json.loads(text)
    assert data["format"] == "pashtext-eval-report"
    assert data["version"] == 1
    # serialization is canonical: keys sorted, trailing newline
    assert text == report.to_json_text()
    assert text.endswith("\n")
    markdown = report.to_markdown()
    assert "| x |" in markdown or "| x " in markdown
    csv_text = report.to_csv()
    assert "precision" in csv_text and "x" in csv_text


def test_markdown_escapes_a_pipe_in_a_field():
    markdown = evaluate_predictions([0, 1, 1], [0, 1, 0], ["a|b", "c"]).to_markdown()
    rows = markdown.split("\n\n")[0].splitlines()
    assert rows[2] == "| a\\|b | 0.5000 | 1.0000 | 0.6667 | 1 |"
    # every row has the header's five cells between unescaped pipes
    assert [len(re.split(r"(?<!\\)\|", row)) for row in rows] == [7] * 6
    csv_text = evaluate_predictions([0, 1, 1], [0, 1, 0], ["a|b", "c"]).to_csv()
    assert "\na|b,0.500000," in csv_text
