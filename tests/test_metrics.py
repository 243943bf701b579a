"""Confusion matrices, per-class metrics and aggregate averages."""

import json
import random

import numpy as np
import pytest

from pashtext.errors import DataError
from pashtext.metrics import (
    ClassMetrics,
    ConfusionMatrix,
    aggregate,
    class_metrics,
    confusion_matrix,
    evaluate_predictions,
    overall_accuracy,
)


def true_negatives(cm: ConfusionMatrix, class_index: int) -> int:
    """Rows neither labelled nor predicted `class_index`: the grid's sum
    outside that class's row and column.  The package does not need it."""
    others = np.delete(np.delete(cm.grid, class_index, axis=0), class_index, axis=1)
    return int(others.sum())


def class_accuracy(cm: ConfusionMatrix, class_index: int) -> float:
    """One-vs-rest accuracy of a single class: (TP + TN) / total."""
    return (cm.tp(class_index) + true_negatives(cm, class_index)) / cm.total


def test_confusion_counts_and_cell_meaning():
    cm = confusion_matrix([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], 3, ["a", "b", "c"])
    # entry (true, predicted)
    assert cm.grid.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
    assert cm.k == 3 and cm.total == 5
    assert cm.tp(1) == 2 and cm.fp(1) == 1 and cm.fn(1) == 0 and true_negatives(cm, 1) == 2
    assert cm.support(0) == 2 and cm.support(2) == 1
    assert cm.label_names == ("a", "b", "c")


def test_confusion_validation():
    with pytest.raises(DataError, match="differ in length"):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(DataError, match="zero samples"):
        confusion_matrix([], [], 2)
    with pytest.raises(DataError, match="outside"):
        confusion_matrix([0, 2], [0, 1], 2)
    with pytest.raises(DataError, match="outside"):
        confusion_matrix([0, 1], [0, -1], 2)
    with pytest.raises(DataError, match="square"):
        ConfusionMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DataError, match="non-negative"):
        ConfusionMatrix([[1, -1], [0, 2]])
    with pytest.raises(DataError, match="label names"):
        ConfusionMatrix([[1, 0], [0, 1]], ["only-one"])


def test_class_metrics_worked_example():
    # class 0: tp=3 fp=1 fn=2 -> p=3/4 r=3/5 f1=2pr/(p+r)=2/3
    cm = ConfusionMatrix([[3, 2], [1, 4]])
    m = class_metrics(cm, 0)
    assert m.precision == pytest.approx(0.75, abs=1e-15)
    assert m.recall == pytest.approx(0.6, abs=1e-15)
    assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-15)
    assert m.support == 5
    assert not m.degenerate


def test_degenerate_zero_conventions():
    # class 1 never occurs and is never predicted: everything is 0/0
    cm = ConfusionMatrix([[4, 0], [0, 0]])
    m = class_metrics(cm, 1)
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.degenerate and m.support == 0
    # class predicted sometimes but never correct: p=0, r=0, f1 hits 0/0
    cm = ConfusionMatrix([[0, 2], [2, 0]])
    m = class_metrics(cm, 0)
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
    rng = random.Random(6)
    for _ in range(200):
        label_count = rng.randrange(2, 6)
        n = rng.randrange(1, 30)
        truth = [rng.randrange(label_count) for _ in range(n)]
        preds = [rng.randrange(label_count) for _ in range(n)]
        report = evaluate_predictions(truth, preds, label_count)
        per_class, macro, weighted, accuracy = brute_metrics(truth, preds, label_count)
        for c, (precision, recall, f1, support) in enumerate(per_class):
            got = report.per_class[c]
            assert got.precision == pytest.approx(precision, abs=1e-12)
            assert got.recall == pytest.approx(recall, abs=1e-12)
            assert got.f1 == pytest.approx(f1, abs=1e-12)
            assert got.support == support
        assert report.macro.precision == pytest.approx(macro[0], abs=1e-12)
        assert report.macro.recall == pytest.approx(macro[1], abs=1e-12)
        assert report.macro.f1 == pytest.approx(macro[2], abs=1e-12)
        assert report.weighted.precision == pytest.approx(weighted[0], abs=1e-12)
        assert report.weighted.recall == pytest.approx(weighted[1], abs=1e-12)
        assert report.weighted.f1 == pytest.approx(weighted[2], abs=1e-12)
        assert report.accuracy == pytest.approx(accuracy, abs=1e-12)


def test_weighted_recall_equals_accuracy():
    rng = random.Random(61)
    for _ in range(50):
        label_count = rng.randrange(2, 5)
        n = rng.randrange(1, 20)
        truth = [rng.randrange(label_count) for _ in range(n)]
        preds = [rng.randrange(label_count) for _ in range(n)]
        report = evaluate_predictions(truth, preds, label_count)
        assert report.weighted.recall == pytest.approx(report.accuracy, abs=1e-12)


def test_overall_and_class_accuracy():
    cm = ConfusionMatrix([[3, 2], [1, 4]])
    assert overall_accuracy(cm) == pytest.approx(0.7, abs=1e-15)
    assert class_accuracy(cm, 0) == pytest.approx((3 + 4) / 10, abs=1e-15)
    assert class_accuracy(cm, 1) == pytest.approx((4 + 3) / 10, abs=1e-15)


def test_macro_counts_empty_classes():
    # class 2 has no support; macro still divides by 3, weighted ignores it
    truth = [0, 0, 1, 1]
    preds = [0, 0, 1, 0]
    report = evaluate_predictions(truth, preds, 3)
    per_class, _, _, _ = brute_metrics(truth, preds, 3)
    expected_macro_recall = sum(m[1] for m in per_class) / 3
    assert report.macro.recall == pytest.approx(expected_macro_recall, abs=1e-12)
    assert report.per_class[2].support == 0


def test_aggregate_validation_and_zero_support():
    with pytest.raises(DataError):
        aggregate([])
    only_empty = [ClassMetrics(0.0, 0.0, 0.0, 0, True)]
    macro, weighted = aggregate(only_empty)
    assert (weighted.precision, weighted.recall, weighted.f1) == (0.0, 0.0, 0.0)
    assert macro.precision == 0.0


def test_report_formats():
    report = evaluate_predictions([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], 3, ["x", "y", "z"])
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
