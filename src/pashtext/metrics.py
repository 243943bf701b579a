"""Confusion-matrix metrics: precision, recall, F1, accuracy, aggregates.

Conventions: a metric whose denominator is zero is defined as 0 and the
class is flagged degenerate, so macro averages always stay totals over all
classes.  Macro averages are unweighted means over every class (including
support-0 ones); weighted averages are support-proportional, which makes
weighted recall coincide with overall accuracy on single-label problems.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError


class ConfusionMatrix:
    """K x K count grid; entry (t, p) = samples of true class t predicted p."""

    def __init__(self, grid, label_names=None):
        self.grid = np.asarray(grid, dtype=np.int64)
        if self.grid.ndim != 2 or self.grid.shape[0] != self.grid.shape[1]:
            raise DataError("confusion grid must be square")
        if np.any(self.grid < 0):
            raise DataError("confusion grid entries must be non-negative")
        self.label_names = (
            tuple(label_names)
            if label_names is not None
            else tuple(f"class_{i}" for i in range(self.grid.shape[0]))
        )
        if len(self.label_names) != self.grid.shape[0]:
            raise DataError("label names must match the grid size")

    @property
    def k(self) -> int:
        return self.grid.shape[0]

    @property
    def total(self) -> int:
        return int(self.grid.sum())

    def tp(self, i: int) -> int:
        return int(self.grid[i, i])

    def fp(self, i: int) -> int:
        return int(self.grid[:, i].sum()) - self.tp(i)

    def fn(self, i: int) -> int:
        return int(self.grid[i, :].sum()) - self.tp(i)

    def support(self, i: int) -> int:
        return int(self.grid[i, :].sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConfusionMatrix)
            and self.label_names == other.label_names
            and np.array_equal(self.grid, other.grid)
        )


def confusion_matrix(truth, preds, label_count: int, label_names=None) -> ConfusionMatrix:
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if truth.size != preds.size:
        raise DataError(
            f"truth and predictions differ in length ({truth.size} vs {preds.size})"
        )
    if truth.size == 0:
        raise DataError("cannot evaluate zero samples")
    for name, values in (("truth", truth), ("prediction", preds)):
        if values.min() < 0 or values.max() >= label_count:
            raise DataError(f"{name} labels fall outside [0, {label_count})")
    grid = np.zeros((label_count, label_count), dtype=np.int64)
    np.add.at(grid, (truth, preds), 1)
    return ConfusionMatrix(grid, label_names)


@dataclass(frozen=True)
class ClassMetrics:
    """Precision, recall and F1 of one class, plus its test support.

    `degenerate` marks classes where some denominator was zero and the
    0-convention kicked in.
    """

    precision: float
    recall: float
    f1: float
    support: int
    degenerate: bool = False


def _ratio(numerator: float, denominator: float) -> tuple[float, bool]:
    if denominator == 0:
        return 0.0, True
    return numerator / denominator, False


def class_metrics(cm: ConfusionMatrix, class_index: int) -> ClassMetrics:
    tp = cm.tp(class_index)
    precision, p_degenerate = _ratio(tp, tp + cm.fp(class_index))
    recall, r_degenerate = _ratio(tp, tp + cm.fn(class_index))
    f1, f_degenerate = _ratio(2.0 * precision * recall, precision + recall)
    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        support=cm.support(class_index),
        degenerate=p_degenerate or r_degenerate or f_degenerate,
    )


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Trace over total: the multiclass share of correct predictions."""
    return float(np.trace(cm.grid)) / cm.total


@dataclass(frozen=True)
class AggregateMetrics:
    precision: float
    recall: float
    f1: float


def aggregate(per_class) -> tuple[AggregateMetrics, AggregateMetrics]:
    """(macro, weighted) averages of a per-class metrics sequence.

    Macro is the plain mean over all classes; weighted scales each class by
    its support, so support-0 classes drop out of the weighted figures.
    """
    per_class = list(per_class)
    if not per_class:
        raise DataError("cannot aggregate zero classes")
    fields = ("precision", "recall", "f1")
    macro = AggregateMetrics(
        *(float(np.mean([getattr(m, f) for m in per_class])) for f in fields)
    )
    total_support = sum(m.support for m in per_class)
    if total_support == 0:
        weighted = AggregateMetrics(0.0, 0.0, 0.0)
    else:
        weighted = AggregateMetrics(
            *(
                sum(getattr(m, f) * m.support for m in per_class) / total_support
                for f in fields
            )
        )
    return macro, weighted


def _field(value, digits: int):
    """A float to `digits` decimals; any other field as it is."""
    return f"{value:.{digits}f}" if isinstance(value, float) else value


def markdown_table(header, rows) -> str:
    """A markdown table of `rows` of raw values under `header`: floats to 4
    decimals, a failed (None) field as `failed`."""
    lines = [header, ["---"] * len(header)]
    lines += [["failed" if value is None else _field(value, 4) for value in row]
              for row in rows]
    return "".join(f"| {' | '.join(map(str, line))} |\n" for line in lines)


def csv_table(header, rows) -> str:
    """A CSV table of `rows` of raw values under the lower-cased `header`:
    floats to 6 decimals, a failed (None) field empty, as `csv` writes None."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([name.lower() for name in header])
    writer.writerows([_field(value, 6) for value in row] for row in rows)
    return out.getvalue()


@dataclass(frozen=True)
class EvalReport:
    """Full single-split evaluation: confusion matrix and every metric."""

    confusion: ConfusionMatrix
    per_class: tuple[ClassMetrics, ...]
    macro: AggregateMetrics
    weighted: AggregateMetrics
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "format": "pashtext-eval-report",
            "version": 1,
            "labels": list(self.confusion.label_names),
            "confusion": self.confusion.grid.tolist(),
            "per_class": {
                name: asdict(metrics)
                for name, metrics in zip(self.confusion.label_names, self.per_class)
            },
            "macro": asdict(self.macro),
            "weighted": asdict(self.weighted),
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_confusion(cls, cm: ConfusionMatrix) -> "EvalReport":
        """Every metric of a confusion matrix that counts at least one sample."""
        if cm.total == 0:
            raise DataError("cannot evaluate zero samples")
        per_class = tuple(class_metrics(cm, i) for i in range(cm.k))
        macro, weighted = aggregate(per_class)
        return cls(cm, per_class, macro, weighted, overall_accuracy(cm))

    def to_json_text(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"

    def _table(self) -> tuple[list, list]:
        rows = [[name, m.precision, m.recall, m.f1, m.support]
                for name, m in zip(self.confusion.label_names, self.per_class)]
        averages = (("macro avg", self.macro), ("weighted avg", self.weighted))
        rows += [[tag, agg.precision, agg.recall, agg.f1, self.confusion.total]
                 for tag, agg in averages]
        return ["Class", "Precision", "Recall", "F1", "Support"], rows

    def to_markdown(self) -> str:
        return markdown_table(*self._table()) + f"\nOverall accuracy: {self.accuracy:.4f}\n"

    def to_csv(self) -> str:
        header, rows = self._table()
        return csv_table(header, rows + [["accuracy", self.accuracy, "", "", ""]])


def evaluate_predictions(truth, preds, label_count: int, label_names=None) -> EvalReport:
    """Confusion matrix plus the full metric block for one prediction set."""
    cm = confusion_matrix(truth, preds, label_count, label_names)
    return EvalReport.from_confusion(cm)
