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
    degenerate: bool


@dataclass(frozen=True)
class AggregateMetrics:
    precision: float
    recall: float
    f1: float


def _ratio(numerator: float, denominator: float) -> tuple[float, bool]:
    if denominator == 0:
        return 0.0, True
    return numerator / denominator, False


def _field(value, digits: int):
    """A float to `digits` decimals; any other field as it is."""
    return f"{value:.{digits}f}" if isinstance(value, float) else value


def markdown_table(header, rows) -> str:
    """A markdown table of `rows` of raw values under `header`: floats to 4
    decimals, a failed (None) field as `failed`, a `|` in any field as `\\|`."""
    lines = [header, ["---"] * len(header)]
    lines += [["failed" if value is None else _field(value, 4) for value in row]
              for row in rows]
    lines = [[str(value).replace("|", r"\|") for value in line] for line in lines]
    return "".join(f"| {' | '.join(line)} |\n" for line in lines)


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
    """Full single-split evaluation: confusion counts and every metric.

    `confusion[t, p]` counts the samples of true class t predicted as p."""

    label_names: tuple[str, ...]
    confusion: np.ndarray
    per_class: tuple[ClassMetrics, ...]
    macro: AggregateMetrics
    weighted: AggregateMetrics
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "format": "pashtext-eval-report",
            "version": 1,
            "labels": list(self.label_names),
            "confusion": self.confusion.tolist(),
            "per_class": {
                name: asdict(metrics)
                for name, metrics in zip(self.label_names, self.per_class)
            },
            "macro": asdict(self.macro),
            "weighted": asdict(self.weighted),
            "accuracy": self.accuracy,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"

    def _table(self) -> tuple[list, list]:
        rows = [[name, m.precision, m.recall, m.f1, m.support]
                for name, m in zip(self.label_names, self.per_class)]
        averages = (("macro avg", self.macro), ("weighted avg", self.weighted))
        total = int(self.confusion.sum())
        rows += [[tag, agg.precision, agg.recall, agg.f1, total] for tag, agg in averages]
        return ["Class", "Precision", "Recall", "F1", "Support"], rows

    def to_markdown(self) -> str:
        return markdown_table(*self._table()) + f"\nOverall accuracy: {self.accuracy:.4f}\n"

    def to_csv(self) -> str:
        header, rows = self._table()
        return csv_table(header, rows + [["accuracy", self.accuracy, "", "", ""]])


def evaluate_predictions(truth, preds, label_names) -> EvalReport:
    """Confusion counts and every metric of one prediction set, whose labels
    index `label_names`."""
    label_names = tuple(label_names)
    k = len(label_names)
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if truth.size != preds.size:
        raise DataError(
            f"truth and predictions differ in length ({truth.size} vs {preds.size})"
        )
    if truth.size == 0:
        raise DataError("cannot evaluate zero samples")
    for name, values in (("truth", truth), ("prediction", preds)):
        if values.min() < 0 or values.max() >= k:
            raise DataError(f"{name} labels fall outside [0, {k})")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)
    per_class = []
    for tp, predicted, support in zip(np.diagonal(confusion).tolist(),
                                      confusion.sum(axis=0).tolist(),
                                      confusion.sum(axis=1).tolist()):
        precision, p_degenerate = _ratio(tp, predicted)
        recall, r_degenerate = _ratio(tp, support)
        f1, f_degenerate = _ratio(2.0 * precision * recall, precision + recall)
        per_class.append(ClassMetrics(precision, recall, f1, support,
                                      p_degenerate or r_degenerate or f_degenerate))
    fields = ("precision", "recall", "f1")
    macro = AggregateMetrics(
        *(float(np.mean([getattr(m, f) for m in per_class])) for f in fields)
    )
    weighted = AggregateMetrics(
        *(sum(getattr(m, f) * m.support for m in per_class) / truth.size for f in fields)
    )
    accuracy = float(np.trace(confusion)) / truth.size
    return EvalReport(label_names, confusion, tuple(per_class), macro, weighted, accuracy)
