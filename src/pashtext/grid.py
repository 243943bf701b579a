"""The 16-cell comparison grid: eight classifier kinds times two features.

Every cell shares one tokenization, one vocabulary and one train/test
split, isolating the classifier and feature-mode effects.  Cells run one
after another in canonical order, and the report contains no wall-clock
data, so a repeated run with the same seed serialises byte-for-byte
identically.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from dataclasses import dataclass

from .corpus import Corpus, CorpusSplit
from .errors import DataError
from .metrics import EvalReport, evaluate_predictions
from .models import KIND_DISPLAY_NAMES, ModelKind, default_params, train
from .models.params import DEFAULT_SEED
from .pipeline import PASHTO_DEFAULT, PipelineConfig
from .prng import derive_seed
from .vectorize import FEATURE_MODES, TFIDF, UNIGRAM, SplitFeatures, split_features

logger = logging.getLogger(__name__)

MODE_DISPLAY_NAMES = {UNIGRAM: "Unigram", TFIDF: "TFIDF"}

# Substream offset separating per-cell model seeds from other consumers of
# the root seed (the splitter uses streams 0..K-1 for the K classes).
_CELL_SEED_BASE = 100


def cell_seed(seed: int, kind: ModelKind, mode: str) -> int:
    kind_index = list(ModelKind).index(kind)
    mode_index = FEATURE_MODES.index(mode)
    return derive_seed(seed, _CELL_SEED_BASE + kind_index * 2 + mode_index)


@dataclass(frozen=True)
class GridCell:
    """One (classifier kind, feature mode) evaluation, or its failure."""

    kind: ModelKind
    mode: str
    accuracy: float | None
    report: EvalReport | None
    error: str | None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "mode": self.mode,
            "accuracy": self.accuracy,
            "error": self.error,
            "report": self.report.to_dict() if self.report is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridCell":
        report = data.get("report")
        return cls(
            kind=ModelKind(data["kind"]),
            mode=data["mode"],
            accuracy=data["accuracy"],
            report=EvalReport.from_dict(report) if report is not None else None,
            error=data["error"],
        )


@dataclass(frozen=True)
class GridReport:
    """All 16 cells plus the experiment context they were computed in."""

    seed: int
    n_train: int
    n_test: int
    select_k: int | None
    label_names: tuple[str, ...]
    cells: tuple[GridCell, ...]

    def __post_init__(self):
        expected = [(kind, mode) for kind in ModelKind for mode in FEATURE_MODES]
        if [(c.kind, c.mode) for c in self.cells] != expected:
            raise DataError("grid cells must cover kinds x modes in canonical order")

    def cell(self, kind: ModelKind, mode: str) -> GridCell:
        for cell in self.cells:
            if cell.kind is kind and cell.mode == mode:
                return cell
        raise DataError(f"no grid cell for {kind}/{mode}")

    def to_dict(self) -> dict:
        return {
            "format": "pashtext-grid-report",
            "version": 1,
            "seed": self.seed,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "select_k": self.select_k,
            "labels": list(self.label_names),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridReport":
        if data.get("format") != "pashtext-grid-report":
            raise DataError("not a grid report document")
        return cls(
            seed=data["seed"],
            n_train=data["n_train"],
            n_test=data["n_test"],
            select_k=data["select_k"],
            label_names=tuple(data["labels"]),
            cells=tuple(GridCell.from_dict(entry) for entry in data["cells"]),
        )

    def to_json_text(self) -> str:
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)
            + "\n"
        )

    def accuracy_table_markdown(self) -> str:
        lines = [
            "| Classifier | Unigram | TFIDF |",
            "| --- | --- | --- |",
        ]
        for kind in ModelKind:
            row = [KIND_DISPLAY_NAMES[kind]]
            for mode in FEATURE_MODES:
                cell = self.cell(kind, mode)
                row.append("failed" if cell.accuracy is None else f"{cell.accuracy:.4f}")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def accuracy_table_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["classifier", "unigram", "tfidf"])
        for kind in ModelKind:
            row = [KIND_DISPLAY_NAMES[kind]]
            for mode in FEATURE_MODES:
                cell = self.cell(kind, mode)
                row.append("" if cell.accuracy is None else f"{cell.accuracy:.6f}")
            writer.writerow(row)
        return out.getvalue()

    def per_class_tables_markdown(self) -> str:
        blocks = []
        for kind in ModelKind:
            lines = [f"## {KIND_DISPLAY_NAMES[kind]}", ""]
            cells = {mode: self.cell(kind, mode) for mode in FEATURE_MODES}
            if all(c.report is None for c in cells.values()):
                errors = "; ".join(
                    f"{MODE_DISPLAY_NAMES[m]}: {c.error}" for m, c in cells.items()
                )
                lines.append(f"_no results ({errors})_")
                blocks.append("\n".join(lines))
                continue
            header = ["Class"]
            for mode in FEATURE_MODES:
                display = MODE_DISPLAY_NAMES[mode]
                header += [f"{display} P", f"{display} R", f"{display} F1"]
            header.append("Support")
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + " --- |" * len(header))
            for index, name in enumerate(self.label_names):
                row = [name]
                support = ""
                for mode in FEATURE_MODES:
                    report = cells[mode].report
                    if report is None:
                        row += ["failed"] * 3
                        continue
                    m = report.per_class[index]
                    row += [f"{m.precision:.4f}", f"{m.recall:.4f}", f"{m.f1:.4f}"]
                    support = str(m.support)
                row.append(support)
                lines.append("| " + " | ".join(row) + " |")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def per_class_tables_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["classifier", "class", "mode", "precision", "recall", "f1", "support"]
        )
        for kind in ModelKind:
            for mode in FEATURE_MODES:
                report = self.cell(kind, mode).report
                if report is None:
                    continue
                for name, m in zip(self.label_names, report.per_class):
                    writer.writerow(
                        [
                            KIND_DISPLAY_NAMES[kind],
                            name,
                            mode,
                            f"{m.precision:.6f}",
                            f"{m.recall:.6f}",
                            f"{m.f1:.6f}",
                            m.support,
                        ]
                    )
        return out.getvalue()


def _run_cell(kind, mode, features: SplitFeatures, label_names, params) -> GridCell:
    train_matrix, test_matrix = features.train[mode], features.test[mode]
    started = time.perf_counter()
    try:
        model = train(kind, train_matrix, params, label_count=len(label_names))
        preds = model.predict_rows(test_matrix)
        report = evaluate_predictions(
            test_matrix.row_labels, preds, len(label_names), label_names
        )
    except Exception as exc:
        logger.warning("grid cell %s/%s failed: %s", kind.value, mode, exc)
        return GridCell(kind, mode, None, None, f"{type(exc).__name__}: {exc}")
    logger.info(
        "grid cell %s/%s: accuracy %.4f (%.2fs)",
        kind.value, mode, report.accuracy, time.perf_counter() - started,
    )
    return GridCell(kind, mode, report.accuracy, report, None)


def run_grid(
    corpus: Corpus,
    split: CorpusSplit,
    config: PipelineConfig = PASHTO_DEFAULT,
    seed: int = DEFAULT_SEED,
    select_k: int | None = None,
    params_by_kind: dict | None = None,
) -> GridReport:
    """Train and evaluate all 16 cells on one shared split.

    A failing cell is recorded (accuracy and report None, error message
    set) without aborting the grid.  `params_by_kind` overrides the
    defaults for specific kinds; otherwise each cell gets defaults with a
    seed derived from `seed` and the cell position.
    """
    features = split_features(corpus, split, config, FEATURE_MODES, select_k=select_k)
    label_names = tuple(corpus.labels.names)
    cells = []
    for kind in ModelKind:
        for mode in FEATURE_MODES:
            if params_by_kind is not None and kind in params_by_kind:
                params = params_by_kind[kind]
            else:
                params = default_params(kind, seed=cell_seed(seed, kind, mode))
            cells.append(_run_cell(kind, mode, features, label_names, params))
    report = GridReport(
        seed=seed,
        n_train=features.train[UNIGRAM].n_rows,
        n_test=features.test[UNIGRAM].n_rows,
        select_k=select_k,
        label_names=label_names,
        cells=tuple(cells),
    )
    for mode in FEATURE_MODES:
        mlp = report.cell(ModelKind.MLP, mode).accuracy
        knn = report.cell(ModelKind.KNN, mode).accuracy
        if mlp is not None and knn is not None and mlp < knn:
            logger.warning(
                "soft expectation violated: MLP (%.4f) below KNN (%.4f) on %s",
                mlp, knn, mode,
            )
    return report
