"""The 16-cell comparison grid: eight classifier kinds times two features.

Every cell shares one tokenization, one vocabulary and one train/test
split, isolating the classifier and feature-mode effects.  The cells of one
feature mode form a lane.  With two or more available cores the unigram lane
runs in this process while the TFIDF lane runs in one spawned child process;
with one core both lanes run here.  Every cell draws only from its own seed and
its results are gathered in canonical order, the log lines included, and the
report contains no wall-clock data, so a repeated run with the same seed
serialises byte-for-byte identically however the lanes ran.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .corpus import Corpus, CorpusSplit
from .errors import DataError, expect_format, malformed
from .metrics import EvalReport, evaluate_predictions
from .models import ModelKind, train
from .models.base import KIND_CLASSES
from .models.params import DEFAULT_SEED, default_params
from .prng import derive_seed
from .vectorize import FEATURE_MODES, TFIDF, UNIGRAM, split_features

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

    def __post_init__(self):
        accuracy = None if self.report is None else self.report.accuracy
        if (self.report is None) == (self.error is None) or self.accuracy != accuracy:
            raise DataError(f"grid cell {self.kind.value}/{self.mode} must hold "
                            "either a report and its accuracy or an error")

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
        report = data["report"]
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
        if not all(isinstance(v, int) for v in (self.seed, self.n_train, self.n_test)) or (
            self.select_k is not None and not isinstance(self.select_k, int)
        ):
            raise DataError("grid seed, n_train, n_test and select_k must be integers")
        if self.n_train < 0 or self.n_test < 0:
            raise DataError("grid n_train and n_test must not be negative")
        if any(c.report and c.report.confusion.total != self.n_test for c in self.cells):
            raise DataError("every grid cell must count the grid's n_test test rows")
        if any(c.report and c.report.confusion.label_names != self.label_names
               for c in self.cells):
            raise DataError("every grid cell must report on the grid's labels")

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
        expect_format(data, "pashtext-grid-report", 1)
        with malformed("grid report"):
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
            row = [KIND_CLASSES[kind].display_name]
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
            row = [KIND_CLASSES[kind].display_name]
            for mode in FEATURE_MODES:
                cell = self.cell(kind, mode)
                row.append("" if cell.accuracy is None else f"{cell.accuracy:.6f}")
            writer.writerow(row)
        return out.getvalue()

    def per_class_tables_markdown(self) -> str:
        blocks = []
        for kind in ModelKind:
            lines = [f"## {KIND_CLASSES[kind].display_name}", ""]
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
                            KIND_CLASSES[kind].display_name,
                            name,
                            mode,
                            f"{m.precision:.6f}",
                            f"{m.recall:.6f}",
                            f"{m.f1:.6f}",
                            m.support,
                        ]
                    )
        return out.getvalue()


class _HeldRecords(logging.Handler):
    """Keeps log records, their messages formatted so that they pickle."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


@contextmanager
def _held_logs(level: int):
    """Hold the package's log records of `level` and above instead of
    emitting them, so a cell's records reach the log in canonical order
    from whichever process ran it."""
    package = logging.getLogger("pashtext")
    saved = package.level, package.propagate
    held = _HeldRecords()
    package.addHandler(held)
    package.setLevel(level)
    package.propagate = False
    try:
        yield held.records
    finally:
        package.removeHandler(held)
        package.setLevel(saved[0])
        package.propagate = saved[1]


def _run_cell(kind, mode, train_matrix, test_matrix, label_names, params, log_level):
    """Train and evaluate one cell: its `GridCell`, its seconds and the log
    records it held."""
    started = time.perf_counter()
    with _held_logs(log_level) as records:
        try:
            model = train(kind, train_matrix, params, label_count=len(label_names))
            preds = model.predict_rows(test_matrix)
            report = evaluate_predictions(
                test_matrix.row_labels, preds, len(label_names), label_names
            )
            cell = GridCell(kind, mode, report.accuracy, report, None)
        except Exception as exc:
            cell = GridCell(kind, mode, None, None, f"{type(exc).__name__}: {exc}")
    return cell, time.perf_counter() - started, records


def _run_lane(jobs):
    """Run the cells `jobs` (`_run_cell` argument tuples) one after another.

    Module-level and fed only picklable values, so a spawned child process
    can run it."""
    return [_run_cell(*job) for job in jobs]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no sched_getaffinity
        return os.cpu_count() or 1


def run_grid(
    corpus: Corpus,
    split: CorpusSplit,
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
    features = split_features(corpus, split, FEATURE_MODES, select_k=select_k)
    label_names = tuple(corpus.labels.names)
    log_level = logging.getLogger("pashtext").getEffectiveLevel()

    def params_for(kind, mode):
        if params_by_kind is not None and kind in params_by_kind:
            return params_by_kind[kind]
        return default_params(kind, seed=cell_seed(seed, kind, mode))

    lanes = [
        [
            (kind, mode, features.train[mode], features.test[mode], label_names,
             params_for(kind, mode), log_level)
            for kind in ModelKind
        ]
        for mode in FEATURE_MODES
    ]
    if _available_cores() < 2:
        results = [_run_lane(lane) for lane in lanes]
    else:
        # Imported here: the pool module is slow to import, and only the
        # grid needs it.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # A spawned child starts from a fresh interpreter whatever the
        # platform's default start method, and is safe to start from a
        # caller that runs threads, where a forked one can deadlock.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(len(lanes) - 1, mp_context=spawn) as pool:
            others = [pool.submit(_run_lane, lane) for lane in lanes[1:]]
            results = [_run_lane(lanes[0]), *(future.result() for future in others)]
    cells = []
    for kind_results in zip(*results):
        for cell, seconds, records in kind_results:
            for record in records:
                logging.getLogger(record.name).handle(record)
            if cell.error is not None:
                logger.warning("grid cell %s/%s failed: %s",
                               cell.kind.value, cell.mode, cell.error)
            else:
                logger.info("grid cell %s/%s: accuracy %.4f (%.2fs)",
                            cell.kind.value, cell.mode, cell.accuracy, seconds)
            cells.append(cell)
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
