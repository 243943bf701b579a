"""The 16-cell comparison grid: eight classifier kinds times two features.

Every cell shares one tokenization, one vocabulary and one train/test
split, isolating the classifier and feature-mode effects.  The cells of one
feature mode form a lane: the unigram lane runs in this process while the
TFIDF lane runs in one `python -c` child process, fed over pipes, that
imports nothing of the caller's.  Every cell draws only from its own seed,
`cell_seed` of the split's seed and the cell's position, its results are
gathered in canonical order, the log lines included, and the report
contains no wall-clock data, so a repeated run with the same seed
serialises byte-for-byte identically on any number of cores.
"""

from __future__ import annotations

import json
import logging
import pickle
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .corpus import Corpus, CorpusSplit
from .errors import DataError
from .metrics import EvalReport, csv_table, evaluate_predictions, markdown_table
from .models import ModelKind, train
from .models.base import KIND_CLASSES
from .models.params import make_params
from .prng import derive_seed
from .vectorize import (
    FEATURE_MODES, TFIDF, UNIGRAM, feature_matrix, fit_features, side_documents,
    vectorize_documents,
)

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
    report: EvalReport | None
    error: str | None

    @property
    def accuracy(self) -> float | None:
        return None if self.report is None else self.report.accuracy

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "mode": self.mode,
            "accuracy": self.accuracy,
            "error": self.error,
            "report": self.report.to_dict() if self.report is not None else None,
        }


@dataclass(frozen=True)
class GridReport:
    """All 16 cells plus the experiment context they were computed in."""

    seed: int
    n_train: int
    n_test: int
    select_k: int | None
    label_names: tuple[str, ...]
    cells: tuple[GridCell, ...]

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

    def to_json_text(self) -> str:
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False,
                       allow_nan=False)
            + "\n"
        )

    def _accuracy_table(self) -> tuple[list, list]:
        header = ["Classifier", *(MODE_DISPLAY_NAMES[mode] for mode in FEATURE_MODES)]
        return header, [[KIND_CLASSES[kind].display_name,
                         *(self.cell(kind, mode).accuracy for mode in FEATURE_MODES)]
                        for kind in ModelKind]

    def accuracy_table_markdown(self) -> str:
        return markdown_table(*self._accuracy_table())

    def accuracy_table_csv(self) -> str:
        return csv_table(*self._accuracy_table())

    def per_class_tables_markdown(self) -> str:
        """One block per classifier: both modes side by side for each class, or
        the errors of a classifier that failed in both."""
        columns = [f"{MODE_DISPLAY_NAMES[mode]} {metric}" for mode in FEATURE_MODES
                   for metric in ("P", "R", "F1")]
        blocks = []
        for kind in ModelKind:
            cells = [self.cell(kind, mode) for mode in FEATURE_MODES]
            reports = [c.report for c in cells if c.report is not None]
            if not reports:
                errors = "; ".join(f"{MODE_DISPLAY_NAMES[c.mode]}: {c.error}"
                                   for c in cells)
                table = f"_no results ({errors})_\n"
            else:
                rows = []
                for index, name in enumerate(self.label_names):
                    row = [name]
                    for cell in cells:
                        m = cell.report and cell.report.per_class[index]
                        row += [None] * 3 if m is None else [m.precision, m.recall, m.f1]
                    rows.append(row + [reports[-1].per_class[index].support])
                table = markdown_table(["Class", *columns, "Support"], rows)
            blocks.append(f"## {KIND_CLASSES[kind].display_name}\n\n{table}")
        return "\n".join(blocks)

    def per_class_tables_csv(self) -> str:
        """One row per classifier, mode and class; a failed cell has no rows."""
        rows = [
            [KIND_CLASSES[cell.kind].display_name, name, cell.mode,
             m.precision, m.recall, m.f1, m.support]
            for cell in self.cells if cell.report is not None
            for name, m in zip(self.label_names, cell.report.per_class)
        ]
        header = ["Classifier", "Class", "Mode", "Precision", "Recall", "F1", "Support"]
        return csv_table(header, rows)


def _run_cell(kind, train_matrix, test_matrix, label_names, params):
    """Train and evaluate one cell: its `GridCell` and its seconds."""
    started = time.perf_counter()
    try:
        model = train(kind, train_matrix, params, label_count=len(label_names))
        preds = model.predict_rows(test_matrix)
        report = evaluate_predictions(test_matrix.row_labels, preds, label_names)
        cell = GridCell(kind, train_matrix.mode, report, None)
    except Exception as exc:
        cell = GridCell(kind, train_matrix.mode, None, f"{type(exc).__name__}: {exc}")
    return cell, time.perf_counter() - started


# The TFIDF lane's child: it puts the parent's `sys.path` (its argv) first,
# runs the `_run_cell` argument tuples pickled on its stdin and pickles their
# results to its stdout.
_LANE_CHILD = """import pickle, sys
sys.path[:0] = sys.argv[1:]
from pashtext.grid import _run_cell
pickle.dump([_run_cell(*job) for job in pickle.load(sys.stdin.buffer)], sys.stdout.buffer)
"""


def run_grid(corpus: Corpus, split: CorpusSplit, select_k: int | None = None) -> GridReport:
    """Train and evaluate all 16 cells on one shared split.

    A failing cell is recorded (accuracy and report None, error message
    set) without aborting the grid.  Each cell gets its kind's default
    params with the seed `cell_seed` derives from the split's seed and the
    cell's position.
    """
    train_docs = side_documents(corpus, split, "train")
    test_docs = side_documents(corpus, split, "test")
    vocab, mask, train_counts = fit_features(train_docs, corpus.labels, select_k)
    test_counts = vectorize_documents(test_docs, vocab, corpus.labels)
    # Each mode's (train, test) matrices; the documents and unmasked counts
    # are not held through the cells.
    matrices = {
        mode: [feature_matrix(counts, vocab, mask, mode)
               for counts in (train_counts, test_counts)]
        for mode in FEATURE_MODES
    }
    del train_docs, test_docs, train_counts, test_counts
    label_names = tuple(corpus.labels.names)

    def lane(mode):
        return [
            (kind, *matrices[mode], label_names,
             make_params(kind, {}, seed=cell_seed(split.seed, kind, mode)))
            for kind in ModelKind
        ]

    # The child is fed from a thread: its pickled jobs can be more than a pipe
    # holds, and the unigram lane runs while the child imports.
    with ThreadPoolExecutor(1) as feeder:
        tfidf = feeder.submit(subprocess.run, [sys.executable, "-c", _LANE_CHILD, *sys.path],
                              input=pickle.dumps(lane(TFIDF)), stdout=subprocess.PIPE)
        unigram = [_run_cell(*job) for job in lane(UNIGRAM)]
    child = tfidf.result()
    if child.returncode != 0:
        raise RuntimeError(f"the TFIDF lane's process exited with code {child.returncode}")
    cells = []
    for kind_results in zip(unigram, pickle.loads(child.stdout)):
        for cell, seconds in kind_results:
            if cell.error is not None:
                logger.warning("grid cell %s/%s failed: %s",
                               cell.kind.value, cell.mode, cell.error)
            else:
                logger.info("grid cell %s/%s: accuracy %.4f (%.2fs)",
                            cell.kind.value, cell.mode, cell.accuracy, seconds)
            cells.append(cell)
    return GridReport(
        seed=split.seed,
        n_train=matrices[UNIGRAM][0].n_rows,
        n_test=matrices[UNIGRAM][1].n_rows,
        select_k=select_k,
        label_names=label_names,
        cells=tuple(cells),
    )
