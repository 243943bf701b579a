"""Spans and counts recorded around calls into pashtext's public functions.

Nothing here changes the program's files.  `Tracer.install` replaces each
target function, in every loaded ``pashtext`` module that holds it, with a
wrapper that opens a span before the call and closes it after; methods are
replaced on their class.  `Tracer.uninstall` puts the originals back, so a
traced and an untraced round can run in one process.  A target that no
longer exists is listed in `Tracer.missing` and skipped, and a span that is
never recorded shows up in `missing_spans`, so a renamed function degrades
the trace instead of crashing the workload.

Spans are kept in memory as (name, start, end, parent, round) and written
out by the caller at the end.  A span's self time is its duration minus the
durations of its direct children; a layer's figure for a round is the sum
of self times of its spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import unicodedata
from collections import defaultdict

KINDS = (
    "gaussian_nb",
    "multinomial_nb",
    "knn",
    "decision_tree",
    "random_forest",
    "logistic_regression",
    "linear_svm",
    "mlp",
)
MODES = ("unigram", "tfidf")

# (module, attribute or Class.method, span name); None names are derived
# from the call's arguments (classifier kind and feature mode).
TARGETS = (
    ("pashtext.corpus", "load_corpus", "corpus.load"),
    ("pashtext.corpus", "load_split", "corpus.load"),
    ("pashtext.corpus", "stratified_split", "corpus.split"),
    ("pashtext.corpus", "save_split", "corpus.split"),
    ("pashtext.pipeline", "preprocess", "pipeline.preprocess"),
    ("pashtext.vectorize", "build_vocabulary", "vectorize.vocabulary"),
    ("pashtext.vectorize", "vectorize_documents", "vectorize.vectorize"),
    ("pashtext.vectorize", "chi2_scores", "vectorize.select"),
    ("pashtext.vectorize", "select_top_k", "vectorize.select"),
    ("pashtext.vectorize", "apply_mask", "vectorize.mask"),
    ("pashtext.models", "train", None),
    ("pashtext.models.base", "Model.predict_rows", None),
    ("pashtext.models.io", "model_document", "models.io.save"),
    ("pashtext.models.io", "model_from_document", "models.io.load"),
    ("pashtext.metrics", "evaluate_predictions", "metrics.evaluate"),
    ("pashtext.grid", "run_grid", "grid.other"),
    ("pashtext.grid", "GridReport.to_json_text", "grid.report"),
    ("pashtext.grid", "GridReport.accuracy_table_markdown", "grid.report"),
    ("pashtext.grid", "GridReport.accuracy_table_csv", "grid.report"),
    ("pashtext.grid", "GridReport.per_class_tables_markdown", "grid.report"),
    ("pashtext.grid", "GridReport.per_class_tables_csv", "grid.report"),
)

TIMED_LAYERS = (
    "corpus.load",
    "corpus.split",
    "pipeline.preprocess",
    "vectorize.vocabulary",
    "vectorize.vectorize",
    "vectorize.select",
    "vectorize.mask",
    "models.io.load",
    "models.io.save",
    "metrics.evaluate",
    "grid.report",
    "grid.other",
    "cli.other",
) + tuple(
    f"models.{kind}.{mode}.{step}"
    for kind in KINDS
    for mode in MODES
    for step in ("train", "predict")
)
_LETTER_FOLD = str.maketrans({"\u0643": "\u06a9", "\u064a": "\u06cc"})


def fold_variant(token: str) -> str:
    """Token with combining marks dropped and Arabic kaf/yeh folded to Pashto."""
    stripped = "".join(ch for ch in token if not unicodedata.combining(ch))
    return stripped.translate(_LETTER_FOLD)


def variant_terms(tokens) -> int:
    """Vocabulary entries that share their folded form with another entry."""
    groups: dict[str, int] = defaultdict(int)
    for token in tokens:
        groups[fold_variant(token)] += 1
    return sum(size for size in groups.values() if size > 1)


def _forest_nodes(model) -> int:
    def count(node) -> int:
        if node.is_leaf:
            return 1
        return 1 + count(node.left) + count(node.right)

    return sum(count(tree.root) for tree in model.trees)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: set[str] = set()
        self.hook_errors: list[str] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._modes: dict[int, tuple[object, str]] = {}  # id(rows) -> (rows, mode)
        self._preprocessed: dict[int, object] = {}
        self._used: set[int] = set()

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_command(self) -> None:
        """Forget per-command object identities before the next CLI command."""
        self._count_useful()
        self._modes.clear()
        self._preprocessed.clear()

    def _count_useful(self) -> None:
        counts = self.counts[self.round]
        counts["pipeline.docs_used"] += len(self._used)
        self._used.clear()

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        for module_name, attribute, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, method = attribute.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = (owner.__dict__ if owner_name else vars(module))[method]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrapper(original, span, method)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if name.split(".")[0] != "pashtext":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, wrapper)

    def uninstall(self) -> None:
        self._count_useful()
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _wrapper(self, original, span, method):
        signature = inspect.signature(original)
        after = getattr(self, f"_after_{method}", None)
        tracer = self

        def wrapped(*args, **kwargs):
            bound = None
            try:
                bound = signature.bind(*args, **kwargs).arguments
                name = span or tracer._dynamic_name(method, bound)
            except Exception as exc:  # a changed signature must not stop the run
                tracer.hook_errors.append(f"{method}: {exc!r}")
                name = span or f"unnamed.{method}"
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None and bound is not None:
                try:
                    after(bound, result)
                except Exception as exc:  # counts are optional, the run is not
                    tracer.hook_errors.append(f"{method}: {exc!r}")
            return result

        wrapped.__wrapped__ = original
        return wrapped

    def _dynamic_name(self, method: str, arguments: dict) -> str:
        if method == "train":
            kind = getattr(arguments["kind"], "value", arguments["kind"])
            return f"models.{kind}.{arguments['matrix'].mode}.train"
        model = arguments["self"]
        _rows, mode = self._modes.get(id(arguments["rows"]), (None, "unknown"))
        return f"models.{model.kind.value}.{mode}.predict"

    # -- counts taken where the work happens ----------------------------------
    def _mark_used(self, docs) -> None:
        for doc in docs:
            if id(doc) in self._preprocessed:
                self._used.add(id(doc))

    def _after_preprocess(self, arguments, result) -> None:
        self.counts[self.round]["pipeline.docs_preprocessed"] += len(
            arguments["corpus"].documents
        )
        for doc in result.documents:
            self._preprocessed[id(doc)] = doc

    def _after_build_vocabulary(self, arguments, result) -> None:
        self._mark_used(arguments["train_docs"])
        self.counts[self.round]["pipeline.variant_terms"] = variant_terms(
            result.token_to_index
        )

    def _after_vectorize_documents(self, arguments, result) -> None:
        self._mark_used(arguments["docs"])
        self._modes[id(result.rows)] = (result.rows, result.mode)
        self.counts[self.round]["vectorize.nnz"] += sum(row.nnz for row in result.rows)

    def _after_apply_mask(self, arguments, result) -> None:
        self._modes[id(result.rows)] = (result.rows, result.mode)

    def _after_train(self, arguments, result) -> None:
        if result.kind.value == "random_forest":
            self.counts[self.round]["models.random_forest.nodes"] += _forest_nodes(result)

    # -- summaries -----------------------------------------------------------
    def self_times(self, round_index: int) -> dict[str, float]:
        child_time = defaultdict(float)
        for name, start, end, parent, _round in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, span_round) in enumerate(self.spans):
            if span_round == round_index:
                totals[name] += end - start - child_time[index]
        return dict(totals)

    def span_names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def spans_as_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "round": rnd}
            for name, start, end, parent, rnd in self.spans
        ]
