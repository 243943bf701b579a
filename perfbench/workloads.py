"""The benchmark's workloads: inputs, set-up commands, timed round, checks.

Each workload is a closed loop: one process runs the ``pashtext`` commands
of a round one after another, and repeats whole rounds.  Set-up commands
run in their own processes before that, so set-up time and the timed
process's memory are measured apart.
"""

from __future__ import annotations

from pathlib import Path

import checks
import gen
from tracing import KINDS

GRID_OUTPUTS = (
    "grid.json",
    "split.json",
    "accuracy_table.md",
    "accuracy_table.csv",
    "per_class_tables.md",
    "per_class_tables.csv",
)


def _whitespace_tokens(corpus):
    """Token lists of a `pashtext synth` corpus, whose text is plain words."""
    return {doc_id: text.split() for doc_id, (_label, text) in corpus.items()}


def _labels(corpus) -> dict[str, str]:
    return {doc_id: label for doc_id, (label, _text) in corpus.items()}


class Workload:
    """Defaults shared by the workloads below.

    `spans` names the trace spans a workload's timed rounds must record and
    `setup_spans` those its set-up must record; `setup_bundles` and
    `round_bundles` are the bundle files written in set-up or in the rounds.
    """

    setup_spans: tuple[str, ...] = ()
    setup_bundles: tuple[str, ...] = ()
    round_bundles: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def prepare(self) -> None:
        """Write the inputs the benchmark makes itself (none by default)."""


class DeskGrid(Workload):
    """The ROADMAP desk grid: `pashtext grid` with default parameters."""

    name = "desk_grid"
    why = "the ROADMAP headline: all 16 cells on the 800-document desk corpus; training dominates"
    spans = (
        "cli.other", "corpus.load", "corpus.split", "pipeline.preprocess",
        "vectorize.vocabulary", "vectorize.vectorize", "metrics.evaluate",
        "grid.report", "grid.other",
    ) + tuple(f"models.{k}.{m}.{s}" for k in KINDS for m in ("unigram", "tfidf")
              for s in ("train", "predict"))

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.corpus = work / "corpus.jsonl"
        self.out = work / "grid"

    def setup_commands(self):
        return [
            ["synth", "--classes", "8", "--per-class", "100", "--noise", "0.3",
             "--seed", "42", "--out", str(self.corpus)],
            ["ingest", "--corpus", str(self.corpus)],
        ]

    def round_commands(self):
        return [["grid", "--corpus", str(self.corpus), "--fraction", "0.8",
                 "--seed", str(self.seed), "--out", str(self.out)]]

    def digest_paths(self):
        return [str(self.out / name) for name in GRID_OUTPUTS]

    def check(self):
        labels = _labels(checks.read_corpus(self.corpus))
        split = checks.read_json(self.out / "split.json")
        errors = checks.split_errors(split, labels, 0.8, self.seed)
        grid = checks.read_json(self.out / "grid.json")
        if (grid["seed"], grid["n_train"], grid["n_test"]) != (
            self.seed, len(split["train_ids"]), len(split["test_ids"])
        ):
            errors.append("grid.json seed or side sizes disagree with split.json")
        f1s = []
        for cell in grid["cells"]:
            where = f"grid cell {cell['kind']}/{cell['mode']}"
            if cell["error"] is not None:
                errors.append(f"{where} failed: {cell['error']}")
                continue
            report = cell["report"]
            errors += checks.report_errors(report, where)
            errors += checks.support_errors(report, split["test_ids"], labels, where)
            f1s.append(checks.macro_f1(report))
        return errors, f1s


class NoisyTrainEval(Workload):
    """split, train (multinomial NB, TFIDF, chi-square top-k), evaluate."""

    name = "noisy_train_eval"
    why = "8000 noisy Arabic-script documents; preprocessing and vectorizing dominate, training is tiny"
    per_class = 1000
    select_k = 2000
    spans = (
        "cli.other", "corpus.load", "corpus.split", "pipeline.preprocess",
        "vectorize.vocabulary", "vectorize.vectorize", "vectorize.select",
        "vectorize.mask", "models.multinomial_nb.tfidf.train",
        "models.multinomial_nb.tfidf.predict", "models.io.save", "models.io.load",
        "metrics.evaluate",
    )

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.corpus = work / "input" / "corpus.jsonl"
        self.out = work / "run"

    def prepare(self) -> None:
        gen.write(self.corpus.parent, self.per_class, self.seed)

    def setup_commands(self):
        return [["ingest", "--corpus", str(self.corpus)]]

    def round_commands(self):
        corpus, split, out = str(self.corpus), str(self.out / "split.json"), str(self.out)
        return [
            ["split", "--corpus", corpus, "--fraction", "0.8", "--seed", str(self.seed),
             "--out", out],
            ["train", "--corpus", corpus, "--split", split, "--classifier",
             "multinomial_nb", "--features", "tfidf", "--select-k", str(self.select_k),
             "--seed", str(self.seed), "--out", out],
            ["evaluate", "--model", str(self.out / "model.json"), "--corpus", corpus,
             "--split", split, "--out", out],
        ]

    def digest_paths(self):
        return [str(self.out / name) for name in ("split.json", "model.json", "eval.json")]

    @property
    def round_bundles(self):
        return (str(self.out / "model.json"),)

    def check(self):
        labels = _labels(checks.read_corpus(self.corpus))
        tokens = checks.read_json(self.corpus.parent / "expected_tokens.json")
        split = checks.read_json(self.out / "split.json")
        bundle = checks.read_json(self.out / "model.json")
        report = checks.read_json(self.out / "eval.json")
        index = {name: i for i, name in enumerate(bundle["labels"])}
        train = split["train_ids"]
        errors = checks.split_errors(split, labels, 0.8, self.seed)
        errors += checks.vocabulary_errors(bundle["vocabulary"], [tokens[i] for i in train])
        errors += checks.chi2_errors(bundle, [tokens[i] for i in train],
                                     [index[labels[i]] for i in train], self.select_k)
        errors += _bundle_errors(bundle, report, split, labels, tokens, "eval.json")
        return errors, [checks.macro_f1(report)]


class BundlePredict(Workload):
    """evaluate one saved bundle per classifier kind on a large test side."""

    name = "bundle_predict"
    why = "8 saved bundles evaluated on 960 noisier synth documents; bundle loading and prediction dominate"
    per_class = 150
    fraction = 0.2
    spans = (
        "cli.other", "corpus.load", "pipeline.preprocess", "vectorize.vectorize",
        "models.io.load", "metrics.evaluate",
    ) + tuple(f"models.{k}.tfidf.predict" for k in KINDS)
    setup_spans = ("models.io.save",)

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.corpus = work / "corpus.jsonl"
        self.split = work / "split.json"

    def setup_commands(self):
        corpus = str(self.corpus)
        commands = [
            ["synth", "--classes", "8", "--per-class", str(self.per_class), "--noise", "0.7",
             "--seed", str(self.seed), "--out", corpus],
            ["split", "--corpus", corpus, "--fraction", str(self.fraction),
             "--seed", str(self.seed), "--out", str(self.work)],
        ]
        for kind in KINDS:
            # Fewer MLP epochs keep set-up short without changing the model's shape.
            epochs = ["--param", "epochs=20"] if kind == "mlp" else []
            commands.append(
                ["train", "--corpus", corpus, "--split", str(self.split), "--classifier",
                 kind, "--features", "tfidf", "--seed", str(self.seed),
                 "--out", str(self.work / "bundles" / kind)] + epochs
            )
        return commands

    def round_commands(self):
        return [
            ["evaluate", "--model", str(self.work / "bundles" / kind / "model.json"),
             "--corpus", str(self.corpus), "--split", str(self.split),
             "--out", str(self.work / "eval" / kind)]
            for kind in KINDS
        ]

    def digest_paths(self):
        return [str(self.work / "eval" / kind / "eval.json") for kind in KINDS]

    @property
    def setup_bundles(self):
        return tuple(str(self.work / "bundles" / kind / "model.json") for kind in KINDS)

    def check(self):
        corpus = checks.read_corpus(self.corpus)
        labels, tokens = _labels(corpus), _whitespace_tokens(corpus)
        split = checks.read_json(self.split)
        errors = checks.split_errors(split, labels, self.fraction, self.seed)
        f1s = []
        for kind in KINDS:
            bundle = checks.read_json(self.work / "bundles" / kind / "model.json")
            report = checks.read_json(self.work / "eval" / kind / "eval.json")
            errors += checks.vocabulary_errors(
                bundle["vocabulary"], [tokens[i] for i in split["train_ids"]]
            )
            errors += _bundle_errors(bundle, report, split, labels, tokens, f"{kind} eval.json")
            f1s.append(checks.macro_f1(report))
        return errors, f1s


def _bundle_errors(bundle, report, split, labels, tokens, where):
    index = {name: i for i, name in enumerate(bundle["labels"])}
    test = [i for i in split["test_ids"] if tokens[i]]
    errors = checks.report_errors(report, where)
    errors += checks.support_errors(report, test, labels, where)
    errors += checks.prediction_errors(
        bundle, report, [tokens[i] for i in test], [index[labels[i]] for i in test], where
    )
    return errors


WORKLOADS = {w.name: w for w in (DeskGrid, NoisyTrainEval, BundlePredict)}
