"""Batch command-line surface: ingest, split, train, evaluate, grid, synth.

Every command is deterministic given its flags; all randomness flows from
one --seed value per command.  Exit codes: 0 success, 1 usage error,
2 data error, 3 runtime failure.

Each handler imports the modules it runs as it runs, so a process loads
only what its command needs: `ingest`, `split` and `synth` load no model
code, and the parser needs only the kind and feature-mode names.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
import time
from pathlib import Path

from .corpus import (
    LabelSet,
    load_corpus,
    load_split,
    save_corpus,
    save_split,
    stratified_split,
    validate,
)
from .errors import (
    DataError, PashtextError, UsageError, expect_format, loads_as_written, malformed,
    read_json, write_output,
)
from .kinds import ModelKind
from .pipeline import PROFILE_RECORD
from .prng import DEFAULT_SEED
from .vectorize import (
    FEATURE_MODES,
    UNIGRAM,
    FeatureMask,
    Vocabulary,
    feature_matrix,
    fit_features,
    side_documents,
    vectorize_documents,
)

logger = logging.getLogger(__name__)

BUNDLE_FORMAT = "pashtext-bundle"
BUNDLE_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so main() can map
    usage problems to exit code 1 (argparse's native choice is 2)."""

    def error(self, message):
        raise UsageError(message)


def _at_least_one(text: str) -> int:
    """argparse type of an integer that must be 1 or more."""
    if not text.strip().removeprefix("+").isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _train_fraction(text: str) -> float:
    """argparse type of a per-class train fraction, a number strictly
    between 0 and 1 (not NaN)."""
    try:
        fraction = float(text)
    except ValueError:
        fraction = math.nan
    if not 0.0 < fraction < 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return fraction


def _label_set(text: str) -> LabelSet | None:
    """argparse type of a comma-separated label set, each name stripped of
    the whitespace around it; empty means the labels found in the corpus."""
    try:
        return LabelSet(name.strip() for name in text.split(",")) if text else None
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _param(text: str) -> tuple[str, str]:
    """argparse type of one `key=value` hyperparameter override."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expects key=value, got {text!r}")
    return key, value


def _bundle(model: dict, vocab: Vocabulary, mode: str, labels: LabelSet,
            mask: FeatureMask | None) -> dict:
    return {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "labels": list(labels.names),
        "pipeline": PROFILE_RECORD,
        "mode": mode,
        "vocabulary": vocab.to_json_dict(),
        "mask": None if mask is None else mask.to_json_dict(),
        "model": model,
    }


def _save_bundle(path: Path, model, vocab: Vocabulary, mode: str,
                 labels: LabelSet, mask: FeatureMask | None) -> None:
    from .models.io import model_document

    bundle = _bundle(model_document(model), vocab, mode, labels, mask)
    text = json.dumps(bundle, sort_keys=True, ensure_ascii=False, allow_nan=False)
    write_output(path, text + "\n")


def _load_bundle(path) -> dict:
    from .models.io import model_from_document

    what = f"model bundle {path}"
    bundle = read_json(path, "model bundle")
    try:
        expect_format(bundle, BUNDLE_FORMAT, BUNDLE_VERSION)
        with malformed(what):
            labels, mode = LabelSet(map(str, bundle["labels"])), str(bundle["mode"])
            vocab = Vocabulary.from_json_dict(bundle["vocabulary"])
            mask = None if bundle["mask"] is None else FeatureMask.from_json_dict(bundle["mask"])
            model = model_from_document(bundle["model"])
        # model_from_document compared the model document: it is written back as loaded.
        loads_as_written(_bundle(bundle["model"], vocab, mode, labels, mask), bundle, what)
        if len(labels) != model.label_count:
            raise DataError(f"{what} names {len(labels)} labels "
                            f"for a {model.label_count}-class model")
        if mask is not None and mask.scores.size != len(vocab):
            raise DataError(f"{what} has a mask for another vocabulary")
        if mode not in FEATURE_MODES:
            raise DataError(f"unknown feature mode {mode!r}")
        features = len(vocab) if mask is None else mask.kept_indices.size
        if model.feature_dimension != features:
            raise DataError(f"{what} has {features} features for a model "
                            f"of feature dimension {model.feature_dimension}")
        if model.kind is ModelKind.KNN and model.matrix.mode != mode:
            raise DataError(f"{what} has {mode!r} features for "
                            f"a knn model that stores {model.matrix.mode!r} rows")
    except DataError as exc:
        if what in str(exc):  # named where it was raised
            raise
        raise DataError(f"{what}: {exc}") from None
    return {"labels": labels, "mode": mode, "vocab": vocab, "mask": mask, "model": model}


def _split_side(corpus, path, side: str) -> list:
    """`side_documents` of one side ("train" or "test") of the split file
    `path`. A side that names ids the corpus lacks, or no usable document,
    is refused naming the file, as every other defect of a split file is."""
    split = load_split(path)
    try:
        return side_documents(corpus, split, side)
    except DataError as exc:
        raise DataError(f"split file {path}: {exc}") from None


def _cmd_ingest(args) -> int:
    corpus = load_corpus(args.corpus, args.labels)
    print(json.dumps(validate(corpus), indent=2, sort_keys=True, ensure_ascii=False,
                     allow_nan=False))
    return EXIT_OK


def _cmd_split(args) -> int:
    corpus = load_corpus(args.corpus)
    split = stratified_split(corpus, args.fraction, args.seed)
    path = Path(args.out) / "split.json"
    save_split(split, path)
    print(
        f"split {len(corpus)} documents into {len(split.train_ids)} train / "
        f"{len(split.test_ids)} test -> {path}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    from .models import train
    from .models.params import make_params

    kind = ModelKind(args.classifier)
    params = make_params(kind, dict(args.param or ()), args.seed)
    corpus = load_corpus(args.corpus)
    labels = corpus.labels
    docs = _split_side(corpus, args.split, "train")
    del corpus  # its texts are not held through the fit
    vocab, mask, counts = fit_features(docs, labels, args.select_k)
    matrix = feature_matrix(counts, vocab, mask, args.features)
    del docs, counts  # not held through training and saving
    started = time.perf_counter()
    model = train(kind, matrix, params, label_count=len(labels))
    elapsed = time.perf_counter() - started
    bundle_path = Path(args.out) / "model.json"
    _save_bundle(bundle_path, model, vocab, args.features, labels, mask)
    print(
        f"trained {kind.value} on {matrix.n_rows} documents "
        f"({matrix.dim} features) in {elapsed:.2f}s -> {bundle_path}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .metrics import evaluate_predictions

    bundle = _load_bundle(args.model)
    labels: LabelSet = bundle["labels"]
    # Loaded under the model's label set, so rows carry its class indices.
    corpus = load_corpus(args.corpus, labels)
    docs = _split_side(corpus, args.split, "test")
    del corpus  # its texts are not held through counting and prediction
    counts = vectorize_documents(docs, bundle["vocab"], labels)
    matrix = feature_matrix(counts, bundle["vocab"], bundle["mask"], bundle["mode"])
    del docs, counts  # not held through prediction
    preds = bundle["model"].predict_rows(matrix)
    report = evaluate_predictions(matrix.row_labels, preds, labels.names)
    out = Path(args.out)
    write_output(out / "eval.json", report.to_json_text())
    write_output(out / "eval.md", report.to_markdown())
    write_output(out / "eval.csv", report.to_csv())
    print(f"evaluated {matrix.n_rows} documents: accuracy {report.accuracy:.4f} -> {out}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    from .grid import run_grid

    corpus = load_corpus(args.corpus)
    split = stratified_split(corpus, args.fraction, args.seed)
    report = run_grid(corpus, split, select_k=args.select_k)
    out = Path(args.out)
    save_split(split, out / "split.json")
    write_output(out / "grid.json", report.to_json_text())
    write_output(out / "accuracy_table.md", report.accuracy_table_markdown())
    write_output(out / "accuracy_table.csv", report.accuracy_table_csv())
    write_output(out / "per_class_tables.md", report.per_class_tables_markdown())
    write_output(out / "per_class_tables.csv", report.per_class_tables_csv())
    failed = [c for c in report.cells if c.error is not None]
    cells = len(report.cells)
    print(report.accuracy_table_markdown())
    print(f"grid complete: {cells - len(failed)}/{cells} cells succeeded -> {out}")
    if failed:
        for cell in failed:
            print(f"  failed {cell.kind.value}/{cell.mode}: {cell.error}")
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .synth import generate_corpus

    corpus = generate_corpus(
        classes=args.classes,
        per_class=args.per_class,
        signature_size=args.signature_size,
        noise_rate=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    save_corpus(corpus, out)
    print(
        f"generated {len(corpus)} documents across {len(corpus.labels)} classes -> {out}"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all six commands, built once per process: parsing
    leaves it unchanged, so every `main` call reuses it."""
    parser = _Parser(
        prog="pashtext",
        description="Dependency-light text-classification experiments "
        "for Arabic-script corpora.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    def command(name, help_text, handler):
        sub = commands.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        sub.set_defaults(func=handler)
        return sub

    ingest = command("ingest", "validate a corpus and print its summary", _cmd_ingest)
    ingest.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    ingest.add_argument(
        "--labels", type=_label_set, default=None,
        help="comma-separated label universe (default: labels found in the corpus)",
    )

    split = command("split", "persist a stratified train/test split", _cmd_split)
    split.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    split.add_argument("--fraction", type=_train_fraction, default=0.8,
                       help="per-class train fraction")
    split.add_argument("--seed", type=int, default=DEFAULT_SEED, help="split seed")
    split.add_argument("--out", required=True, help="output directory")

    train_cmd = command("train", "train one classifier and save its bundle", _cmd_train)
    train_cmd.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    train_cmd.add_argument("--split", required=True, help="split file from `split`")
    train_cmd.add_argument("--features", choices=FEATURE_MODES, default=UNIGRAM,
                           help="feature mode")
    train_cmd.add_argument("--classifier", choices=[k.value for k in ModelKind],
                           required=True, help="classifier kind")
    train_cmd.add_argument("--param", type=_param, action="append", metavar="KEY=VALUE",
                           help="hyperparameter override, repeatable")
    train_cmd.add_argument("--select-k", type=_at_least_one, default=None,
                           help="keep only the k best chi-square features")
    train_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help="training seed")
    train_cmd.add_argument("--out", required=True, help="output directory")

    evaluate = command("evaluate", "evaluate a trained bundle on a split's test side",
                       _cmd_evaluate)
    evaluate.add_argument("--model", required=True, help="model bundle from `train`")
    evaluate.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    evaluate.add_argument("--split", required=True, help="split file from `split`")
    evaluate.add_argument("--out", default=".", help="output directory")

    grid = command("grid", "run the full 16-cell classifier x feature grid", _cmd_grid)
    grid.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    grid.add_argument("--fraction", type=_train_fraction, default=0.8,
                      help="per-class train fraction")
    grid.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="seed for the split and all cells")
    grid.add_argument("--select-k", type=_at_least_one, default=None,
                      help="keep only the k best chi-square features")
    grid.add_argument("--out", required=True, help="output directory")

    synth = command("synth", "generate a deterministic synthetic corpus", _cmd_synth)
    synth.add_argument("--classes", type=int, default=8, help="number of classes")
    synth.add_argument("--per-class", type=int, default=100,
                       help="documents per class")
    synth.add_argument("--signature-size", type=int, default=20,
                       help="signature tokens owned by each class")
    synth.add_argument("--noise", type=float, default=0.3,
                       help="probability that a token is shared noise")
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED, help="generator seed")
    synth.add_argument("--out", required=True, help="output corpus JSONL path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse --help exits itself
            return EXIT_OK if not exc.code else EXIT_USAGE
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            print("error: a command is required", file=sys.stderr)
            return EXIT_USAGE
        logging.basicConfig(
            level=logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PashtextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # keep the one-line diagnostic contract
        logger.exception("unexpected failure")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
