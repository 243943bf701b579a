"""Batch command-line surface: ingest, split, train, evaluate, grid, report, synth.

Every command is deterministic given its flags; all randomness flows from
one --seed value per command.  Exit codes: 0 success, 1 usage error,
2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .corpus import (
    Corpus,
    LabelSet,
    SplitSpec,
    load_corpus,
    load_split,
    save_corpus,
    save_split,
    stratified_split,
    validate,
)
from .errors import DataError, PashtextError, UsageError
from .grid import GridReport, run_grid
from .metrics import EvalReport, evaluate_predictions
from .models import ModelKind, train
from .models.io import model_document, model_from_document
from .models.params import DEFAULT_SEED, params_with_overrides
from .pipeline import PASHTO_DEFAULT, PipelineConfig
from .synth import generate_corpus
from .vectorize import (
    FEATURE_MODES,
    TEST,
    TRAIN,
    UNIGRAM,
    FeatureMask,
    Vocabulary,
    split_features,
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


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_params(pairs) -> dict[str, str]:
    overrides = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        overrides[key] = value
    return overrides


def _save_bundle(path: Path, model, vocab: Vocabulary, mode: str,
                 config: PipelineConfig, labels: LabelSet,
                 mask: FeatureMask | None) -> None:
    bundle = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "labels": list(labels.names),
        "pipeline": config.to_json_dict(),
        "mode": mode,
        "vocabulary": vocab.to_json_dict(),
        "mask": None
        if mask is None
        else {"kept": mask.kept_indices.tolist(), "scores": mask.scores.tolist()},
        "model": model_document(model),
    }
    _write_text(path, json.dumps(bundle, sort_keys=True, ensure_ascii=False) + "\n")


def _load_bundle(path):
    try:
        bundle = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model bundle {path}: {exc}") from exc
    if not isinstance(bundle, dict) or bundle.get("format") != BUNDLE_FORMAT:
        raise DataError(f"{path} is not a {BUNDLE_FORMAT} file")
    if bundle.get("version") != BUNDLE_VERSION:
        raise DataError(f"unsupported bundle version {bundle.get('version')!r}")
    try:
        mask = bundle["mask"]
        return {
            "labels": LabelSet(bundle["labels"]),
            "config": PipelineConfig.from_json_dict(bundle["pipeline"]),
            "mode": bundle["mode"],
            "vocab": Vocabulary.from_json_dict(bundle["vocabulary"]),
            "mask": None
            if mask is None
            else FeatureMask(
                kept_indices=np.asarray(mask["kept"], dtype=np.int64),
                scores=np.asarray(mask["scores"], dtype=np.float64),
            ),
            "model": model_from_document(bundle["model"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"malformed model bundle {path}: {type(exc).__name__}: {exc}"
        ) from None


def _cmd_ingest(args) -> int:
    labels = LabelSet(args.labels.split(",")) if args.labels else None
    corpus = load_corpus(args.corpus, labels)
    report = validate(corpus)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=False))
    return EXIT_OK


def _cmd_split(args) -> int:
    corpus = load_corpus(args.corpus)
    spec = SplitSpec(train_fraction=args.fraction, seed=args.seed)
    split = stratified_split(corpus, spec)
    path = _out_dir(args) / "split.json"
    save_split(split, spec, path)
    print(
        f"split {len(corpus)} documents into {len(split.train_ids)} train / "
        f"{len(split.test_ids)} test -> {path}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    kind = ModelKind(args.classifier)
    overrides = _parse_params(args.param)
    params = params_with_overrides(kind, args.seed, overrides)
    corpus = load_corpus(args.corpus)
    split, _spec = load_split(args.split)
    config = PASHTO_DEFAULT
    features = split_features(
        corpus, split, config, [args.features], sides=[TRAIN], select_k=args.select_k
    )
    vocab, mask = features.vocab, features.mask
    matrix = features.train[args.features]
    started = time.perf_counter()
    model = train(kind, matrix, params, label_count=len(corpus.labels))
    elapsed = time.perf_counter() - started
    out = _out_dir(args)
    bundle_path = out / "model.json"
    _save_bundle(bundle_path, model, vocab, args.features, config, corpus.labels, mask)
    log_lines = [
        f"classifier: {kind.value}",
        f"features: {args.features}",
        f"params: {params!r}",
        f"train_documents: {matrix.n_rows}",
        f"vocabulary: {len(vocab)} tokens"
        + (f" (top {mask.kept_indices.size} kept)" if mask is not None else ""),
        f"seconds: {elapsed:.3f}",
    ]
    _write_text(out / "train.log", "\n".join(log_lines) + "\n")
    print(
        f"trained {kind.value} on {matrix.n_rows} documents "
        f"({matrix.dim} features) in {elapsed:.2f}s -> {bundle_path}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    bundle = _load_bundle(args.model)
    corpus = load_corpus(args.corpus)
    split, _spec = load_split(args.split)
    labels: LabelSet = bundle["labels"]
    for doc in corpus.documents:
        if doc.label not in labels:
            raise DataError(
                f"document {doc.id!r} has label {doc.label!r} unknown to the model"
            )
    # Re-labelled with the model's label set, so rows carry its class indices.
    features = split_features(
        Corpus(corpus.documents, labels), split, bundle["config"], [bundle["mode"]],
        sides=[TEST], vocab=bundle["vocab"], mask=bundle["mask"],
    )
    matrix = features.test[bundle["mode"]]
    preds = bundle["model"].predict_rows(matrix)
    report = evaluate_predictions(
        matrix.row_labels, preds, len(labels), labels.names
    )
    out = _out_dir(args)
    if args.format == "json":
        path = out / "eval.json"
        _write_text(path, report.to_json_text())
    elif args.format == "markdown":
        path = out / "eval.md"
        _write_text(path, report.to_markdown())
    else:
        path = out / "eval.csv"
        _write_text(path, report.to_csv())
    print(
        f"evaluated {matrix.n_rows} documents: accuracy {report.accuracy:.4f} "
        f"-> {path}"
    )
    return EXIT_OK


def _cmd_grid(args) -> int:
    corpus = load_corpus(args.corpus)
    spec = SplitSpec(train_fraction=args.fraction, seed=args.seed)
    split = stratified_split(corpus, spec)
    report = run_grid(
        corpus,
        split,
        PASHTO_DEFAULT,
        seed=args.seed,
        select_k=args.select_k,
    )
    out = _out_dir(args)
    save_split(split, spec, out / "split.json")
    _write_text(out / "grid.json", report.to_json_text())
    _write_text(out / "accuracy_table.md", report.accuracy_table_markdown())
    _write_text(out / "accuracy_table.csv", report.accuracy_table_csv())
    _write_text(out / "per_class_tables.md", report.per_class_tables_markdown())
    _write_text(out / "per_class_tables.csv", report.per_class_tables_csv())
    failed = [c for c in report.cells if c.error is not None]
    print(report.accuracy_table_markdown())
    print(f"grid complete: {16 - len(failed)}/16 cells succeeded -> {out}")
    if failed:
        for cell in failed:
            print(f"  failed {cell.kind.value}/{cell.mode}: {cell.error}")
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read report {args.input}: {exc}") from exc
    kind = data.get("format") if isinstance(data, dict) else None
    if kind == "pashtext-grid-report":
        report = GridReport.from_dict(data)
        if args.format == "json":
            text = report.to_json_text()
        elif args.table == "accuracy":
            text = (
                report.accuracy_table_markdown()
                if args.format == "markdown"
                else report.accuracy_table_csv()
            )
        else:
            text = (
                report.per_class_tables_markdown()
                if args.format == "markdown"
                else report.per_class_tables_csv()
            )
    elif kind == "pashtext-eval-report":
        report = EvalReport.from_dict(data)
        if args.format == "json":
            text = report.to_json_text()
        elif args.format == "markdown":
            text = report.to_markdown()
        else:
            text = report.to_csv()
    else:
        raise DataError(f"{args.input} is not a known report document")
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_synth(args) -> int:
    corpus = generate_corpus(
        classes=args.classes,
        per_class=args.per_class,
        signature_size=args.signature_size,
        noise_rate=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, out)
    print(
        f"generated {len(corpus)} documents across {len(corpus.labels)} classes -> {out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pashtext",
        description="Dependency-light text-classification experiments "
        "for Arabic-script corpora.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument(
        "--verbose", action="store_true", help="enable debug logging"
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
        "--labels", default=None,
        help="comma-separated label universe (default: labels found in the corpus)",
    )

    split = command("split", "persist a stratified train/test split", _cmd_split)
    split.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    split.add_argument("--fraction", type=float, default=0.8,
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
    train_cmd.add_argument("--param", action="append", metavar="KEY=VALUE",
                           help="hyperparameter override, repeatable")
    train_cmd.add_argument("--select-k", type=int, default=None,
                           help="keep only the k best chi-square features")
    train_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help="training seed")
    train_cmd.add_argument("--out", required=True, help="output directory")

    evaluate = command("evaluate", "evaluate a trained bundle on a split's test side",
                       _cmd_evaluate)
    evaluate.add_argument("--model", required=True, help="model bundle from `train`")
    evaluate.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    evaluate.add_argument("--split", required=True, help="split file from `split`")
    evaluate.add_argument("--format", choices=("json", "markdown", "csv"),
                          default="json", help="report format")
    evaluate.add_argument("--out", default=".", help="output directory")

    grid = command("grid", "run the full 16-cell classifier x feature grid", _cmd_grid)
    grid.add_argument("--corpus", required=True, help="corpus JSONL file or directory")
    grid.add_argument("--fraction", type=float, default=0.8,
                      help="per-class train fraction")
    grid.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="seed for the split and all cells")
    grid.add_argument("--select-k", type=int, default=None,
                      help="keep only the k best chi-square features")
    grid.add_argument("--out", required=True, help="output directory")

    report = command("report", "re-emit a saved grid/eval report", _cmd_report)
    report.add_argument("--input", required=True, help="grid.json or eval.json file")
    report.add_argument("--format", choices=("json", "markdown", "csv"),
                        default="markdown", help="output format")
    report.add_argument("--table", choices=("accuracy", "per-class"),
                        default="accuracy",
                        help="which grid table to emit (grid reports only)")
    report.add_argument("--out", default=None,
                        help="output file (default: print to stdout)")

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
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
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
