"""The reports `grid` and `evaluate` write are whole and self-consistent.

No command reads these files back, so every property a reader of them can
rely on is asserted here on the files as written: the types JSON keeps
apart (an integer is no boolean), counts that agree across the cells of
one grid, and metrics that follow from each confusion matrix.
"""

import json

import pytest

from pashtext.cli import main
from pashtext.corpus import load_corpus
from pashtext.models import ModelKind
from pashtext.vectorize import FEATURE_MODES

SEED = 9
SELECT_K = 20


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A noisy corpus, the grid run on it, and one evaluation in every format."""
    root = tmp_path_factory.mktemp("written")
    corpus = str(root / "corpus.jsonl")
    assert main(["synth", "--classes", "4", "--per-class", "10", "--noise", "0.6",
                 "--seed", str(SEED), "--out", corpus]) == 0
    grid = root / "grid"
    assert main(["grid", "--corpus", corpus, "--fraction", "0.75", "--seed", str(SEED),
                 "--select-k", str(SELECT_K), "--out", str(grid)]) == 0
    split = str(grid / "split.json")
    model = root / "model"
    assert main(["train", "--corpus", corpus, "--split", split,
                 "--classifier", "decision_tree", "--out", str(model)]) == 0
    evaluation = root / "eval"
    assert main(["evaluate", "--model", str(model / "model.json"), "--corpus", corpus,
                 "--split", split, "--out", str(evaluation)]) == 0
    return {"corpus": corpus, "grid": grid, "eval": evaluation}


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def is_int(value):
    return type(value) is int


def check_eval_report(report, labels, n_test):
    """One evaluation's counts and metrics, as `evaluate` and every grid cell
    write them."""
    assert report["format"] == "pashtext-eval-report"
    assert is_int(report["version"]) and report["version"] == 1
    assert report["labels"] == labels
    confusion = report["confusion"]
    assert len(confusion) == len(labels)
    assert all(len(row) == len(labels) for row in confusion)
    assert all(is_int(count) and count >= 0 for row in confusion for count in row)
    assert sum(map(sum, confusion)) == n_test
    trace = sum(confusion[i][i] for i in range(len(labels)))
    assert report["accuracy"] == trace / n_test
    assert list(report["per_class"]) == labels
    for index, name in enumerate(labels):
        metrics = report["per_class"][name]
        assert is_int(metrics["support"]) and metrics["support"] == sum(confusion[index])
        assert type(metrics["degenerate"]) is bool
        for field in ("precision", "recall", "f1"):
            assert type(metrics[field]) is float and 0.0 <= metrics[field] <= 1.0


def mean(values):
    values = list(values)
    return sum(values) / len(values)


# What a reader of grid.json can rely on, each given the parsed document and
# the text, split file and corpus labels it came from.
GRID_CHECKS = {
    "format-version-1": lambda g, ctx: (
        g["format"] == "pashtext-grid-report" and is_int(g["version"]) and g["version"] == 1),
    "seed-is-the-given-integer": lambda g, ctx: is_int(g["seed"]) and g["seed"] == SEED,
    "select-k-is-the-given-integer": lambda g, ctx: (
        is_int(g["select_k"]) and g["select_k"] == SELECT_K),
    "sizes-are-the-split-files": lambda g, ctx: (
        is_int(g["n_train"]) and is_int(g["n_test"])
        and g["n_train"] == len(ctx["split"]["train_ids"]) > 0
        and g["n_test"] == len(ctx["split"]["test_ids"]) > 0),
    "labels-are-the-corpus-labels": lambda g, ctx: g["labels"] == ctx["labels"],
    "cells-in-canonical-order": lambda g, ctx: (
        [(c["kind"], c["mode"]) for c in g["cells"]]
        == [(kind.value, mode) for kind in ModelKind for mode in FEATURE_MODES]),
    "every-cell-succeeded": lambda g, ctx: all(
        c["error"] is None and c["report"] is not None for c in g["cells"]),
    "cell-accuracy-is-its-reports": lambda g, ctx: all(
        c["accuracy"] == c["report"]["accuracy"] for c in g["cells"]),
    "cells-share-one-support-per-class": lambda g, ctx: len({
        tuple(m["support"] for m in c["report"]["per_class"].values())
        for c in g["cells"]}) == 1,
    "serialised-canonically": lambda g, ctx: ctx["text"] == json.dumps(
        g, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
}


@pytest.mark.parametrize("check", GRID_CHECKS)
def test_written_grid_report_holds(written, check):
    text = (written["grid"] / "grid.json").read_text(encoding="utf-8")
    context = {
        "text": text,
        "split": read_json(written["grid"] / "split.json"),
        "labels": list(load_corpus(written["corpus"]).labels.names),
    }
    assert GRID_CHECKS[check](json.loads(text), context)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_each_grid_cell_is_a_whole_eval_report(written, kind):
    """Both cells of each kind count the grid's test side under its labels."""
    grid = read_json(written["grid"] / "grid.json")
    cells = [c for c in grid["cells"] if c["kind"] == kind.value]
    assert [c["mode"] for c in cells] == list(FEATURE_MODES)
    for cell in cells:
        check_eval_report(cell["report"], grid["labels"], grid["n_test"])


def test_the_noisy_grid_is_not_all_correct(written):
    """Some cell errs, so the accuracy and support checks compare counts that
    are not all on the diagonal."""
    grid = read_json(written["grid"] / "grid.json")
    assert any(c["accuracy"] < 1.0 for c in grid["cells"])


def test_written_eval_report_counts_the_test_side(written):
    report = read_json(written["eval"] / "eval.json")
    split = read_json(written["grid"] / "split.json")
    labels = list(load_corpus(written["corpus"]).labels.names)
    check_eval_report(report, labels, len(split["test_ids"]))


@pytest.mark.parametrize("average", ["macro", "weighted"])
def test_written_eval_averages_follow_the_per_class_metrics(written, average):
    report = read_json(written["eval"] / "eval.json")
    classes = list(report["per_class"].values())
    total = sum(m["support"] for m in classes)
    for field in ("precision", "recall", "f1"):
        if average == "macro":
            expected = mean(m[field] for m in classes)
        else:
            expected = sum(m[field] * m["support"] for m in classes) / total
        assert report[average][field] == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name, header", [("eval.md", "| Class | Precision |"),
                                          ("eval.csv", "class,precision,")],
                         ids=["markdown", "csv"])
def test_written_eval_tables_carry_every_class(written, name, header):
    report = read_json(written["eval"] / "eval.json")
    lines = (written["eval"] / name).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(header)
    rows = lines[2:] if name.endswith(".md") else lines[1:]
    assert len(rows) >= len(report["labels"])
    sep = "| " if name.endswith(".md") else ""
    for label, row in zip(report["labels"], rows):
        assert row.startswith(f"{sep}{label}{' |' if sep else ','}"), row
        support = report["per_class"][label]["support"]
        assert row.rstrip(" |").endswith(str(support)), row
