"""Every saved artifact either loads or is refused with one error line.

Each dict key of a saved bundle (one per model kind), a split file, a grid
report and an eval report is deleted, or its value is swapped for one of
another type: a string becomes [], anything else "x".  Inside a list only
the first element is visited.  Every command that reads the mutated file
must then exit 2 with a single `error:` line and no traceback.
"""

import json

import pytest

from pashtext.cli import main
from pashtext.models import ModelKind

# Small enough that each kind trains in a fraction of a second; the knn
# bundle also carries a chi-square mask.
TRAIN_ARGS = {
    "random_forest": ["--param", "n_trees=3"],
    "mlp": ["--param", "epochs=2", "--features", "tfidf"],
    "logistic_regression": ["--param", "epochs=5"],
    "linear_svm": ["--param", "epochs=5", "--features", "tfidf"],
    "knn": ["--param", "k=3", "--select-k", "20"],
}
ARTIFACTS = [f"bundle-{kind.value}" for kind in ModelKind] + ["split", "grid", "eval"]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The corpus plus one saved file of every artifact type."""
    root = tmp_path_factory.mktemp("artifacts")
    corpus = str(root / "corpus.jsonl")
    split = str(root / "split.json")
    assert main(["synth", "--classes", "3", "--per-class", "12", "--seed", "9",
                 "--out", corpus]) == 0
    assert main(["split", "--corpus", corpus, "--fraction", "0.75", "--seed", "9",
                 "--out", str(root)]) == 0
    files = {"corpus": corpus, "split": split}
    for kind in ModelKind:
        out = root / kind.value
        assert main(["train", "--corpus", corpus, "--split", split,
                     "--classifier", kind.value, "--out", str(out),
                     *TRAIN_ARGS.get(kind.value, [])]) == 0
        files[f"bundle-{kind.value}"] = str(out / "model.json")
    assert main(["evaluate", "--model", files["bundle-multinomial_nb"],
                 "--corpus", corpus, "--split", split, "--out", str(root)]) == 0
    files["eval"] = str(root / "eval.json")
    assert main(["grid", "--corpus", corpus, "--fraction", "0.75", "--seed", "9",
                 "--out", str(root / "grid")]) == 0
    files["grid"] = str(root / "grid" / "grid.json")
    return files


def commands(artifact, path, files, out):
    """Every command line that reads the artifact from `path`."""
    if artifact in ("grid", "eval"):
        return [["report", "--input", path]]
    bundle = path if artifact.startswith("bundle-") else files["bundle-multinomial_nb"]
    split = path if artifact == "split" else files["split"]
    lines = [["evaluate", "--model", bundle, "--corpus", files["corpus"],
              "--split", split, "--out", out]]
    if artifact == "split":
        lines.append(["train", "--classifier", "multinomial_nb", "--corpus",
                      files["corpus"], "--split", split, "--out", out])
    return lines


def mutations(value, path=()):
    """(key path, replacement) for every dict key below `value`; a None
    replacement deletes the key."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,), None
            yield path + (key,), [] if isinstance(item, str) else "x"
            yield from mutations(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from mutations(value[0], path + (0,))


def mutated(document, path, replacement):
    document = json.loads(json.dumps(document))
    owner = document
    for key in path[:-1]:
        owner = owner[key]
    if replacement is None:
        del owner[path[-1]]
    else:
        owner[path[-1]] = replacement
    return document


def refusal_fault(argv, capsys):
    """None when `argv` exits 2 with one traceback-free error line."""
    code = main(argv)
    err = capsys.readouterr().err
    if code == 2 and err.startswith("error: ") and err.count("\n") == 1:
        return None
    return f"exit {code}: {err.strip()[:200]!r}"


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_every_mutation_is_refused(saved, artifact, tmp_path, capsys):
    with open(saved[artifact], encoding="utf-8") as handle:
        original = json.load(handle)
    out = str(tmp_path / "out")
    for argv in commands(artifact, saved[artifact], saved, out):
        assert main(argv) == 0, argv  # the unmutated file loads
    capsys.readouterr()
    target = tmp_path / "mutated.json"
    faults = []
    count = 0
    for path, replacement in mutations(original):
        count += 1
        target.write_text(json.dumps(mutated(original, path, replacement)),
                          encoding="utf-8")
        for argv in commands(artifact, str(target), saved, out):
            fault = refusal_fault(argv, capsys)
            if fault is not None:
                change = "deleted" if replacement is None else f"set to {replacement!r}"
                faults.append(f"{'.'.join(map(str, path))} {change}: {argv[0]} {fault}")
    assert count >= 8
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize(
    "artifact, defect",
    [
        ("split", lambda split: dict(split, train_ids=5)),
        ("split", lambda split: [split]),
        ("grid", lambda grid: grid["cells"][0].update(kind="zz") or grid),
        ("eval", lambda report: dict(
            report, confusion=[report["confusion"][0][1:], *report["confusion"][1:]]
        )),
        ("bundle-knn", lambda bundle: dict(bundle, mask=dict(
            bundle["mask"], scores=bundle["mask"]["scores"] + [0.0]
        ))),
        ("grid", lambda grid: dict(grid, n_train=-1)),
        ("grid", lambda grid: dict(grid, n_test=grid["n_test"] + 1)),
        ("bundle-knn", lambda bundle: bundle["model"]["payload"]["rows"][0].update(
            values=[-1.0] + bundle["model"]["payload"]["rows"][0]["values"][1:]
        ) or bundle),
    ],
    ids=["split-train-ids-5", "split-top-level-list", "grid-kind-zz",
         "eval-ragged-confusion", "mask-scores-one-long", "grid-n-train-negative",
         "grid-n-test-not-cell-total", "knn-value-negative"],
)
def test_hand_picked_defects_are_refused(saved, artifact, defect, tmp_path, capsys):
    with open(saved[artifact], encoding="utf-8") as handle:
        document = defect(json.load(handle))
    target = tmp_path / "defective.json"
    target.write_text(json.dumps(document), encoding="utf-8")
    for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
        assert refusal_fault(argv, capsys) is None, argv


@pytest.mark.parametrize(
    "field, entry, message",
    [
        ("indices", 0.5, "knn stored indices must be integers"),
        ("indices", 1.0, "knn stored indices must be integers"),
        ("indices", True, "knn stored indices must be integers"),
        ("row_labels", 1.0, "knn stored row_labels must be integers"),
        ("row_labels", False, "knn stored row_labels must be integers"),
        ("values", True, "knn stored values must be numbers"),
        ("values", "0.5", "knn stored values must be numbers"),
    ],
)
def test_knn_payload_entries_of_another_json_type_are_refused(
    saved, field, entry, message, tmp_path, capsys
):
    """Each entry would otherwise load cast: 0.5 to index 0, true to 1."""
    with open(saved["bundle-knn"], encoding="utf-8") as handle:
        bundle = json.load(handle)
    payload = bundle["model"]["payload"]
    owner = payload if field == "row_labels" else next(
        row for row in payload["rows"] if row["indices"])
    owner[field] = [entry] + owner[field][1:]
    target = tmp_path / "defective.json"
    target.write_text(json.dumps(bundle), encoding="utf-8")
    argv = commands("bundle-knn", str(target), saved, str(tmp_path / "out"))[0]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "artifact, field",
    [("split", ("train_ids",)), ("bundle-decision_tree", ("model", "payload", "root"))],
    ids=["split-train-ids", "bundle-tree-root"],
)
def test_deeply_nested_json_is_refused(saved, artifact, field, tmp_path, capsys):
    """A field nested 100,000 lists deep is too deep for the JSON parser."""
    with open(saved[artifact], encoding="utf-8") as handle:
        document = json.load(handle)
    text = json.dumps(mutated(document, field, "NESTED"))
    target = tmp_path / "nested.json"
    target.write_text(text.replace('"NESTED"', "[" * 100_000 + "]" * 100_000),
                      encoding="utf-8")
    for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
        assert refusal_fault(argv, capsys) is None, argv
