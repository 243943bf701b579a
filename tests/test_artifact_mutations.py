"""Every saved artifact either loads or is refused with one error line.

Each dict key of a saved bundle (one per model kind) and of a split file
is deleted, or its value is swapped for one of another type: a string
becomes [], anything else "x".  Each JSON object of such a file is also
given one key more.  Inside a list only the first element is visited.
Every command that reads the mutated file must then exit 2 with a single
`error:` line and no traceback.  So must a bundle whose number or boolean
leaf is swapped for another JSON type, and any bundle whose `version` is
`true` or `1.0`.
"""

import json

import pytest

from pashtext.cli import main
from pashtext.models import ModelKind
from pashtext.models.knn import MAX_STORED_VALUE

# Small enough that each kind trains in a fraction of a second; the knn
# bundle also carries a chi-square mask.
TRAIN_ARGS = {
    "random_forest": ["--param", "n_trees=3"],
    "mlp": ["--param", "epochs=2", "--features", "tfidf"],
    "logistic_regression": ["--param", "epochs=5"],
    "linear_svm": ["--param", "epochs=5", "--features", "tfidf"],
    "knn": ["--param", "k=3", "--select-k", "20"],
}
BUNDLES = [f"bundle-{kind.value}" for kind in ModelKind]
ARTIFACTS = BUNDLES + ["split"]


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
    return files


def commands(artifact, path, files, out):
    """Every command line that reads the artifact from `path`."""
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


def objects(value, path=()):
    """The key path of every JSON object in `value`, `value` included.
    Inside a list only the first element is visited."""
    if isinstance(value, dict):
        yield path
        for key, item in value.items():
            yield from objects(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from objects(value[0], path + (0,))


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_every_unknown_key_is_refused(saved, artifact, tmp_path, capsys):
    """No writer writes the key `unknown`, so an object that holds it does
    not load as written, wherever it sits: a tree node and a bundle's model
    document included."""
    with open(saved[artifact], encoding="utf-8") as handle:
        original = json.load(handle)
    target = tmp_path / "extended.json"
    faults = []
    paths = list(objects(original))
    for path in paths:
        target.write_text(json.dumps(mutated(original, path + ("unknown",), 0)),
                          encoding="utf-8")
        for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
            fault = refusal_fault(argv, capsys)
            if fault is not None:
                faults.append(f"{'.'.join(map(str, path)) or 'top'}: {argv[0]} {fault}")
    assert paths
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize(
    "artifact, defect",
    [
        ("split", lambda split: dict(split, train_ids=5)),
        ("split", lambda split: [split]),
        ("bundle-knn", lambda bundle: dict(bundle, mask=dict(
            bundle["mask"], scores=bundle["mask"]["scores"] + [0.0]
        ))),
        ("bundle-knn", lambda bundle: bundle["model"]["payload"]["rows"][0].update(
            values=[-1.0] + bundle["model"]["payload"]["rows"][0]["values"][1:]
        ) or bundle),
        # A JSON true or false is not an integer, although Python's bool is one.
        ("split", lambda split: dict(split, seed=True)),
        ("split", lambda split: dict(split, seed=False)),
        # TFIDF queries scored against the stored counts of a unigram model.
        ("bundle-knn", lambda bundle: dict(bundle, mode="tfidf")),
        # Weights whose scores overflow, and a variance that divides to infinity.
        ("bundle-logistic_regression", lambda bundle: mutated(
            bundle, ("model", "payload", "weights"),
            [[1e308] * len(row) for row in bundle["model"]["payload"]["weights"]],
        )),
        ("bundle-gaussian_nb", lambda bundle: mutated(
            bundle, ("model", "payload", "variances", 0, 0), 1e-320
        )),
        # A log probability whose exp overflows fails the sum check, with no
        # warning printed before the error line.
        ("bundle-multinomial_nb", lambda bundle: mutated(
            bundle, ("model", "payload", "log_token_probs", 0, 0), 1e308
        )),
        # Keys that no split file holds, even if they look like a version tag.
        ("split", lambda split: dict(split, version=True, format=7)),
    ],
    ids=["split-train-ids-5", "split-top-level-list", "mask-scores-one-long",
         "knn-value-negative", "split-seed-true", "split-seed-false", "knn-mode-tfidf",
         "linear-weights-1e308", "gaussian-nb-variance-1e-320", "mnb-log-prob-1e308",
         "split-version-true-format-7"],
)
def test_hand_picked_defects_are_refused(saved, artifact, defect, tmp_path, capsys):
    with open(saved[artifact], encoding="utf-8") as handle:
        document = defect(json.load(handle))
    target = tmp_path / "defective.json"
    target.write_text(json.dumps(document), encoding="utf-8")
    for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
        assert refusal_fault(argv, capsys) is None, argv


REWRITTEN = "knn model document does not load as written: "


@pytest.mark.parametrize(
    "field, entry, message",
    [
        ("indices", 0.5, f"{REWRITTEN}/payload/rows/0/indices/0 is 0.5, which loads as 0"),
        # 1.0 and true load as index 1, which the row's next index already is.
        ("indices", 1.0, "sparse indices must be strictly increasing within a row"),
        ("indices", True, "sparse indices must be strictly increasing within a row"),
        ("row_labels", 1.0, f"{REWRITTEN}/payload/row_labels/0 is 1.0, which loads as 1"),
        ("row_labels", False, f"{REWRITTEN}/payload/row_labels/0 is false, which loads as 0"),
        ("values", True, f"{REWRITTEN}/payload/rows/0/values/0 is true, which loads as 1.0"),
        ("values", "0.5", f"{REWRITTEN}/payload/rows/0/values/0 is \"0.5\", which loads as 0.5"),
        ("values", -1.0, "knn stored values must lie in [0, 1e+100]"),
        ("values", 1e200, "knn stored values must lie in [0, 1e+100]"),
    ],
    ids=["indices-0.5", "indices-1.0", "indices-true", "row-labels-1.0", "row-labels-false",
         "values-true", "values-string", "values-negative", "values-1e200"],
)
def test_knn_payload_entries_of_another_json_type_are_refused(
    saved, field, entry, message, tmp_path, capsys
):
    """Each entry would otherwise load cast (0.5 to index 0, true to 1) or,
    for 1e200, overflow the distances it takes part in."""
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
    assert capsys.readouterr().err == f"error: model bundle {target}: {message}\n"


HYPERPARAMS = ("model", "hyperparams")
PAYLOAD = ("model", "payload")
ENTRIES = ("vocabulary", "entries")


@pytest.mark.parametrize(
    "artifact, path, value",
    [
        # A JSON true or false is not an integer or a float, although
        # Python's bool is an int.
        ("bundle-knn", HYPERPARAMS + ("k",), True),
        ("bundle-mlp", HYPERPARAMS + ("learning_rate",), True),
        ("bundle-mlp", HYPERPARAMS + ("seed",), False),
        ("bundle-mlp", HYPERPARAMS + ("epochs",), True),
        # Vocabulary and mask numbers are integers, and tokens are strings.
        ("bundle-multinomial_nb", ENTRIES + (1, 1), 1.5),
        ("bundle-multinomial_nb", ENTRIES + (1, 1), True),
        ("bundle-multinomial_nb", ENTRIES + (0, 2), "3"),
        ("bundle-multinomial_nb", ENTRIES + (0, 2), True),
        ("bundle-multinomial_nb", ENTRIES + (0, 2), 2.7),
        ("bundle-multinomial_nb", ENTRIES + (0, 0), 7),
        ("bundle-multinomial_nb", ("vocabulary", "n_train_docs"), "27"),
        ("bundle-multinomial_nb", ("vocabulary", "n_train_docs"), 26.9),
        ("bundle-knn", ("mask", "kept", 0), 1.5),
        ("bundle-knn", ("mask", "kept", 0), True),
        ("bundle-knn", ("mask", "scores", 0), True),
        # Every weight leaf is a JSON number, not only the first one, and a
        # numeric string is none.
        ("bundle-mlp", PAYLOAD + ("w1", -1, -1), True),
        ("bundle-gaussian_nb", PAYLOAD + ("means", 0, 0), "0.5"),
    ],
    ids=["knn-k-true", "mlp-learning-rate-true", "mlp-seed-false", "mlp-epochs-true",
         "vocab-index-1.5", "vocab-index-true", "vocab-df-string", "vocab-df-true",
         "vocab-df-2.7", "vocab-token-7", "vocab-n-train-docs-string",
         "vocab-n-train-docs-26.9", "mask-kept-1.5", "mask-kept-true", "mask-score-true",
         "mlp-last-weight-true", "gaussian-nb-mean-string"],
)
def test_values_of_another_json_type_are_refused(
    saved, artifact, path, value, tmp_path, capsys
):
    """Each value would otherwise load cast (1.5 and true to 1, "3" to 3),
    or as a token no document can hold."""
    with open(saved[artifact], encoding="utf-8") as handle:
        document = mutated(json.load(handle), path, value)
    target = tmp_path / "defective.json"
    target.write_text(json.dumps(document), encoding="utf-8")
    for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
        assert refusal_fault(argv, capsys) is None, argv


def type_swaps(value, path=()):
    """(key path, replacement) for every number or boolean leaf below `value`:
    a number becomes `true`, an integer also the equal float, an integral
    float the equal integer and a boolean the equal integer.  Inside a list
    only the first element is visited."""
    if isinstance(value, bool):
        yield path, int(value)
    elif isinstance(value, (int, float)):
        yield path, True
        if isinstance(value, int):
            yield path, float(value)
        elif value.is_integer():
            yield path, int(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from type_swaps(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from type_swaps(value[0], path + (0,))


@pytest.mark.parametrize("artifact", BUNDLES)
def test_every_value_of_another_json_type_is_refused(saved, artifact, tmp_path, capsys):
    """A bundle's sizes, indices and counts are integers, its weights,
    thresholds and float hyperparameters floats and its profile flags
    booleans; numpy would cast a swapped leaf (true or 1 to 1.0) and load it."""
    with open(saved[artifact], encoding="utf-8") as handle:
        original = json.load(handle)
    target = tmp_path / "swapped.json"
    faults = []
    swaps = list(type_swaps(original))
    for path, replacement in swaps:
        target.write_text(json.dumps(mutated(original, path, replacement)),
                          encoding="utf-8")
        for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
            fault = refusal_fault(argv, capsys)
            if fault is not None:
                faults.append(f"{'.'.join(map(str, path))} set to {replacement!r}: "
                              f"{argv[0]} {fault}")
    assert len(swaps) >= 10
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
@pytest.mark.parametrize("artifact", BUNDLES)
def test_a_version_of_another_json_type_is_refused(saved, artifact, version, tmp_path,
                                                    capsys):
    """A bundle and its model document refuse a version that equals 1 under
    Python's == but is no JSON integer.  A split file carries no version."""
    with open(saved[artifact], encoding="utf-8") as handle:
        original = json.load(handle)
    for path in [("version",), ("model", "version")]:
        target = tmp_path / "versioned.json"
        target.write_text(json.dumps(mutated(original, path, version)), encoding="utf-8")
        for argv in commands(artifact, str(target), saved, str(tmp_path / "out")):
            assert refusal_fault(argv, capsys) is None, (path, argv)


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


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_value_at_the_bound_evaluates_without_overflow(saved, metric, tmp_path):
    """The largest value a kNN bundle may store loads, and its distances stay
    finite: a RuntimeWarning from an overflow fails the test."""
    with open(saved["bundle-knn"], encoding="utf-8") as handle:
        bundle = json.load(handle)
    bundle["model"]["hyperparams"]["metric"] = metric
    row = next(row for row in bundle["model"]["payload"]["rows"] if row["indices"])
    row["values"] = [MAX_STORED_VALUE] * len(row["values"])
    target = tmp_path / "largest.json"
    target.write_text(json.dumps(bundle), encoding="utf-8")
    assert main(commands("bundle-knn", str(target), saved, str(tmp_path / "out"))[0]) == 0
