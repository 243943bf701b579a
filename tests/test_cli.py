"""End-to-end CLI coverage: every subcommand, exit codes, artifacts."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import pashtext.cli
import pashtext.corpus
from pashtext.cli import main
from pashtext.models import ModelKind
from pashtext.models.params import make_params


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A corpus plus split plus trained bundle shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    assert (
        main(
            [
                "synth",
                "--classes", "3",
                "--per-class", "8",
                "--seed", "9",
                "--out", str(corpus),
            ]
        )
        == 0
    )
    split_dir = root / "split"
    assert (
        main(
            [
                "split",
                "--corpus", str(corpus),
                "--fraction", "0.75",
                "--seed", "9",
                "--out", str(split_dir),
            ]
        )
        == 0
    )
    model_dir = root / "model"
    assert (
        main(
            [
                "train",
                "--corpus", str(corpus),
                "--split", str(split_dir / "split.json"),
                "--classifier", "multinomial_nb",
                "--out", str(model_dir),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "corpus": corpus,
        "split": split_dir / "split.json",
        "bundle": model_dir / "model.json",
    }


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_the_retired_report_command_is_an_invalid_choice(capsys):
    assert main(["report", "--input", "x"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: argument command: invalid choice: 'report'")


def test_evaluate_format_is_a_usage_error(capsys):
    """`evaluate` writes every report format, so it takes no --format."""
    assert main(["evaluate", "--help"]) == 0
    assert "--format" not in capsys.readouterr().out
    assert main(["evaluate", "--model", "m", "--corpus", "c", "--split", "s",
                 "--format", "json"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --format json\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("ingest", "split", "train", "evaluate", "grid", "synth"):
        assert name in out
    assert main(["train", "--help"]) == 0


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["synth", "--bogus", "1", "--out", "x"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_usage_error_leaves_the_shared_parser_working(tmp_path, capsys):
    args = ["synth", "--classes", "2", "--per-class", "3", "--seed", "4"]
    assert main([*args, "--out", str(tmp_path / "first.jsonl")]) == 0
    first = capsys.readouterr()
    assert main([*args, "--bogus", "1", "--out", str(tmp_path / "bad.jsonl")]) == 1
    assert "--bogus" in capsys.readouterr().err
    assert main([*args, "--out", str(tmp_path / "second.jsonl")]) == 0
    second = capsys.readouterr()
    assert second.out == first.out.replace("first.jsonl", "second.jsonl")
    assert second.err == first.err
    assert (tmp_path / "first.jsonl").read_bytes() == (tmp_path / "second.jsonl").read_bytes()
    assert not (tmp_path / "bad.jsonl").exists()
    assert pashtext.cli.build_parser() is pashtext.cli.build_parser()


def test_verbose_is_not_an_option(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    assert main(["--verbose", "synth", "--out", str(out)]) == 1
    assert "--verbose" in capsys.readouterr().err
    assert not out.exists()


def test_synth_writes_jsonl(workspace):
    lines = workspace["corpus"].read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 24
    record = json.loads(lines[0])
    assert set(record) >= {"id", "text", "label"}


def test_synth_validates_arguments(capsys):
    assert main(["synth", "--classes", "1", "--out", "ignored.jsonl"]) == 1
    assert "classes" in capsys.readouterr().err


def test_ingest_prints_validation_summary(workspace, capsys):
    assert main(["ingest", "--corpus", str(workspace["corpus"])]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_documents"] == 24
    assert set(data["per_class_counts"]) == {"history", "technology", "sport"}


def test_ingest_missing_file_exits_two(workspace, capsys):
    assert main(["ingest", "--corpus", str(workspace["root"] / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


def test_ingest_with_wrong_label_universe(workspace, capsys):
    code = main(
        ["ingest", "--corpus", str(workspace["corpus"]), "--labels", "a,b"]
    )
    assert code == 2


@pytest.mark.parametrize("labels,message", [
    ("history,history", "label set contains duplicate names"),
    ("history,,sport", "label set contains an empty name"),
    (",", "label set contains an empty name"),
    ("history, ,sport", "label set contains an empty name"),
    (" history , history", "label set contains duplicate names"),
])
def test_ingest_labels_with_a_repeated_or_empty_name_is_a_usage_error(tmp_path, capsys,
                                                                      labels, message):
    """Refused before any read: the corpus path does not exist, and reading
    it would exit 2."""
    argv = ["ingest", "--corpus", str(tmp_path / "missing.jsonl"), "--labels", labels]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: argument --labels: {message}\n"


def test_ingest_labels_are_stripped_of_the_whitespace_around_them(workspace, capsys):
    argv = ["ingest", "--corpus", str(workspace["corpus"]),
            "--labels", "sport, history ,\ttechnology"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["per_class_counts"]) == {"history", "technology", "sport"}


def test_ingest_with_empty_labels_infers_them(workspace, capsys):
    assert main(["ingest", "--corpus", str(workspace["corpus"]), "--labels", ""]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["per_class_counts"]) == {"history", "technology", "sport"}


def _write_deep_jsonl(root):
    path = root / "deep.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "l"}\n'
                    + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    return path, "deep.jsonl:2:"


def _write_non_utf8_jsonl(root):
    # Far enough into the file that the file iterator decodes it ahead of its line.
    lines = [f'{{"id": "d{i}", "text": "x", "label": "l"}}\n'.encode() for i in range(3000)]
    lines[2500] = b'{"id": "bad", "text": "\xff", "label": "l"}\n'
    path = root / "latin.jsonl"
    path.write_bytes(b"".join(lines))
    return path, "latin.jsonl:2501:"


def _write_empty_label_jsonl(root):
    path = root / "nolabel.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "l"}\n'
                    '{"id": "b", "text": "y", "label": ""}\n', encoding="utf-8")
    return path, "nolabel.jsonl:2: document label must be non-empty"


def _write_blank_label_jsonl(root):
    path = root / "blank.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "l"}\n'
                    '{"id": " ", "text": "y", "label": " "}\n', encoding="utf-8")
    return path, "blank.jsonl:2: document id must be non-empty"


def _write_non_utf8_directory(root):
    (root / "tree" / "l").mkdir(parents=True)
    (root / "tree" / "l" / "a.txt").write_text("ok", encoding="utf-8")
    (root / "tree" / "l" / "b.txt").write_bytes(b"caf\xe9")
    return root / "tree", "b.txt"


@pytest.mark.parametrize(
    "write", [_write_deep_jsonl, _write_non_utf8_jsonl, _write_non_utf8_directory,
              _write_empty_label_jsonl, _write_blank_label_jsonl]
)
def test_ingest_of_unreadable_corpus_is_one_line_exit_two(write, tmp_path, capsys):
    corpus, where = write(tmp_path)
    assert main(["ingest", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert where in err


@pytest.mark.parametrize("source", ["NaN", "Infinity", "3", '["web"]'])
def test_ingest_of_non_string_source_is_exit_two(source, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id": "a", "text": "x", "label": "l"}\n'
                      f'{{"id": "b", "text": "y", "label": "l", "source": {source}}}\n',
                      encoding="utf-8")
    assert main(["ingest", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {corpus}:2: key 'source' must be a string\n"


def test_split_writes_split_file(workspace):
    data = json.loads(workspace["split"].read_text(encoding="utf-8"))
    assert len(data["train_ids"]) == 18
    assert len(data["test_ids"]) == 6


@pytest.mark.parametrize("command", ["split", "grid"])
@pytest.mark.parametrize("value", ["1.5", "0", "1", "-0.2", "nan", "inf", "x"])
def test_split_bad_fraction(command, value, tmp_path, capsys):
    """A flag out of range is a usage error, refused before any read: the
    corpus path does not exist, and reading it would exit 2."""
    argv = [command, "--corpus", str(tmp_path / "missing.jsonl"), "--fraction", value,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: argument --fraction: must be a number in (0, 1), got {value!r}\n"
    )


def test_train_bundle_contents(workspace):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    assert bundle["format"] == "pashtext-bundle"
    assert bundle["version"] == 1
    assert bundle["mode"] == "unigram"
    assert bundle["model"]["kind"] == "multinomial_nb"
    assert bundle["mask"] is None
    assert bundle["pipeline"] == {
        "allowed_script_ranges": ["0020-0020", "0600-06FF", "0750-077F", "08A0-08FF"],
        "lowercase_latin": True,
        "stop_words": [],
        "strip_digits": True,
        "strip_punctuation": True,
        "strip_urls": True,
    }
    assert [path.name for path in workspace["bundle"].parent.iterdir()] == ["model.json"]


def test_train_with_overrides_and_selection(workspace, tmp_path):
    out = tmp_path / "knn"
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--classifier", "knn",
            "--features", "tfidf",
            "--param", "k=3",
            "--param", "metric=cosine",
            "--select-k", "25",
            "--out", str(out),
        ]
    )
    assert code == 0
    bundle = json.loads((out / "model.json").read_text(encoding="utf-8"))
    assert bundle["model"]["hyperparams"]["k"] == 3
    assert bundle["model"]["hyperparams"]["metric"] == "cosine"
    assert bundle["mode"] == "tfidf"
    assert len(bundle["mask"]["kept"]) == 25


@pytest.mark.parametrize("command", ["train", "grid"])
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_select_k_below_one_is_a_usage_error_before_any_read(command, value, tmp_path,
                                                            capsys):
    """The corpus path does not exist: reading it would exit 2."""
    argv = [command, "--corpus", str(tmp_path / "missing.jsonl"), "--select-k", value,
            "--out", str(tmp_path / "out")]
    if command == "train":
        argv += ["--split", str(tmp_path / "missing.json"), "--classifier", "knn"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: argument --select-k: must be an integer of at least 1, got {value!r}\n"
    )


@pytest.mark.parametrize("pair", ["x", "=3", ""])
def test_param_that_is_not_key_value_is_a_usage_error_before_any_read(tmp_path, capsys,
                                                                       pair):
    """The corpus path does not exist: reading it would exit 2."""
    argv = ["train", "--corpus", str(tmp_path / "missing.jsonl"),
            "--split", str(tmp_path / "missing.json"), "--classifier", "knn",
            "--param", "k=3", "--param", pair, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: argument --param: expects key=value, got {pair!r}\n"
    )


def test_train_unknown_override_exits_one(workspace, tmp_path, capsys):
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--classifier", "knn",
            "--param", "nonsense=1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "nonsense" in capsys.readouterr().err


# Every field of every params record: (kind, field, a valid --param value,
# the value it parses to, a malformed value).
PARAM_CASES = [
    ("gaussian_nb", "variance_floor", "1e-6", 1e-6, "tiny"),
    ("multinomial_nb", "laplace_alpha", "0.5", 0.5, "half"),
    ("knn", "k", "3", 3, "three"),
    ("knn", "metric", "cosine", "cosine", "manhattan"),
    ("decision_tree", "max_depth", "4", 4, "deep"),
    ("decision_tree", "min_samples_split", "3", 3, "2.5"),
    ("random_forest", "n_trees", "3", 3, "many"),
    ("random_forest", "features_per_split", "2", 2, "all"),
    ("random_forest", "bootstrap", "false", False, "maybe"),
    ("random_forest", "seed", "7", 7, "x"),
    ("random_forest", "max_depth", "3", 3, "1e3"),
    ("random_forest", "min_samples_split", "4", 4, ""),
    *(
        (kind, field, valid, value, bad)
        for kind in ("logistic_regression", "linear_svm")
        for field, valid, value, bad in (
            ("learning_rate", "0.05", 0.05, "fast"),
            ("epochs", "5", 5, "5.0"),
            ("l2_strength", "0", 0.0, "none"),
            ("seed", "3", 3, "seed"),
        )
    ),
    ("mlp", "hidden_units", "4", 4, "four"),
    ("mlp", "learning_rate", "0.01", 0.01, "1/100"),
    ("mlp", "adam_beta1", "0.8", 0.8, "b1"),
    ("mlp", "adam_beta2", "0.99", 0.99, "b2"),
    ("mlp", "adam_epsilon", "1e-7", 1e-7, "eps"),
    ("mlp", "epochs", "2", 2, "two"),
    ("mlp", "batch_size", "2", 2, "2x"),
    ("mlp", "seed", "5", 5, "five"),
]


def _train(workspace, out, kind, *params):
    return main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--classifier", kind,
            *(arg for param in params for arg in ("--param", param)),
            "--out", str(out),
        ]
    )


@pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm", "mlp"])
def test_diverging_fit_prints_one_error_line_and_no_bundle(workspace, tmp_path, capsys,
                                                            kind):
    assert _train(workspace, tmp_path, kind, "learning_rate=1e300", "epochs=3") == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: training diverged at epoch \d+: non-finite loss\n", err), err
    assert not (tmp_path / "model.json").exists()


def _hyperparams(out):
    return json.loads((out / "model.json").read_text(encoding="utf-8"))["model"]["hyperparams"]


def test_param_cases_cover_every_field():
    covered = {(kind, field) for kind, field, *_ in PARAM_CASES}
    assert len(covered) == len(PARAM_CASES)
    assert covered == {
        (kind.value, f.name)
        for kind in ModelKind
        for f in dataclasses.fields(make_params(kind, {}))
    }


@pytest.mark.parametrize("kind,field,valid,value,_bad", PARAM_CASES)
def test_param_valid_value_reaches_the_bundle(workspace, tmp_path, kind, field, valid,
                                              value, _bad):
    assert _train(workspace, tmp_path, kind, f"{field}={valid}") == 0
    assert _hyperparams(tmp_path)[field] == value
    # The saved record loads through the path the --param string took.
    loaded = pashtext.cli._load_bundle(tmp_path / "model.json")["model"].params
    assert loaded == make_params(ModelKind(kind), {field: valid})


@pytest.mark.parametrize("kind,field,_valid,_value,bad", PARAM_CASES)
def test_param_malformed_value_exits_one_naming_the_field(workspace, tmp_path, capsys,
                                                          kind, field, _valid, _value, bad):
    assert _train(workspace, tmp_path, kind, f"{field}={bad}") == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_param_non_finite_float_exits_one(workspace, tmp_path, capsys):
    assert _train(workspace, tmp_path, "mlp", "adam_epsilon=inf") == 1
    assert capsys.readouterr().err == "error: adam_epsilon: expected float, got 'inf'\n"
    assert not (tmp_path / "model.json").exists()


def test_bundle_with_non_finite_float_exits_two(workspace, tmp_path, capsys):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    bundle["model"]["hyperparams"]["laplace_alpha"] = float("inf")
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(bundle), encoding="utf-8")  # writes Infinity
    assert _evaluate(workspace, tmp_path, bundle=edited) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Infinity is not a JSON number" in err


@pytest.mark.parametrize(
    "spelling,value",
    [("true", True), ("True", True), ("1", True), ("YES", True),
     ("false", False), ("FALSE", False), ("0", False), ("no", False)],
)
def test_param_bool_spellings(workspace, tmp_path, spelling, value):
    assert _train(workspace, tmp_path, "random_forest", f"bootstrap={spelling}",
                  "n_trees=2") == 0
    assert _hyperparams(tmp_path)["bootstrap"] is value


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
@pytest.mark.parametrize("spelling", ["none", "None", "null"])
def test_param_max_depth_none(workspace, tmp_path, kind, spelling):
    assert _train(workspace, tmp_path, kind, "max_depth=2", f"max_depth={spelling}") == 0
    assert _hyperparams(tmp_path)["max_depth"] is None


def test_evaluate_writes_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--model", str(workspace["bundle"]),
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert report["format"] == "pashtext-eval-report"
    assert 0.0 <= report["accuracy"] <= 1.0
    stdout = capsys.readouterr().out
    assert "accuracy" in stdout and stdout.endswith(f"-> {out}\n")
    assert sorted(path.name for path in out.iterdir()) == ["eval.csv", "eval.json", "eval.md"]
    for name, start in [("eval.md", "| Class | Precision |"), ("eval.csv", "class,precision,")]:
        assert (out / name).read_text(encoding="utf-8").startswith(start), name


def test_evaluate_rejects_foreign_labels(workspace, tmp_path, capsys):
    foreign = tmp_path / "foreign.jsonl"
    assert (
        main(
            [
                "synth",
                "--classes", "4",
                "--per-class", "4",
                "--seed", "2",
                "--out", str(foreign),
            ]
        )
        == 0
    )
    code = main(
        [
            "evaluate",
            "--model", str(workspace["bundle"]),
            "--corpus", str(foreign),
            "--split", str(workspace["split"]),
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "outside the supplied label set" in capsys.readouterr().err


def _evaluate(workspace, tmp_path, bundle=None, split=None):
    return main(
        [
            "evaluate",
            "--model", str(bundle or workspace["bundle"]),
            "--corpus", str(workspace["corpus"]),
            "--split", str(split or workspace["split"]),
            "--out", str(tmp_path / "eval"),
        ]
    )


@pytest.mark.parametrize(
    "path",
    [
        ("labels",),
        ("pipeline",),
        ("mode",),
        ("mask",),
        ("vocabulary",),
        ("vocabulary", "entries"),
        ("vocabulary", "n_train_docs"),
        ("model",),
        ("model", "kind"),
        ("model", "hyperparams"),
        ("model", "payload"),
        ("model", "payload", "log_token_probs"),
        ("model", "label_count"),
        ("model", "feature_dimension"),
    ],
)
def test_evaluate_rejects_bundle_missing_a_key(workspace, tmp_path, path):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    owner = bundle
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2


@pytest.mark.parametrize(
    "key, value",
    [("mode", "bigram"), ("mode", ["tfidf"]), ("labels", 3), ("vocabulary", []),
     ("labels", ["history", "technology", "sport", "extra"])],
)
def test_evaluate_rejects_bundle_with_wrong_type(workspace, tmp_path, key, value):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    bundle[key] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2


@pytest.mark.parametrize(
    "key, value",
    [("strip_digits", False), ("stop_words", ["په"]),
     ("allowed_script_ranges", ["0020-0020", "0600-06FF"])],
)
def test_evaluate_rejects_bundle_with_another_profile(
    workspace, tmp_path, capsys, key, value
):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    bundle["pipeline"][key] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"does not load as written: /pipeline/{key} " in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def mlp_bundle(workspace):
    out = workspace["root"] / "mlp"
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--classifier", "mlp",
            "--features", "tfidf",
            "--param", "epochs=2",
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads((out / "model.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "defect, named",
    [
        (lambda model: model["payload"]["b1"].pop(), "mlp"),
        (lambda model: model["payload"]["w2"].pop(), "mlp"),
        (lambda model: model["payload"]["b2"].append(0.0), "mlp"),
        # json.dumps writes NaN, Infinity and -Infinity, which are not JSON
        # and are refused as the bundle is read
        (lambda model: model["payload"]["w1"][0].__setitem__(0, float("nan")),
         "NaN is not a JSON number"),
        (lambda model: model["payload"]["w1"][0].__setitem__(0, float("inf")),
         "Infinity is not a JSON number"),
        (lambda model: model["payload"]["w1"][0].__setitem__(0, -float("inf")),
         "-Infinity is not a JSON number"),
        (lambda model: model["hyperparams"].update(hidden_units=3), "mlp"),
        (lambda model: model["hyperparams"].update(epochs=0), "mlp"),
    ],
    ids=["b1-short", "w2-short", "b2-long", "w1-nan", "w1-inf", "w1-minus-inf",
         "hidden-units", "epochs-0"],
)
def test_evaluate_rejects_malformed_mlp_bundle(
    workspace, mlp_bundle, tmp_path, capsys, defect, named
):
    bundle = json.loads(json.dumps(mlp_bundle))
    defect(bundle["model"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def forest_bundle(workspace):
    out = workspace["root"] / "forest"
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--classifier", "random_forest",
            "--param", "n_trees=5",
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads((out / "model.json").read_text(encoding="utf-8"))


def _first_leaf(node):
    while "counts" not in node:
        node = node["left"]
    return node


def _root_split(model):
    root = model["payload"]["trees"][0]["root"]
    assert "feature" in root
    return root


@pytest.mark.parametrize(
    "defect",
    [
        lambda model: model["payload"].update(trees=[]),
        lambda model: model["payload"].update(trees=model["payload"]["trees"][:2]),
        lambda model: _first_leaf(model["payload"]["trees"][0]["root"]).update(
            counts=[0.5, 0.25, 0.25]
        ),
        lambda model: _root_split(model).update(feature=1.7),
        lambda model: _root_split(model).update(feature="1"),
        lambda model: _root_split(model).update(feature=True),
        lambda model: _root_split(model).update(threshold="0.5"),
    ],
    ids=["no-trees", "two-of-five-trees", "fractional-counts", "float-feature",
         "string-feature", "bool-feature", "string-threshold"],
)
def test_evaluate_rejects_malformed_forest_bundle(
    workspace, forest_bundle, tmp_path, capsys, defect
):
    bundle = json.loads(json.dumps(forest_bundle))
    defect(bundle["model"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tree" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def knn_bundle(workspace):
    out = workspace["root"] / "knn"
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--classifier", "knn",
            "--select-k", "20",
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads((out / "model.json").read_text(encoding="utf-8"))


def _append_vocabulary_entry(bundle):
    entries = bundle["vocabulary"]["entries"]
    entries.append(["extra-token", len(entries), 1])


@pytest.mark.parametrize(
    "source, defect",
    [
        ("knn",
         lambda bundle: bundle["model"]["payload"]["rows"][0]["indices"].__setitem__(0, 0.5)),
        ("knn", lambda bundle: bundle["vocabulary"]["entries"][0].__setitem__(2, 0)),
        ("knn", lambda bundle: bundle["mask"]["kept"].reverse()),
        ("knn", lambda bundle: bundle["model"]["hyperparams"].update(k=0)),
        # Bundles whose parts load one by one but disagree with the model.
        ("knn", lambda bundle: bundle["mask"]["kept"].pop()),
        ("knn", lambda bundle: bundle["model"]["hyperparams"].update(
            k=len(bundle["model"]["payload"]["rows"]) + 1)),
        ("multinomial_nb", _append_vocabulary_entry),
        ("multinomial_nb", lambda bundle: bundle.update(mode="bogus")),
    ],
    ids=["knn-index-0.5", "document-frequency-0", "unsorted-mask", "k-0", "mask-one-short",
         "k-above-rows", "vocabulary-one-long", "mode-bogus"],
)
def test_bundle_refusals_name_the_bundle_file_once(
    workspace, knn_bundle, tmp_path, capsys, source, defect
):
    if source == "knn":
        bundle = json.loads(json.dumps(knn_bundle))
    else:
        bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    defect(bundle)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1
    assert err.count(f"model bundle {broken}") == 1


def test_split_ids_missing_from_corpus_are_a_data_error(workspace, tmp_path, capsys):
    """Both commands that read a split file refuse an id the corpus lacks,
    naming the split file once."""
    split = json.loads(workspace["split"].read_text(encoding="utf-8"))
    split["test_ids"] += ["ghost-1", "ghost-2"]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, split=path) == 2
    err = capsys.readouterr().err
    assert err == f"error: split file {path}: unknown document id 'ghost-1'\n"
    assert err.count(str(path)) == 1
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(path),
            "--classifier", "multinomial_nb",
            "--out", str(tmp_path / "model"),
        ]
    )
    assert code == 0  # train reads only the train side, which is intact
    split["train_ids"].append("ghost-3")
    path.write_text(json.dumps(split), encoding="utf-8")
    code = main(
        [
            "train",
            "--corpus", str(workspace["corpus"]),
            "--split", str(path),
            "--classifier", "multinomial_nb",
            "--out", str(tmp_path / "model"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: split file {path}: unknown document id 'ghost-3'\n"
    assert err.count(str(path)) == 1


@pytest.mark.parametrize("side", ["train", "test"])
def test_a_split_side_without_usable_documents_names_the_split_file(
    workspace, tmp_path, capsys, side
):
    """When every text of one side preprocesses to nothing, the command that
    reads that side refuses it naming the split file once."""
    split = json.loads(workspace["split"].read_text(encoding="utf-8"))
    emptied = set(split[f"{side}_ids"])
    corpus = tmp_path / "corpus.jsonl"
    with open(workspace["corpus"], encoding="utf-8") as lines, \
            open(corpus, "w", encoding="utf-8") as out:
        for line in lines:
            record = json.loads(line)
            if record["id"] in emptied:
                record["text"] = "only latin 123"
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    path = workspace["split"]
    if side == "test":
        code = _evaluate({**workspace, "corpus": corpus}, tmp_path)
    else:
        code = main(["train", "--corpus", str(corpus), "--split", str(path),
                     "--classifier", "multinomial_nb", "--out", str(tmp_path / "model")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: split file {path}: no usable documents on the {side} side of the split\n"
    assert err.count(str(path)) == 1


def test_overlapping_split_is_a_data_error(workspace, tmp_path, capsys):
    """A split file that lists an id twice, or holds a fraction outside
    (0, 1), is refused by name by both commands that read one."""
    split = json.loads(workspace["split"].read_text(encoding="utf-8"))
    overlapping = dict(split, train_ids=split["train_ids"] + split["test_ids"][:1])
    twice = f"split id {split['test_ids'][0]!r} appears 2 times"
    out_of_range = dict(split, train_fraction=2)
    path = tmp_path / "split.json"
    for document, refusal in ((overlapping, twice),
                              (out_of_range, "train_fraction must be in (0, 1), got 2.0")):
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(
            [
                "train",
                "--corpus", str(workspace["corpus"]),
                "--split", str(path),
                "--classifier", "multinomial_nb",
                "--out", str(tmp_path / "model"),
            ]
        )
        assert (code, _evaluate(workspace, tmp_path, split=path)) == (2, 2)
        # One line per command.
        assert capsys.readouterr().err == f"error: split file {path}: {refusal}\n" * 2


def test_documents_emptied_by_preprocessing_only_warn(tmp_path, caplog):
    lines = [
        {"id": f"d{i}", "text": f"کلمه{i % 2} متن", "label": "ab"[i % 2]}
        for i in range(8)
    ]
    lines.append({"id": "latin", "text": "only latin words 123", "label": "a"})
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines),
        encoding="utf-8",
    )
    split = tmp_path / "split.json"
    split.write_text(
        json.dumps(
            {
                "train_fraction": 0.5,
                "seed": 1,
                "train_ids": ["d0", "d1", "d2", "d3"],
                "test_ids": ["d4", "d5", "d6", "d7", "latin"],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "model"
    args = ["--corpus", str(corpus), "--split", str(split), "--out", str(out)]
    assert main(["train", "--classifier", "multinomial_nb", *args]) == 0
    with caplog.at_level("WARNING"):
        assert main(["evaluate", "--model", str(out / "model.json"), *args]) == 0
    assert "1 test documents were excluded by preprocessing" in caplog.text
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert sum(map(sum, report["confusion"])) == 4


def test_grid_command_writes_its_six_files(workspace, tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(
        [
            "grid",
            "--corpus", str(workspace["corpus"]),
            "--fraction", "0.75",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in (
        "grid.json",
        "split.json",
        "accuracy_table.md",
        "accuracy_table.csv",
        "per_class_tables.md",
        "per_class_tables.csv",
    ):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "16/16 cells succeeded" in stdout
    assert stdout.startswith((out / "accuracy_table.md").read_text(encoding="utf-8") + "\n")
    grid_data = json.loads((out / "grid.json").read_text(encoding="utf-8"))
    assert grid_data["format"] == "pashtext-grid-report"
    assert len(grid_data["cells"]) == 16


def test_grid_with_failing_cells_exits_three_and_names_them(tmp_path, capsys):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "grid"
    assert main(["synth", "--classes", "2", "--per-class", "2", "--seed", "3",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["grid", "--corpus", str(corpus), "--fraction", "0.5",
                 "--out", str(out)]) == 3
    failure = "InvalidHyperparameterError: k=5 exceeds the 2 training rows"
    assert capsys.readouterr().out.endswith(
        f"grid complete: 14/16 cells succeeded -> {out}\n"
        f"  failed knn/unigram: {failure}\n"
        f"  failed knn/tfidf: {failure}\n"
    )
    assert sorted(path.name for path in out.iterdir()) == [
        "accuracy_table.csv", "accuracy_table.md", "grid.json",
        "per_class_tables.csv", "per_class_tables.md", "split.json",
    ]


def test_lone_surrogate_escape_in_a_corpus_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    lines = [f'{{"id": "d{i}", "text": "x", "label": "{"ab"[i % 2]}"}}' for i in range(6)]
    lines[3] = '{"id": "\\ud800", "text": "x", "label": "b"}'
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "work"
    assert main(["split", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}:4: key 'id' holds a lone surrogate escape\n"
    )
    assert not out.exists()
    # A surrogate pair is one character, and an escaped backslash is no escape.
    lines[3] = '{"id": "\\ud83d\\ude00 \\\\ud800", "text": "x", "label": "b"}'
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["split", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert "\U0001f600 \\\\ud800" in (out / "split.json").read_text(encoding="utf-8")


def test_desk_grid_outputs_are_the_bytes_write_text_gives(tmp_path, monkeypatch):
    """Every output of a seed-1 desk grid, rewritten over longer stale files,
    holds the bytes `Path.write_text` writes for the same text."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--classes", "8", "--per-class", "100", "--noise", "0.3",
                 "--seed", "42", "--out", str(corpus)]) == 0
    out = tmp_path / "grid"
    out.mkdir()
    names = ("grid.json", "split.json", "accuracy_table.md", "accuracy_table.csv",
             "per_class_tables.md", "per_class_tables.csv")
    for name in names:
        (out / name).write_bytes(b"stale " * 100_000)
    written = {}
    real_write = pashtext.cli.write_output

    def spy(path, text):
        written[Path(path).name] = text
        real_write(path, text)

    for module in (pashtext.cli, pashtext.corpus):
        monkeypatch.setattr(module, "write_output", spy)
    assert main(["grid", "--corpus", str(corpus), "--seed", "1", "--out", str(out)]) == 0
    assert sorted(written) == sorted(names)
    reference = tmp_path / "reference"
    for name, text in written.items():
        reference.write_text(text, encoding="utf-8")
        assert (out / name).read_bytes() == reference.read_bytes(), name
