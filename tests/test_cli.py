"""End-to-end CLI coverage: every subcommand, exit codes, artifacts."""

import json

import pytest

from pashtext.cli import main


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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("ingest", "split", "train", "evaluate", "grid", "report", "synth"):
        assert name in out
    assert main(["train", "--help"]) == 0


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["synth", "--bogus", "1", "--out", "x"]) == 1
    assert "error" in capsys.readouterr().err.lower()


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


def test_split_writes_split_file(workspace):
    data = json.loads(workspace["split"].read_text(encoding="utf-8"))
    assert len(data["train_ids"]) == 18
    assert len(data["test_ids"]) == 6


def test_split_bad_fraction(workspace, tmp_path, capsys):
    code = main(
        [
            "split",
            "--corpus", str(workspace["corpus"]),
            "--fraction", "1.5",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2


def test_train_bundle_contents(workspace):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    assert bundle["format"] == "pashtext-bundle"
    assert bundle["version"] == 1
    assert bundle["mode"] == "unigram"
    assert bundle["model"]["kind"] == "multinomial_nb"
    assert bundle["mask"] is None
    log_text = (workspace["bundle"].parent / "train.log").read_text(encoding="utf-8")
    assert "classifier: multinomial_nb" in log_text


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
    assert "accuracy" in capsys.readouterr().out
    code = main(
        [
            "evaluate",
            "--model", str(workspace["bundle"]),
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--format", "markdown",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "eval.md").exists()


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
    assert "unknown to the model" in capsys.readouterr().err


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
    [("mode", "bigram"), ("mode", ["tfidf"]), ("labels", 3), ("vocabulary", [])],
)
def test_evaluate_rejects_bundle_with_wrong_type(workspace, tmp_path, key, value):
    bundle = json.loads(workspace["bundle"].read_text(encoding="utf-8"))
    bundle[key] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, bundle=broken) == 2


def test_split_ids_missing_from_corpus_are_a_data_error(workspace, tmp_path, capsys):
    split = json.loads(workspace["split"].read_text(encoding="utf-8"))
    split["test_ids"] += ["ghost-1", "ghost-2"]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split), encoding="utf-8")
    assert _evaluate(workspace, tmp_path, split=path) == 2
    assert "ghost-1" in capsys.readouterr().err
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
    assert "ghost-3" in capsys.readouterr().err


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


def test_grid_command_and_report_round_trip(workspace, tmp_path, capsys):
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
    grid_data = json.loads((out / "grid.json").read_text(encoding="utf-8"))
    assert grid_data["format"] == "pashtext-grid-report"
    assert len(grid_data["cells"]) == 16

    # report re-emits saved artifacts in all formats
    assert main(["report", "--input", str(out / "grid.json")]) == 0
    table = capsys.readouterr().out
    assert "Unigram" in table and "TFIDF" in table
    assert (
        main(
            [
                "report",
                "--input", str(out / "grid.json"),
                "--format", "csv",
                "--table", "per-class",
            ]
        )
        == 0
    )
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("classifier,class,mode")
    target = tmp_path / "table.md"
    assert (
        main(
            [
                "report",
                "--input", str(out / "grid.json"),
                "--out", str(target),
            ]
        )
        == 0
    )
    assert target.exists()
    capsys.readouterr()


def test_report_on_eval_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    main(
        [
            "evaluate",
            "--model", str(workspace["bundle"]),
            "--corpus", str(workspace["corpus"]),
            "--split", str(workspace["split"]),
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert main(["report", "--input", str(out / "eval.json")]) == 0
    assert "Precision" in capsys.readouterr().out


def test_report_rejects_unknown_documents(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"format": "other"}', encoding="utf-8")
    assert main(["report", "--input", str(bogus)]) == 2
    assert "not a known report" in capsys.readouterr().err
