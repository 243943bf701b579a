"""The 16-cell evaluation grid: determinism, failure isolation, reports, the
same bytes whether the TFIDF lane runs in its child process or in this one,
and that child started from any script and through the caller's `sys.path`."""

import functools
import json
import logging
import os
import pickle
import re
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest
from test_blas_threads import SOURCE_ROOT, run_python

from pashtext import cli, grid
from pashtext.corpus import save_corpus, stratified_split
from pashtext.errors import DataError
from pashtext.grid import GridCell, cell_seed, run_grid
from pashtext.models import ModelKind
from pashtext.models.params import KNNParams, LinearParams, MLPParams, RandomForestParams
from pashtext.synth import generate_corpus
from pashtext.vectorize import FEATURE_MODES, TFIDF, UNIGRAM

QUICK_PARAMS = {
    ModelKind.KNN: KNNParams(k=3),
    ModelKind.RANDOM_FOREST: RandomForestParams(n_trees=8, seed=3),
    ModelKind.LOGISTIC_REGRESSION: LinearParams(epochs=40),
    ModelKind.LINEAR_SVM: LinearParams(epochs=40),
    ModelKind.MLP: MLPParams(hidden_units=8, epochs=25, seed=3),
}


@pytest.fixture(scope="module")
def small_setup():
    corpus = generate_corpus(classes=4, per_class=12, seed=5)
    # Drawn at seed 5; its cells take their seeds from seed 11.
    split = replace(stratified_split(corpus, train_fraction=0.75, seed=5), seed=11)
    return corpus, split


@pytest.fixture(scope="module")
def small_report(small_setup):
    corpus, split = small_setup
    return run_grid(corpus, split, params_by_kind=QUICK_PARAMS)


def test_cell_seeds_are_distinct_and_deterministic():
    seeds = {
        cell_seed(42, kind, mode) for kind in ModelKind for mode in FEATURE_MODES
    }
    assert len(seeds) == 16
    assert cell_seed(42, ModelKind.KNN, TFIDF) == cell_seed(42, ModelKind.KNN, TFIDF)
    assert cell_seed(42, ModelKind.KNN, TFIDF) != cell_seed(43, ModelKind.KNN, TFIDF)


def assert_cells_score_one_test_side(report):
    """The cells come in canonical order, and every successful one counts the
    grid's test rows with one support per class."""
    expected = [(kind, mode) for kind in ModelKind for mode in FEATURE_MODES]
    assert [(c.kind, c.mode) for c in report.cells] == expected
    reports = [c.report for c in report.cells if c.report is not None]
    assert all(r.confusion.sum() == report.n_test for r in reports)
    assert len({tuple(r.confusion.sum(axis=1).tolist()) for r in reports}) == 1


def test_grid_covers_all_cells_in_canonical_order(small_report):
    assert_cells_score_one_test_side(small_report)
    assert len(small_report.cells) == 16
    for cell in small_report.cells:
        assert cell.error is None
        assert 0.0 <= cell.accuracy <= 1.0
        assert cell.report is not None
    assert small_report.n_train == 36 and small_report.n_test == 12
    assert small_report.label_names == ("history", "technology", "sport", "cultural")


def test_grid_reports_the_seed_of_its_split(small_setup, small_report):
    corpus, split = small_setup
    assert json.loads(small_report.to_json_text())["seed"] == 11
    other = run_grid(corpus, replace(split, seed=7), params_by_kind=QUICK_PARAMS)
    assert json.loads(other.to_json_text())["seed"] == 7


def test_grid_is_deterministic(small_setup, small_report):
    corpus, split = small_setup
    again = run_grid(corpus, split, params_by_kind=QUICK_PARAMS)
    assert again.to_json_text() == small_report.to_json_text()


# Per-cell confusion matrices of the small grid.  Feature building and
# prediction are meant to be exact, so any change that moves one cell here
# changes the answers the grid gives, not just its speed.
PINNED_CONFUSION = {
    ("gaussian_nb", "unigram"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("gaussian_nb", "tfidf"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("multinomial_nb", "unigram"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("multinomial_nb", "tfidf"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("knn", "unigram"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("knn", "tfidf"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 1, 2]],
    ("decision_tree", "unigram"): [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1], [0, 0, 0, 3]],
    ("decision_tree", "tfidf"): [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, 1], [0, 0, 0, 3]],
    ("random_forest", "unigram"): [[2, 1, 0, 0], [0, 3, 0, 0], [0, 1, 2, 0], [0, 1, 0, 2]],
    ("random_forest", "tfidf"): [[2, 1, 0, 0], [0, 3, 0, 0], [0, 1, 2, 0], [0, 1, 0, 2]],
    ("logistic_regression", "unigram"): [
        [3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]
    ],
    ("logistic_regression", "tfidf"): [
        [3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]
    ],
    ("linear_svm", "unigram"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("linear_svm", "tfidf"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("mlp", "unigram"): [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    ("mlp", "tfidf"): [[2, 0, 1, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
}


def test_cell_confusion_matrices_are_pinned(small_report):
    got = {
        (cell.kind.value, cell.mode): cell.report.to_dict()["confusion"]
        for cell in small_report.cells
    }
    assert got == PINNED_CONFUSION


def test_failing_cell_is_recorded_not_fatal(small_setup):
    corpus, split = small_setup
    params = dict(QUICK_PARAMS)
    params[ModelKind.KNN] = KNNParams(k=100000)
    report = run_grid(corpus, split, params_by_kind=params)
    assert_cells_score_one_test_side(report)
    for mode in FEATURE_MODES:
        cell = report.cell(ModelKind.KNN, mode)
        assert cell.accuracy is None and cell.report is None
        assert "InvalidHyperparameterError" in cell.error
    healthy = report.cell(ModelKind.MULTINOMIAL_NB, UNIGRAM)
    assert healthy.error is None and healthy.accuracy is not None


def test_unknown_cell_is_a_data_error(small_report):
    with pytest.raises(DataError):
        small_report.cell(ModelKind.KNN, "bigram")


def test_cell_accuracy_is_its_reports(small_report):
    for cell in small_report.cells:
        assert cell.accuracy == cell.report.accuracy
        assert cell.to_dict()["accuracy"] == cell.report.accuracy


def test_failed_cell_writes_only_its_error():
    cell = GridCell(ModelKind.MLP, TFIDF, None, "RuntimeError: boom")
    assert cell.accuracy is None
    assert cell.to_dict() == {"kind": "mlp", "mode": TFIDF, "accuracy": None,
                              "error": "RuntimeError: boom", "report": None}


def test_accuracy_tables(small_setup, small_report):
    markdown = small_report.accuracy_table_markdown()
    lines = [line for line in markdown.strip().splitlines() if line.startswith("|")]
    assert len(lines) == 2 + len(ModelKind)  # header, separator, 8 rows
    assert "Unigram" in lines[0] and "TFIDF" in lines[0]
    csv_text = small_report.accuracy_table_csv()
    rows = csv_text.strip().splitlines()
    assert len(rows) == 1 + len(ModelKind)
    # a failed cell renders as "failed" in markdown and empty in csv
    corpus, split = small_setup
    params = dict(QUICK_PARAMS)
    params[ModelKind.KNN] = KNNParams(k=100000)
    failed = run_grid(corpus, split, params_by_kind=params)
    assert "failed" in failed.accuracy_table_markdown()


def test_per_class_tables(small_report):
    markdown = small_report.per_class_tables_markdown()
    for kind in ModelKind:
        assert markdown.count("##") >= len(ModelKind)
    for name in small_report.label_names:
        assert name in markdown
    csv_text = small_report.per_class_tables_csv()
    header = csv_text.strip().splitlines()[0]
    assert header == "classifier,class,mode,precision,recall,f1,support"
    body = csv_text.strip().splitlines()[1:]
    assert len(body) == len(ModelKind) * len(small_report.label_names) * 2


def test_select_k_grid(small_setup):
    corpus, split = small_setup
    report = run_grid(corpus, split, select_k=30, params_by_kind=QUICK_PARAMS)
    assert report.select_k == 30
    for cell in report.cells:
        assert cell.error is None
        assert 0.0 <= cell.accuracy <= 1.0


def test_grid_reads_the_train_side_before_the_test_side(small_setup):
    """Each side's unknown ids and emptiness are reported, train side first."""
    corpus, split = small_setup
    ghosts = replace(split, train_ids=split.train_ids + ("ghost-train",),
                     test_ids=split.test_ids + ("ghost-test",))
    with pytest.raises(DataError, match="ghost-train"):
        run_grid(corpus, ghosts, params_by_kind=QUICK_PARAMS)
    with pytest.raises(DataError, match="no usable documents on the train side"):
        run_grid(corpus, replace(split, train_ids=(), test_ids=()),
                 params_by_kind=QUICK_PARAMS)
    with pytest.raises(DataError, match="no usable documents on the test side"):
        run_grid(corpus, replace(split, test_ids=()), params_by_kind=QUICK_PARAMS)


def report_texts(report):
    """grid.json and the four tables, as the grid command writes them."""
    return (
        report.to_json_text(),
        report.accuracy_table_markdown(),
        report.accuracy_table_csv(),
        report.per_class_tables_markdown(),
        report.per_class_tables_csv(),
    )


def lane_in_this_process(args, input, stdout):
    """Stands in for `subprocess.run`: runs the TFIDF lane's cells in this
    process and returns them as its child would."""
    cells = [grid._run_cell(*job) for job in pickle.loads(input)]
    return subprocess.CompletedProcess(args, 0, pickle.dumps(cells))


def run_in_process(monkeypatch, *args, **kwargs):
    """`run_grid` with its TFIDF lane run in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(subprocess, "run", lane_in_this_process)
        return run_grid(*args, **kwargs)


def test_child_lane_gives_the_in_process_bytes(small_setup, monkeypatch):
    corpus, split = small_setup
    # Default parameters: every cell seeds itself from the split's seed.
    expected = report_texts(run_in_process(monkeypatch, corpus, split, select_k=40))
    children = []
    real_run = subprocess.run

    def counted_run(args, **kwargs):
        children.append(args[0])
        return real_run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted_run)
    assert report_texts(run_grid(corpus, split, select_k=40)) == expected
    assert children == [sys.executable]


def cell_log(caplog):
    """The package's log lines, with each cell's seconds blanked."""
    return [
        (r.name, r.levelname, re.sub(r"[0-9.]+s\b", "Ts", r.getMessage()))
        for r in caplog.records if r.name.startswith("pashtext")
    ]


def test_cells_log_only_their_grid_lines(small_setup, small_report, monkeypatch, caplog):
    corpus, split = small_setup
    logs = []
    for run in (run_grid, functools.partial(run_in_process, monkeypatch)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pashtext"):
            run(corpus, split, params_by_kind=QUICK_PARAMS)
        logs.append(cell_log(caplog))
    assert logs[0] == logs[1]
    assert [(name, m) for name, _, m in logs[0] if "grid cell" in m] == [
        ("pashtext.grid", f"grid cell {c.kind.value}/{c.mode}: accuracy {c.accuracy:.4f} (Ts)")
        for c in small_report.cells
    ]
    assert not [name for name, _, _ in logs[0] if name == "pashtext.models.train"]


def test_cell_failing_in_the_tfidf_lane_yields_its_warning_row(
    small_setup, monkeypatch, caplog
):
    corpus, split = small_setup
    params = dict(QUICK_PARAMS)
    params[ModelKind.KNN] = KNNParams(k=100000)
    report = run_grid(corpus, split, params_by_kind=params)
    cell = report.cell(ModelKind.KNN, TFIDF)
    assert cell.accuracy is None and "InvalidHyperparameterError" in cell.error
    assert "failed" in report.accuracy_table_markdown().splitlines()[4]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"grid cell knn/{mode} failed: {report.cell(ModelKind.KNN, mode).error}"
        for mode in FEATURE_MODES
    ]


def test_failing_child_ends_the_grid_with_exit_three(tmp_path, monkeypatch, capsys):
    save_corpus(generate_corpus(classes=3, per_class=8, seed=5), tmp_path / "corpus.jsonl")
    monkeypatch.setattr(grid, "_LANE_CHILD", "raise SystemExit(1)")
    code = cli.main(["grid", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--out", str(tmp_path / "grid")])
    assert code == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: RuntimeError: the TFIDF lane's process exited with code 1"]
    assert not (tmp_path / "grid").exists()


# A script that runs a grid at its top level, with no `__main__` guard.
UNGUARDED_GRID_SCRIPT = textwrap.dedent("""
    from pashtext import cli

    print("top")
    raise SystemExit(cli.main(["grid", "--corpus", "corpus.jsonl", "--out", "script"]))
""")


def test_a_script_runs_a_grid_at_its_top_level(tmp_path):
    cli_args = ["-m", "pashtext.cli"]
    run_python([*cli_args, "synth", "--classes", "3", "--per-class", "10",
                "--out", "corpus.jsonl"], None, cwd=tmp_path)
    (tmp_path / "grid_script.py").write_text(UNGUARDED_GRID_SCRIPT, encoding="utf-8")
    out = run_python(["grid_script.py"], None, cwd=tmp_path)  # fails unless exit 0
    assert out.splitlines().count("top") == 1
    run_python([*cli_args, "grid", "--corpus", "corpus.jsonl", "--out", "cli"], None,
               cwd=tmp_path)
    names = sorted(path.name for path in (tmp_path / "cli").iterdir())
    assert len(names) == 6
    assert sorted(path.name for path in (tmp_path / "script").iterdir()) == names
    for name in names:
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


# Imports pashtext from argv[1] through `sys.path` alone, runs a grid and
# prints how many of its cells succeeded.
SYS_PATH_ONLY_GRID = textwrap.dedent("""
    import sys
    from dataclasses import replace

    sys.path.insert(0, sys.argv[1])
    from pashtext.corpus import stratified_split
    from pashtext.grid import run_grid
    from pashtext.synth import generate_corpus

    corpus = generate_corpus(classes=3, per_class=10, seed=5)
    split = replace(stratified_split(corpus, train_fraction=0.7, seed=5), seed=3)
    print(sum(cell.error is None for cell in run_grid(corpus, split).cells))
""")


def test_the_child_imports_pashtext_through_the_parents_sys_path(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    finished = subprocess.run(
        [sys.executable, "-c", SYS_PATH_ONLY_GRID, SOURCE_ROOT], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    assert finished.stdout == "16\n"


# Prints, on one line, the pashtext modules loaded so far.
LOADED = "print(*sorted(name for name in sys.modules if name.startswith('pashtext')))"


def test_the_cli_loads_what_a_command_runs_and_a_grid_no_process_pool(tmp_path):
    # The CLI loads the code of a command only when that command runs.
    loaded = run_python(["-c", f"import sys, pashtext.cli; {LOADED}"], None).split()
    assert "pashtext.cli" in loaded
    assert [name for name in loaded if name.startswith(
        ("pashtext.models", "pashtext.grid", "pashtext.metrics", "pashtext.synth"))] == []
    probe = ("import sys; from pashtext import cli; "
             "cli.main(['synth', '--classes', '2', '--per-class', '10', '--out', 'c.jsonl']); "
             f"cli.main(['ingest', '--corpus', 'c.jsonl']); {LOADED}; "
             "cli.main(['grid', '--corpus', 'c.jsonl', '--out', 'grid']); "
             "print([name for name in ('multiprocessing', 'concurrent.futures.process') "
             "if name in sys.modules])")
    lines = run_python(["-c", probe], None, cwd=tmp_path).splitlines()
    loaded = next(line.split() for line in lines if line.startswith("pashtext pashtext."))
    assert "pashtext.synth" in loaded
    assert [name for name in loaded if name.startswith("pashtext.models")] == []
    assert lines[-1] == "[]"


TRAIN_EVERY_KIND = textwrap.dedent("""
    import sys

    from pashtext.corpus import stratified_split
    from pashtext.models import ModelKind, train
    from pashtext.synth import generate_corpus
    from pashtext.vectorize import TFIDF, feature_matrix, fit_features, side_documents

    corpus = generate_corpus(classes=3, per_class=10, seed=5)
    split = stratified_split(corpus, train_fraction=0.7, seed=5)
    docs = side_documents(corpus, split, "train")
    vocab, mask, counts = fit_features(docs, corpus.labels, 5)
    matrix = feature_matrix(counts, vocab, mask, TFIDF)
    for kind in ModelKind:
        train(kind, matrix, label_count=len(corpus.labels))
    print("numpy.ma" in sys.modules)
""")


def test_training_every_kind_does_not_import_numpy_ma():
    # A plain np.unique imports numpy.ma, a cost every training process would pay.
    assert run_python(["-c", TRAIN_EVERY_KIND], None).strip() == "False"
