"""The 16-cell evaluation grid: determinism, failure isolation, reports, and
the same bytes whether the TFIDF lane runs in its child process or in this
one."""

import concurrent.futures
import functools
import hashlib
import logging
import os
import re
import subprocess
import sys
import textwrap

import pytest
from test_blas_threads import SOURCE_ROOT, run_python

from pashtext.corpus import CorpusSplit, SplitSpec, stratified_split
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
    split = stratified_split(corpus, SplitSpec(train_fraction=0.75, seed=5))
    return corpus, split


@pytest.fixture(scope="module")
def small_report(small_setup):
    corpus, split = small_setup
    return run_grid(corpus, split, seed=11, params_by_kind=QUICK_PARAMS)


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


def test_grid_is_deterministic(small_setup, small_report):
    corpus, split = small_setup
    again = run_grid(corpus, split, seed=11, params_by_kind=QUICK_PARAMS)
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
    report = run_grid(corpus, split, seed=11, params_by_kind=params)
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
    failed = run_grid(corpus, split, seed=11, params_by_kind=params)
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
    report = run_grid(
        corpus, split, seed=11, select_k=30, params_by_kind=QUICK_PARAMS
    )
    assert report.select_k == 30
    for cell in report.cells:
        assert cell.error is None
        assert 0.0 <= cell.accuracy <= 1.0


def test_grid_reads_the_train_side_before_the_test_side(small_setup):
    """Each side's unknown ids and emptiness are reported, train side first."""
    corpus, split = small_setup
    ghosts = CorpusSplit(split.train_ids + ("ghost-train",), split.test_ids + ("ghost-test",))
    with pytest.raises(DataError, match="ghost-train"):
        run_grid(corpus, ghosts, params_by_kind=QUICK_PARAMS)
    with pytest.raises(DataError, match="no usable documents on the train side"):
        run_grid(corpus, CorpusSplit((), ()), params_by_kind=QUICK_PARAMS)
    with pytest.raises(DataError, match="no usable documents on the test side"):
        run_grid(corpus, CorpusSplit(split.train_ids, ()), params_by_kind=QUICK_PARAMS)


def report_texts(report):
    """grid.json and the four tables, as the grid command writes them."""
    return (
        report.to_json_text(),
        report.accuracy_table_markdown(),
        report.accuracy_table_csv(),
        report.per_class_tables_markdown(),
        report.per_class_tables_csv(),
    )


class InProcessPool:
    """Stands in for `ProcessPoolExecutor`: `submit` runs the call in this
    process and returns its done future."""

    def __init__(self, *_args, **_kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def run_in_process(monkeypatch, *args, **kwargs):
    """`run_grid` with its TFIDF lane run in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return run_grid(*args, **kwargs)


class CountedPool(concurrent.futures.ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        CountedPool.started += 1


def test_spawned_lane_gives_the_in_process_bytes(small_setup, monkeypatch):
    corpus, split = small_setup
    # Default parameters: every cell seeds itself from the grid seed.
    expected = report_texts(run_in_process(monkeypatch, corpus, split, seed=11, select_k=40))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    before = CountedPool.started
    assert report_texts(run_grid(corpus, split, seed=11, select_k=40)) == expected
    assert CountedPool.started - before == 1


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
            run(corpus, split, seed=11, params_by_kind=QUICK_PARAMS)
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
    report = run_grid(corpus, split, seed=11, params_by_kind=params)
    cell = report.cell(ModelKind.KNN, TFIDF)
    assert cell.accuracy is None and "InvalidHyperparameterError" in cell.error
    assert "failed" in report.accuracy_table_markdown().splitlines()[4]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"grid cell knn/{mode} failed: {report.cell(ModelKind.KNN, mode).error}"
        for mode in FEATURE_MODES
    ]


# Runs one small grid in a fresh interpreter whose default start method is
# argv[1], and prints the SHA-256 of its five outputs.
LANES_UNDER_START_METHOD = textwrap.dedent("""
    import hashlib
    import multiprocessing
    import sys

    from pashtext import grid
    from pashtext.corpus import SplitSpec, stratified_split
    from pashtext.synth import generate_corpus

    if __name__ == "__main__":
        multiprocessing.set_start_method(sys.argv[1])
        corpus = generate_corpus(classes=3, per_class=10, seed=5)
        split = stratified_split(corpus, SplitSpec(train_fraction=0.7, seed=5))
        report = grid.run_grid(corpus, split, seed=3)
        texts = (report.to_json_text(), report.accuracy_table_markdown(),
                 report.accuracy_table_csv(), report.per_class_tables_markdown(),
                 report.per_class_tables_csv())
        print(hashlib.sha256(repr(texts).encode()).hexdigest())
""")


@pytest.mark.parametrize("method,threads", [("forkserver", None), ("forkserver", "2"),
                                            ("fork", "2")])
def test_two_lanes_give_the_same_bytes_whatever_the_default_start_method(
    tmp_path, monkeypatch, method, threads
):
    corpus = generate_corpus(classes=3, per_class=10, seed=5)
    split = stratified_split(corpus, SplitSpec(train_fraction=0.7, seed=5))
    texts = report_texts(run_in_process(monkeypatch, corpus, split, seed=3))
    script = tmp_path / "lanes.py"
    script.write_text(LANES_UNDER_START_METHOD, encoding="utf-8")
    digest = hashlib.sha256(repr(texts).encode()).hexdigest()
    assert run_python([str(script), method], threads).strip() == digest


# `pashtext` whose TFIDF lane's child process dies as it starts.  The spawned
# child runs this file again, so it learns the parent's pid from the
# environment.
DYING_CHILD = textwrap.dedent("""
    import os
    import sys

    from pashtext import cli, grid

    PARENT = int(os.environ.setdefault("DYING_CHILD_PARENT", str(os.getpid())))
    run_lane = grid._run_lane

    def lane_dying_in_the_child(jobs):
        if os.getpid() != PARENT:
            os._exit(1)
        return run_lane(jobs)

    if __name__ == "__main__":
        grid._run_lane = lane_dying_in_the_child
        sys.exit(cli.main(sys.argv[1:]))
""")


def test_killed_child_ends_the_grid_with_exit_three(tmp_path):
    script = tmp_path / "dying.py"
    script.write_text(DYING_CHILD, encoding="utf-8")
    run_python(["-m", "pashtext.cli", "synth", "--classes", "3", "--per-class", "8",
                "--out", str(tmp_path / "corpus.jsonl")], None)
    env = {key: value for key, value in os.environ.items() if key != "DYING_CHILD_PARENT"}
    finished = subprocess.run(
        [sys.executable, str(script), "grid", "--corpus", str(tmp_path / "corpus.jsonl"),
         "--out", str(tmp_path / "grid")],
        env={**env, "PYTHONPATH": SOURCE_ROOT}, capture_output=True, text=True,
        timeout=120,
    )
    assert finished.returncode == 3
    errors = [line for line in finished.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "BrokenProcessPool" in errors[0]
    assert not (tmp_path / "grid" / "grid.json").exists()


# Prints, on its last line, the pashtext modules loaded so far.
LOADED = "print(*sorted(name for name in sys.modules if name.startswith('pashtext')))"


def test_importing_the_cli_does_not_import_the_process_pool(tmp_path):
    probe = ("import sys, pashtext.cli, pashtext.grid; "
             "print('concurrent.futures.process' in sys.modules)")
    assert run_python(["-c", probe], None).strip() == "False"
    # The CLI loads the code of a command only when that command runs.
    loaded = run_python(["-c", f"import sys, pashtext.cli; {LOADED}"], None).split()
    assert "pashtext.cli" in loaded
    assert [name for name in loaded if name.startswith(
        ("pashtext.models", "pashtext.grid", "pashtext.metrics", "pashtext.synth"))] == []
    probe = ("import sys; from pashtext import cli; "
             "cli.main(['synth', '--classes', '2', '--per-class', '4', '--out', 'c.jsonl']); "
             f"cli.main(['ingest', '--corpus', 'c.jsonl']); {LOADED}")
    loaded = run_python(["-c", probe], None, cwd=tmp_path).splitlines()[-1].split()
    assert "pashtext.synth" in loaded
    assert [name for name in loaded if name.startswith("pashtext.models")] == []


TRAIN_EVERY_KIND = textwrap.dedent("""
    import sys

    from pashtext.corpus import SplitSpec, stratified_split
    from pashtext.models import ModelKind, train
    from pashtext.synth import generate_corpus
    from pashtext.vectorize import TFIDF, feature_matrix, fit_features, side_documents

    corpus = generate_corpus(classes=3, per_class=10, seed=5)
    split = stratified_split(corpus, SplitSpec(train_fraction=0.7, seed=5))
    docs = side_documents(corpus, split.train_ids, "train")
    vocab, mask, counts = fit_features(docs, corpus.labels, 5)
    matrix = feature_matrix(counts, vocab, mask, TFIDF)
    for kind in ModelKind:
        train(kind, matrix, label_count=len(corpus.labels))
    print("numpy.ma" in sys.modules)
""")


def test_training_every_kind_does_not_import_numpy_ma():
    # A plain np.unique imports numpy.ma, a cost every training process would pay.
    assert run_python(["-c", TRAIN_EVERY_KIND], None).strip() == "False"
