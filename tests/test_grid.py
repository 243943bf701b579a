"""The 16-cell evaluation grid: determinism, failure isolation, reports."""

import json

import pytest

from pashtext.corpus import SplitSpec, stratified_split
from pashtext.errors import DataError
from pashtext.grid import GridCell, GridReport, cell_seed, run_grid
from pashtext.models import (
    KNNParams,
    LinearParams,
    MLPParams,
    ModelKind,
    RandomForestParams,
)
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


def test_grid_covers_all_cells_in_canonical_order(small_report):
    expected = [(kind, mode) for kind in ModelKind for mode in FEATURE_MODES]
    assert [(c.kind, c.mode) for c in small_report.cells] == expected
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
    for mode in FEATURE_MODES:
        cell = report.cell(ModelKind.KNN, mode)
        assert cell.accuracy is None and cell.report is None
        assert "InvalidHyperparameterError" in cell.error
    healthy = report.cell(ModelKind.MULTINOMIAL_NB, UNIGRAM)
    assert healthy.error is None and healthy.accuracy is not None


def test_report_round_trip(small_report):
    data = json.loads(small_report.to_json_text())
    assert data["format"] == "pashtext-grid-report"
    restored = GridReport.from_dict(data)
    assert restored.to_json_text() == small_report.to_json_text()
    with pytest.raises(DataError):
        GridReport.from_dict({"format": "other"})


def test_report_enforces_canonical_cell_order(small_report):
    shuffled = tuple(reversed(small_report.cells))
    with pytest.raises(DataError, match="canonical"):
        GridReport(
            seed=1, n_train=1, n_test=1, select_k=None,
            label_names=small_report.label_names, cells=shuffled,
        )
    with pytest.raises(DataError):
        small_report.cell(ModelKind.KNN, "bigram")


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


def test_cell_dict_round_trip(small_report):
    cell = small_report.cells[0]
    assert GridCell.from_dict(cell.to_dict()) == cell
