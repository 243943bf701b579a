"""Rendered grid and eval tables pinned by their SHA-256.

The grid's JSON, its four tables (accuracy and per-class, markdown and
CSV) and the markdown and CSV of eval reports are the results a reader
sees.  Their digests pin every byte of them: number formats, `failed`
markers and empty CSV fields, skipped CSV rows, `_no results (...)_`
blocks, CSV quoting and the `Overall accuracy` line.
"""

import dataclasses
import hashlib

import pytest
from test_grid import QUICK_PARAMS, run_with

from pashtext.corpus import stratified_split
from pashtext.grid import GridCell
from pashtext.metrics import evaluate_predictions
from pashtext.models import ModelKind
from pashtext.models.params import KNNParams
from pashtext.synth import generate_corpus
from pashtext.vectorize import TFIDF

GRID_RENDERERS = ("to_json_text", "accuracy_table_markdown", "accuracy_table_csv",
                  "per_class_tables_markdown", "per_class_tables_csv")
EVAL_RENDERERS = ("to_markdown", "to_csv")

PINNED = {
    "quick": {
        "to_json_text": "b984d3f9dcdad9642d2f91937b0c24771127a9fbd2877b6ea0d63c4b95d5a6f5",
        "accuracy_table_markdown": "5160dcd86b52ca5c8871f9b557b9e1b67d02c978d7a15be09d4ab3305cb7a49c",
        "accuracy_table_csv": "0c25bbba397b5136f2b9239b2bca222f20a42940fc1c6f6ad3095fedff9ffe19",
        "per_class_tables_markdown": "0df828c07478070b38a6f945b37d849962de068fade01caa1f6ad0f9040738d2",
        "per_class_tables_csv": "4f87a4cf733497c5298aa563a22904fb1f147f6db96966e2db8306be08747487",
    },
    "knn-failed-in-both-modes": {
        "to_json_text": "9e9d9937067e9bef8f2367baa02bee7b103de87b3b412636e6bd40181eb1e549",
        "accuracy_table_markdown": "8850fae3504235edb62dc7af868137a66a064fdee90eea992e2c625c5f1d4bc1",
        "accuracy_table_csv": "4bf225306afc973852eb7ea076ddb2fdf0b9647c5d8f256d538e7a8700a175bb",
        "per_class_tables_markdown": "74407ab28517a7746e4e29527279f1961187d3975412b3cba06af56f14c9977c",
        "per_class_tables_csv": "9999967f41e03f2d647427f53c774962c8c334fd23ca4b9bbbd955aaf466a08c",
    },
    "mlp-failed-in-tfidf-only": {
        "to_json_text": "9f6407e8c2b793bce4e20b5768b77cb9d8befa74d11bdf566a50e34a5e9c5a89",
        "accuracy_table_markdown": "7d66ff7733878bbce2a6426f17e369c2438717d712eaeb53b4ff7e1002ff34f0",
        "accuracy_table_csv": "1958ccb4b50a6e8326426f32725933958ca27121935732fa3401ad8d48118594",
        "per_class_tables_markdown": "112571967331ee5e4430b117658359fa2c6545db389a0f4c21e963aa8bf05a95",
        "per_class_tables_csv": "135e9dfd664c415d690d98c727ef3542f71532ea0e641e05f85029f77992b329",
    },
    "eval-quick-knn-tfidf": {
        "to_markdown": "290fd0253fcc1dc857caf675ccc1810cf3f94b0015138698d3ffb1be7a4e4d93",
        "to_csv": "7e614783b63729d91b361426e1c48d1383db2173c49513e96cab22f3af6d2a34",
    },
    "eval-direct": {
        "to_markdown": "dfe913d4e8ec6c75f1d160886fab3c69ef5e526ffe334c4de88f865a7b040edb",
        "to_csv": "20267ba6ed8e94778158535b151fb2046acf0736e04743ff697056e52b9e4515",
    },
}


@pytest.fixture(scope="module")
def grids():
    corpus = generate_corpus(classes=4, per_class=12, seed=5)
    split = dataclasses.replace(
        stratified_split(corpus, train_fraction=0.75, seed=5), seed=11)
    quick = run_with(QUICK_PARAMS, corpus, split)
    failing = dict(QUICK_PARAMS, **{ModelKind.KNN: KNNParams(k=100000)})
    knn_failed = run_with(failing, corpus, split)
    # One cell failed in one mode only: the per-class markdown shows its
    # fields as `failed` beside the other mode's, and the CSV skips its rows.
    cells = tuple(
        GridCell(c.kind, c.mode, None, "RuntimeError: boom")
        if (c.kind, c.mode) == (ModelKind.MLP, TFIDF) else c
        for c in quick.cells
    )
    return {
        "quick": quick,
        "knn-failed-in-both-modes": knn_failed,
        "mlp-failed-in-tfidf-only": dataclasses.replace(quick, cells=cells),
    }


def digests(report, renderers):
    return {
        name: hashlib.sha256(getattr(report, name)().encode("utf-8")).hexdigest()
        for name in renderers
    }


@pytest.mark.parametrize("case", ["quick", "knn-failed-in-both-modes",
                                  "mlp-failed-in-tfidf-only"])
def test_grid_tables_are_pinned(grids, case):
    assert digests(grids[case], GRID_RENDERERS) == PINNED[case]


def test_eval_tables_of_a_grid_cell_are_pinned(grids):
    report = grids["quick"].cell(ModelKind.KNN, TFIDF).report
    assert digests(report, EVAL_RENDERERS) == PINNED["eval-quick-knn-tfidf"]


def test_eval_tables_with_quoted_names_and_an_empty_class_are_pinned():
    # Names that CSV must quote, a non-ASCII name and a class of support 0.
    names = ("alpha", "beta,gamma", 'say "hi"', "پښتو")
    truth = [0, 0, 0, 1, 1, 2, 2, 2, 2]
    preds = [0, 1, 3, 1, 1, 2, 0, 2, 3]
    report = evaluate_predictions(truth, preds, names)
    assert digests(report, EVAL_RENDERERS) == PINNED["eval-direct"]
