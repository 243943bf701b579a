"""Model save/load round trips and the shared training entry point."""

import json

import numpy as np
import pytest

from pashtext.errors import DataError, InvalidHyperparameterError
from pashtext.models import (
    base,
    KNNParams,
    LinearParams,
    MLPParams,
    ModelKind,
    RandomForestParams,
    load_model,
    model_document,
    model_from_document,
    save_model,
    train,
)
from pashtext.vectorize import UNIGRAM, FeatureMatrix

QUICK_PARAMS = {
    ModelKind.KNN: KNNParams(k=2),
    ModelKind.RANDOM_FOREST: RandomForestParams(n_trees=2, seed=5),
    ModelKind.LOGISTIC_REGRESSION: LinearParams(epochs=5),
    ModelKind.LINEAR_SVM: LinearParams(epochs=5),
    ModelKind.MLP: MLPParams(hidden_units=3, epochs=3, seed=5),
}


def toy_matrix():
    dense = np.array(
        [
            [2.0, 0.0, 1.0],
            [1.0, 0.5, 0.0],
            [0.0, 2.0, 1.0],
            [0.0, 1.5, 2.0],
            [1.0, 1.0, 1.0],
            [0.5, 0.0, 2.0],
        ]
    )
    labels = np.array([0, 0, 1, 1, 2, 2])
    return FeatureMatrix.from_dense(dense, labels)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_round_trip_preserves_predictions(kind, tmp_path):
    m = toy_matrix()
    model = train(kind, m, QUICK_PARAMS.get(kind))
    path = tmp_path / f"{kind.value}.json"
    save_model(model, path)
    restored = load_model(path)
    assert restored.kind == kind
    assert restored.label_count == model.label_count
    assert restored.feature_dimension == model.feature_dimension
    assert restored.params == model.params
    probes = FeatureMatrix.from_dense(np.vstack([m.to_dense(), np.zeros((1, 3))]))
    scores = model.predict_scores(probes)
    assert scores.shape == (7, model.label_count)
    assert np.allclose(restored.predict_scores(probes), scores, atol=1e-12)
    assert np.array_equal(restored.predict_rows(probes), model.predict_rows(probes))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_blocked_scores_equal_single_block(kind, monkeypatch):
    m = toy_matrix()
    model = train(kind, m, QUICK_PARAMS.get(kind))
    probes = FeatureMatrix.from_dense(np.vstack([m.to_dense(), np.zeros((1, 3))]))
    whole = model.predict_scores(probes)
    # Six cells per block: one or two probe rows per block, ending on a short one.
    monkeypatch.setattr(base, "_BLOCK_CELLS", 6)
    assert np.array_equal(model.predict_scores(probes), whole)


def test_knn_blocks_are_sized_by_stored_rows(monkeypatch):
    model = train(ModelKind.KNN, toy_matrix(), QUICK_PARAMS[ModelKind.KNN])
    blocks = []
    scores = model._scores
    monkeypatch.setattr(model, "_scores", lambda rows: blocks.append(rows.n_rows) or scores(rows))
    monkeypatch.setattr(base, "_BLOCK_CELLS", 12)
    model.predict_scores(toy_matrix())
    # Six stored rows against three features: two query rows per block.
    assert blocks == [2, 2, 2]


def test_document_fields():
    model = train(ModelKind.MULTINOMIAL_NB, toy_matrix())
    doc = model_document(model)
    assert doc["format"] == "pashtext-model"
    assert doc["version"] == 1
    assert doc["kind"] == "multinomial_nb"
    assert doc["label_count"] == 3
    assert doc["feature_dimension"] == 3
    assert doc["hyperparams"] == {"laplace_alpha": 1.0}
    json.dumps(doc)  # must be JSON-serializable as-is


def test_document_validation_errors():
    model = train(ModelKind.MULTINOMIAL_NB, toy_matrix())
    doc = model_document(model)
    bad = dict(doc, format="other")
    with pytest.raises(DataError, match="not a pashtext-model"):
        model_from_document(bad)
    bad = dict(doc, version=99)
    with pytest.raises(DataError, match="version"):
        model_from_document(bad)
    bad = dict(doc, kind="quantum_svm")
    with pytest.raises(DataError, match="unknown model kind"):
        model_from_document(bad)
    bad = dict(doc, label_count=7)
    with pytest.raises(DataError, match="label count"):
        model_from_document(bad)
    bad = dict(doc, feature_dimension=99)
    with pytest.raises(DataError, match="dimension"):
        model_from_document(bad)


@pytest.mark.parametrize(
    "kind, path",
    [
        (ModelKind.MULTINOMIAL_NB, ("hyperparams",)),
        (ModelKind.MULTINOMIAL_NB, ("payload",)),
        (ModelKind.MULTINOMIAL_NB, ("payload", "priors")),
        (ModelKind.GAUSSIAN_NB, ("payload", "variances")),
        (ModelKind.KNN, ("payload", "rows")),
        (ModelKind.KNN, ("payload", "mode")),
        (ModelKind.DECISION_TREE, ("payload", "root")),
        (ModelKind.DECISION_TREE, ("label_count",)),
        (ModelKind.RANDOM_FOREST, ("payload", "trees")),
        (ModelKind.LINEAR_SVM, ("payload", "bias")),
        (ModelKind.MLP, ("payload", "w2")),
    ],
)
def test_missing_document_keys_are_data_errors(kind, path):
    model = train(kind, toy_matrix(), QUICK_PARAMS.get(kind))
    doc = json.loads(json.dumps(model_document(model)))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    with pytest.raises(DataError):
        model_from_document(doc)


def test_wrong_types_are_data_errors():
    doc = model_document(train(ModelKind.MULTINOMIAL_NB, toy_matrix()))
    for bad in (dict(doc, hyperparams=None), dict(doc, hyperparams={"bogus": 1}),
                dict(doc, payload=[1, 2])):
        with pytest.raises(DataError, match="malformed multinomial_nb"):
            model_from_document(bad)
    knn = model_document(train(ModelKind.KNN, toy_matrix(), KNNParams(k=2)))
    knn["payload"]["rows"][0]["values"].append(1.0)
    with pytest.raises(DataError):
        model_from_document(knn)


def test_tree_payloads_are_validated_on_load():
    """Splits must name a real feature with a finite threshold, and leaves
    must hold label_count non-negative counts with a positive sum."""
    for kind in (ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST):
        doc = model_document(train(kind, toy_matrix(), QUICK_PARAMS.get(kind)))

        def root(document):
            payload = document["payload"]
            if kind is ModelKind.DECISION_TREE:
                return payload["root"]
            return payload["trees"][0]["root"]

        def leaf(node):
            while "counts" not in node:
                node = node["left"]
            return node

        defects = [
            lambda node: node.update(feature=10**6),
            lambda node: node.update(feature=-1),
            lambda node: node.update(threshold=float("inf")),
            lambda node: node.update(threshold=float("nan")),
            lambda node: leaf(node).update(counts=[1, 1]),
            lambda node: leaf(node).update(counts=[2, -1, 0]),
            lambda node: leaf(node).update(counts=[0, 0, 0]),
        ]
        for defect in defects:
            broken = json.loads(json.dumps(doc))
            defect(root(broken))
            with pytest.raises(DataError, match="tree"):
                model_from_document(broken)
        # both defects at once: an out-of-range feature and an empty leaf
        broken = json.loads(json.dumps(doc))
        root(broken)["feature"] = 10**6
        leaf(root(broken))["counts"] = [0, 0, 0]
        with pytest.raises(DataError, match="tree"):
            model_from_document(broken)
        assert model_from_document(doc).payload() == doc["payload"]


def test_load_rejects_broken_files(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="cannot read"):
        load_model(path)
    with pytest.raises(DataError):
        load_model(tmp_path / "absent.json")


def test_train_validates_inputs():
    m = toy_matrix()
    with pytest.raises(ValueError):
        train("quantum_svm", m)
    with pytest.raises(InvalidHyperparameterError, match="expects"):
        train(ModelKind.KNN, m, LinearParams())
    empty = FeatureMatrix.from_dense(np.zeros((0, 3)))
    with pytest.raises(DataError, match="empty"):
        train(ModelKind.MULTINOMIAL_NB, empty)
    flat = FeatureMatrix.from_dense(np.zeros((2, 0)), [0, 1])
    with pytest.raises(DataError, match="zero-dimensional"):
        train(ModelKind.MULTINOMIAL_NB, flat)
    single = FeatureMatrix.from_dense([[1.0], [2.0]], [1, 1])
    with pytest.raises(DataError, match="two distinct classes"):
        train(ModelKind.MULTINOMIAL_NB, single)
    with pytest.raises(DataError, match="label_count"):
        train(ModelKind.MULTINOMIAL_NB, toy_matrix(), label_count=2)


def test_train_accepts_kind_by_value_and_defaults_label_count():
    model = train("gaussian_nb", toy_matrix())
    assert model.kind == ModelKind.GAUSSIAN_NB
    assert model.label_count == 3
    wider = train("gaussian_nb", toy_matrix(), label_count=5)
    assert wider.label_count == 5
