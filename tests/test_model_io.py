"""Model document round trips and the shared training entry point."""

import json

import numpy as np
import pytest
from matrices import matrix_from_dense

from pashtext.errors import DataError, InvalidHyperparameterError
from pashtext.models import ModelKind, base, train
from pashtext.models.io import model_document, model_from_document
from pashtext.models.params import KNNParams, LinearParams, MLPParams, RandomForestParams
from pashtext.vectorize import UNIGRAM

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
    return matrix_from_dense(dense, labels)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_round_trip_preserves_predictions(kind):
    m = toy_matrix()
    model = train(kind, m, QUICK_PARAMS.get(kind))
    restored = model_from_document(json.loads(json.dumps(model_document(model))))
    assert restored.kind == kind
    assert restored.label_count == model.label_count
    assert restored.feature_dimension == model.feature_dimension
    assert restored.params == model.params
    probes = matrix_from_dense(np.vstack([m.to_dense(), np.zeros((1, 3))]))
    scores = model.predict_scores(probes)
    assert scores.shape == (7, model.label_count)
    assert np.allclose(restored.predict_scores(probes), scores, atol=1e-12)
    assert np.array_equal(restored.predict_rows(probes), model.predict_rows(probes))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_blocked_scores_equal_single_block(kind, monkeypatch):
    m = toy_matrix()
    model = train(kind, m, QUICK_PARAMS.get(kind))
    probes = matrix_from_dense(np.vstack([m.to_dense(), np.zeros((1, 3))]))
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
    with pytest.raises(DataError, match="/label_count is 7, which loads as 3"):
        model_from_document(bad)
    bad = dict(doc, feature_dimension=99)
    with pytest.raises(DataError, match="/feature_dimension is 99, which loads as 3"):
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
    """Splits must name a real feature (an int, not a float, string or bool)
    with a finite float threshold, leaves must
    hold label_count non-negative integer counts with a positive sum, and a
    forest must hold the n_trees trees its hyperparameters declare."""
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
            lambda node: leaf(node).update(counts=[0.5, 0.25, 0.25]),
            lambda node: node.update(feature=1.7),
            lambda node: node.update(feature="1"),
            lambda node: node.update(feature=True),
            lambda node: node.update(threshold="0.5"),
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
        # an integer threshold, even one too large for a float, is no float
        for threshold in (10**400, 1):
            broken = json.loads(json.dumps(doc))
            root(broken)["threshold"] = threshold
            with pytest.raises(DataError, match="must be an integer and a float"):
                model_from_document(broken)
        assert model_from_document(doc).payload() == doc["payload"]
    # a forest with no trees, or fewer than it declares
    for trees in ([], doc["payload"]["trees"][:1]):
        broken = json.loads(json.dumps(doc))
        broken["payload"]["trees"] = trees
        with pytest.raises(DataError, match="trees"):
            model_from_document(broken)


@pytest.mark.parametrize(
    "defect",
    [
        lambda doc: doc["payload"]["b1"].pop(),  # b1 one element short
        lambda doc: doc["payload"]["w2"].pop(),  # w2 one row short
        lambda doc: doc["payload"]["b2"].append(0.0),  # b2 one element long
        lambda doc: doc["payload"]["w1"][0].__setitem__(0, float("nan")),
        lambda doc: doc["payload"]["b2"].__setitem__(0, float("inf")),
        lambda doc: doc["hyperparams"].update(hidden_units=2),  # w1 is 3 wide
    ],
    ids=["b1-short", "w2-short", "b2-long", "w1-nan", "b2-inf", "hidden-units"],
)
def test_mlp_payloads_are_validated_on_load(defect):
    doc = model_document(train(ModelKind.MLP, toy_matrix(), QUICK_PARAMS[ModelKind.MLP]))
    broken = json.loads(json.dumps(doc))
    defect(broken)
    with pytest.raises(DataError, match="mlp"):
        model_from_document(broken)
    assert model_from_document(doc).payload() == doc["payload"]


def _set(path, value):
    def defect(doc):
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return defect


@pytest.mark.parametrize(
    "kind, defect",
    [
        (ModelKind.MULTINOMIAL_NB, _set(("payload", "priors", 0), 0.9)),
        (ModelKind.MULTINOMIAL_NB, _set(("payload", "priors", 1), float("nan"))),
        (ModelKind.MULTINOMIAL_NB, lambda doc: doc["payload"]["priors"].pop()),
        (ModelKind.GAUSSIAN_NB, _set(("payload", "variances", 0, 0), -1.0)),
        (ModelKind.GAUSSIAN_NB, _set(("payload", "means", 0, 0), float("nan"))),
        (ModelKind.GAUSSIAN_NB, lambda doc: doc["payload"]["variances"][2].pop()),
        (ModelKind.LOGISTIC_REGRESSION, lambda doc: doc["payload"]["bias"].pop()),
        (ModelKind.LOGISTIC_REGRESSION, _set(("payload", "weights", 1, 2), float("nan"))),
        (ModelKind.LINEAR_SVM, _set(("payload", "bias", 0), float("inf"))),
        (ModelKind.KNN, _set(("payload", "row_labels", 0), 7)),
        (ModelKind.KNN, _set(("payload", "row_labels", 5), -1)),
        (ModelKind.KNN, _set(("hyperparams", "k"), 7)),  # six stored rows
    ],
    ids=[
        "mnb-priors-sum", "mnb-priors-nan", "mnb-priors-short",
        "gnb-negative-variance", "gnb-mean-nan", "gnb-variances-ragged",
        "logistic-bias-short", "logistic-weight-nan", "svm-bias-inf",
        "knn-label-7", "knn-label-minus-1", "knn-k-above-rows",
    ],
)
def test_nb_linear_knn_payloads_are_validated_on_load(kind, defect):
    doc = model_document(train(kind, toy_matrix(), QUICK_PARAMS.get(kind)))
    broken = json.loads(json.dumps(doc))
    defect(broken)
    with pytest.raises(DataError, match=kind.value):
        model_from_document(broken)
    assert model_from_document(doc).payload() == doc["payload"]


@pytest.mark.parametrize(
    "kind, field, value",
    [
        (ModelKind.GAUSSIAN_NB, "variance_floor", 0.0),
        (ModelKind.MULTINOMIAL_NB, "laplace_alpha", -1.0),
        (ModelKind.KNN, "k", 0),
        (ModelKind.DECISION_TREE, "min_samples_split", 1),
        (ModelKind.RANDOM_FOREST, "n_trees", 0),
        (ModelKind.LOGISTIC_REGRESSION, "learning_rate", 0.0),
        (ModelKind.LINEAR_SVM, "l2_strength", -1.0),
        (ModelKind.MLP, "epochs", 0),
    ],
)
def test_out_of_range_hyperparameters_are_data_errors(kind, field, value):
    model = train(kind, toy_matrix(), QUICK_PARAMS.get(kind))
    doc = json.loads(json.dumps(model_document(model)))
    doc["hyperparams"][field] = value
    with pytest.raises(DataError, match=f"^malformed {kind.value} model document: "
                                        f"InvalidHyperparameterError: {field} must be "):
        model_from_document(doc)


def test_train_validates_inputs():
    m = toy_matrix()
    with pytest.raises(ValueError):
        train("quantum_svm", m)
    with pytest.raises(InvalidHyperparameterError, match="expects"):
        train(ModelKind.KNN, m, LinearParams())
    empty = matrix_from_dense(np.zeros((0, 3)))
    with pytest.raises(DataError, match="empty"):
        train(ModelKind.MULTINOMIAL_NB, empty)
    flat = matrix_from_dense(np.zeros((2, 0)), [0, 1])
    with pytest.raises(DataError, match="zero-dimensional"):
        train(ModelKind.MULTINOMIAL_NB, flat)
    single = matrix_from_dense([[1.0], [2.0]], [1, 1])
    with pytest.raises(DataError, match="two distinct classes"):
        train(ModelKind.MULTINOMIAL_NB, single)
    with pytest.raises(DataError, match="label_count"):
        train(ModelKind.MULTINOMIAL_NB, toy_matrix(), label_count=2)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_train_refuses_a_negative_row_label(kind):
    """numpy would read label -1 as the last class, or refuse it in a raw
    ValueError; `train` refuses it for every kind alike."""
    matrix = matrix_from_dense([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [-1, 1, 1])
    with pytest.raises(DataError, match="^training labels must be non-negative"):
        train(kind, matrix, QUICK_PARAMS.get(kind), label_count=2)


def test_train_accepts_kind_by_value_and_defaults_label_count():
    model = train("gaussian_nb", toy_matrix())
    assert model.kind == ModelKind.GAUSSIAN_NB
    assert model.label_count == 3
    wider = train("gaussian_nb", toy_matrix(), label_count=5)
    assert wider.label_count == 5
