"""The kind -> class table: one model class per kind, each describing itself,
and the typing of its hyperparameter record."""

import dataclasses
import math

import pytest

from pashtext.errors import InvalidHyperparameterError
from pashtext.models import Model, ModelKind
from pashtext.models.base import KIND_CLASSES
from pashtext.models.knn import KNNModel
from pashtext.models.linear import LinearSVMModel, LogisticRegressionModel
from pashtext.models.mlp import MLPModel
from pashtext.models.naive_bayes import GaussianNBModel, MultinomialNBModel
from pashtext.models.params import (
    DecisionTreeParams,
    GaussianNBParams,
    KNNParams,
    LinearParams,
    MLPParams,
    MultinomialNBParams,
    RandomForestParams,
    make_params,
)
from pashtext.models.tree import DecisionTreeModel, RandomForestModel

# In ModelKind order: kind, class, params class, report name, payload arrays.
EXPECTED = [
    (ModelKind.GAUSSIAN_NB, GaussianNBModel, GaussianNBParams, "Gaussian Naive Bayes",
     ("priors", "means", "variances")),
    (ModelKind.MULTINOMIAL_NB, MultinomialNBModel, MultinomialNBParams,
     "Multinomial Naive Bayes", ("priors", "log_token_probs")),
    (ModelKind.KNN, KNNModel, KNNParams, "K Nearest Neighbor", ()),
    (ModelKind.DECISION_TREE, DecisionTreeModel, DecisionTreeParams, "Decision Tree", ()),
    (ModelKind.RANDOM_FOREST, RandomForestModel, RandomForestParams, "Random Forest", ()),
    (ModelKind.LOGISTIC_REGRESSION, LogisticRegressionModel, LinearParams,
     "Logistic Regression", ("weights", "bias")),
    (ModelKind.LINEAR_SVM, LinearSVMModel, LinearParams, "Linear SVM", ("weights", "bias")),
    (ModelKind.MLP, MLPModel, MLPParams, "Multilayer Perceptron", ("w1", "b1", "w2", "b2")),
]


def test_each_kind_maps_to_exactly_one_class_in_enum_order():
    assert [kind for kind, *_ in EXPECTED] == list(ModelKind)
    assert sorted(KIND_CLASSES) == sorted(ModelKind)
    assert [KIND_CLASSES[kind] for kind in ModelKind] == [cls for _, cls, *_ in EXPECTED]
    assert len(set(KIND_CLASSES.values())) == len(ModelKind)


@pytest.mark.parametrize("kind,cls,params_class,display_name,payload_arrays", EXPECTED)
def test_class_describes_its_kind(kind, cls, params_class, display_name, payload_arrays):
    assert cls.kind is kind
    assert cls.params_class is params_class
    assert cls.display_name == display_name
    assert cls.payload_arrays == payload_arrays


@pytest.mark.parametrize("cls", [cls for _, cls, *_, arrays in EXPECTED if not arrays])
def test_a_class_without_payload_arrays_writes_and_reads_its_own_payload(cls):
    """The inherited methods would save such a model as {} and could not load it."""
    assert cls.payload is not Model.payload
    assert cls.from_payload.__func__ is not Model.from_payload.__func__


def test_a_second_class_of_a_kind_is_refused():
    with pytest.raises(TypeError, match="linear_svm"):
        type("AnotherSVM", (LinearSVMModel,), {"kind": ModelKind.LINEAR_SVM})
    assert KIND_CLASSES[ModelKind.LINEAR_SVM] is LinearSVMModel


# Every float field of every params record, by kind.
FLOAT_FIELDS = [
    (kind, f.name)
    for kind in ModelKind
    for f in dataclasses.fields(KIND_CLASSES[kind].params_class)
    if f.type == "float"
]


def test_float_fields_are_found():
    assert len(FLOAT_FIELDS) == 10


@pytest.mark.parametrize("kind,field", FLOAT_FIELDS)
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "Infinity", "1e400", "-1e999"])
def test_non_finite_float_param_string_is_refused(kind, field, raw):
    with pytest.raises(InvalidHyperparameterError) as caught:
        make_params(kind, {field: raw}, 1)
    assert str(caught.value) == f"{field}: expected float, got {raw!r}"


@pytest.mark.parametrize("kind,field", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_saved_float_is_refused(kind, field, value):
    values = dataclasses.asdict(make_params(kind, {}))
    make_params(kind, values)
    values[field] = value
    with pytest.raises(InvalidHyperparameterError, match=f"^{field}: expected float, got "):
        make_params(kind, values)


def test_float_fields_take_finite_floats_and_ints_in_float_range():
    params = make_params(ModelKind.MLP, {"adam_epsilon": "1e-300"}, 1)
    assert params.adam_epsilon == 1e-300
    values = dataclasses.asdict(make_params(ModelKind.MULTINOMIAL_NB, {}))
    for value in (2, 1.5, 2**1000):
        values["laplace_alpha"] = value
        assert make_params(ModelKind.MULTINOMIAL_NB, values).laplace_alpha == value
    values["laplace_alpha"] = 10**400  # beyond the largest float
    with pytest.raises(InvalidHyperparameterError, match="^laplace_alpha: expected float"):
        make_params(ModelKind.MULTINOMIAL_NB, values)
