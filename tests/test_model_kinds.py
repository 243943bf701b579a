"""The kind -> class table: one model class per kind, each describing itself."""

import pytest

from pashtext.models import ModelKind
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
)
from pashtext.models.tree import DecisionTreeModel, RandomForestModel

# In ModelKind order: kind, class, params class, report name.
EXPECTED = [
    (ModelKind.GAUSSIAN_NB, GaussianNBModel, GaussianNBParams, "Gaussian Naive Bayes"),
    (ModelKind.MULTINOMIAL_NB, MultinomialNBModel, MultinomialNBParams,
     "Multinomial Naive Bayes"),
    (ModelKind.KNN, KNNModel, KNNParams, "K Nearest Neighbor"),
    (ModelKind.DECISION_TREE, DecisionTreeModel, DecisionTreeParams, "Decision Tree"),
    (ModelKind.RANDOM_FOREST, RandomForestModel, RandomForestParams, "Random Forest"),
    (ModelKind.LOGISTIC_REGRESSION, LogisticRegressionModel, LinearParams,
     "Logistic Regression"),
    (ModelKind.LINEAR_SVM, LinearSVMModel, LinearParams, "Linear SVM"),
    (ModelKind.MLP, MLPModel, MLPParams, "Multilayer Perceptron"),
]


def test_each_kind_maps_to_exactly_one_class_in_enum_order():
    assert [kind for kind, *_ in EXPECTED] == list(ModelKind)
    assert sorted(KIND_CLASSES) == sorted(ModelKind)
    assert [KIND_CLASSES[kind] for kind in ModelKind] == [cls for _, cls, *_ in EXPECTED]
    assert len(set(KIND_CLASSES.values())) == len(ModelKind)


@pytest.mark.parametrize("kind,cls,params_class,display_name", EXPECTED)
def test_class_describes_its_kind(kind, cls, params_class, display_name):
    assert cls.kind is kind
    assert cls.params_class is params_class
    assert cls.display_name == display_name


def test_a_second_class_of_a_kind_is_refused():
    with pytest.raises(TypeError, match="linear_svm"):
        type("AnotherSVM", (LinearSVMModel,), {"kind": ModelKind.LINEAR_SVM})
    assert KIND_CLASSES[ModelKind.LINEAR_SVM] is LinearSVMModel
