"""Eight classifier families behind one train/predict contract.

All families are implemented from first principles on top of numpy arrays;
the only shared machinery is the sparse feature matrix from
:mod:`pashtext.vectorize` and the package PRNG.  Every model scores whole
matrices at once: ``predict_scores`` returns an (n_rows, K) array and
``predict_rows`` its row-wise argmax.
"""

from .base import KIND_DISPLAY_NAMES, Model, ModelKind
from .params import (
    COSINE,
    DEFAULT_SEED,
    EUCLIDEAN,
    DecisionTreeParams,
    GaussianNBParams,
    KNNParams,
    LinearParams,
    MLPParams,
    MultinomialNBParams,
    RandomForestParams,
    default_params,
    params_class_for,
    params_with_overrides,
)
from .knn import KNNModel, train_knn
from .linear import (
    LinearSVMModel,
    LogisticRegressionModel,
    train_linear_svm,
    train_logistic_regression,
)
from .mlp import MLPModel, train_mlp
from .naive_bayes import (
    GaussianNBModel,
    MultinomialNBModel,
    train_gaussian_nb,
    train_multinomial_nb,
)
from .tree import (
    DecisionTreeModel,
    RandomForestModel,
    train_decision_tree,
    train_random_forest,
)
from .io import model_document, model_from_document
from .train import train

__all__ = [
    "COSINE",
    "DEFAULT_SEED",
    "DecisionTreeModel",
    "DecisionTreeParams",
    "EUCLIDEAN",
    "GaussianNBModel",
    "GaussianNBParams",
    "KIND_DISPLAY_NAMES",
    "KNNModel",
    "KNNParams",
    "LinearParams",
    "LinearSVMModel",
    "LogisticRegressionModel",
    "MLPModel",
    "MLPParams",
    "Model",
    "ModelKind",
    "MultinomialNBModel",
    "MultinomialNBParams",
    "RandomForestModel",
    "RandomForestParams",
    "default_params",
    "model_document",
    "model_from_document",
    "params_class_for",
    "params_with_overrides",
    "train",
    "train_decision_tree",
    "train_gaussian_nb",
    "train_knn",
    "train_linear_svm",
    "train_logistic_regression",
    "train_mlp",
    "train_multinomial_nb",
    "train_random_forest",
]
