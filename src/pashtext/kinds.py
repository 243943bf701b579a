"""The classifier kinds, named without importing any model code.

The command-line parser lists them, so this module stays free of the model
families: a command that trains no model loads none of them.
"""

from enum import Enum


class ModelKind(str, Enum):
    """The eight supported classifier families, in canonical order.

    The enumeration order is the canonical report and tie-break order for
    everything that iterates over kinds.
    """

    GAUSSIAN_NB = "gaussian_nb"
    MULTINOMIAL_NB = "multinomial_nb"
    KNN = "knn"
    DECISION_TREE = "decision_tree"
    RANDOM_FOREST = "random_forest"
    LOGISTIC_REGRESSION = "logistic_regression"
    LINEAR_SVM = "linear_svm"
    MLP = "mlp"
