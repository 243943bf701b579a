"""Per-family hyperparameter records with validation and CLI-friendly parsing."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..errors import InvalidHyperparameterError
from ..prng import DEFAULT_SEED
from .base import KIND_CLASSES, ModelKind

EUCLIDEAN = "euclidean"
COSINE = "cosine"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidHyperparameterError(message)


@dataclass(frozen=True)
class GaussianNBParams:
    # Relative variance floor: this factor times the largest per-feature
    # variance of the training matrix is added to every class variance.
    variance_floor: float = 1e-9

    def __post_init__(self):
        _require(self.variance_floor > 0, "variance_floor must be > 0")


@dataclass(frozen=True)
class MultinomialNBParams:
    laplace_alpha: float = 1.0

    def __post_init__(self):
        _require(self.laplace_alpha > 0, "laplace_alpha must be > 0")


@dataclass(frozen=True)
class KNNParams:
    k: int = 5
    metric: str = EUCLIDEAN

    def __post_init__(self):
        _require(self.k >= 1, "k must be >= 1")
        _require(self.metric in (EUCLIDEAN, COSINE), f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class DecisionTreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2

    def __post_init__(self):
        _require(self.max_depth is None or self.max_depth >= 1, "max_depth must be >= 1")
        _require(self.min_samples_split >= 2, "min_samples_split must be >= 2")


@dataclass(frozen=True)
class RandomForestParams:
    n_trees: int = 100
    # Number of candidate features per split; 0 means floor(sqrt(V)).
    features_per_split: int = 0
    bootstrap: bool = True
    seed: int = DEFAULT_SEED
    max_depth: int | None = None
    min_samples_split: int = 2

    def __post_init__(self):
        _require(self.n_trees >= 1, "n_trees must be >= 1")
        _require(self.features_per_split >= 0, "features_per_split must be >= 0")
        _require(self.max_depth is None or self.max_depth >= 1, "max_depth must be >= 1")
        _require(self.min_samples_split >= 2, "min_samples_split must be >= 2")


@dataclass(frozen=True)
class LinearParams:
    """Shared by logistic regression and linear SVM (full-batch updates).

    Both start from zero weights, so training is deterministic and `seed`
    is accepted only for interface symmetry.
    """

    learning_rate: float = 0.1
    epochs: int = 200
    l2_strength: float = 1e-4
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _require(self.learning_rate > 0, "learning_rate must be > 0")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.l2_strength >= 0, "l2_strength must be >= 0")


@dataclass(frozen=True)
class MLPParams:
    hidden_units: int = 20
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    epochs: int = 200
    batch_size: int = 1
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _require(self.hidden_units >= 1, "hidden_units must be >= 1")
        _require(self.learning_rate > 0, "learning_rate must be > 0")
        _require(0 < self.adam_beta1 < 1, "adam_beta1 must be in (0, 1)")
        _require(0 < self.adam_beta2 < 1, "adam_beta2 must be in (0, 1)")
        _require(self.adam_epsilon > 0, "adam_epsilon must be > 0")
        _require(self.epochs >= 1, "epochs must be >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")


# Each converter takes a --param string or a saved JSON value to its field's
# one type; the load rule refuses a saved `true` for an int or `1` for a float.
def _bool(raw) -> bool:
    lowered = str(raw).lower()
    if lowered not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(raw)
    return lowered in ("true", "1", "yes")


def _int_or_none(raw) -> int | None:
    return None if str(raw).lower() in ("none", "null") else int(raw)


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# Per field annotation: the converter, and what a value it refuses was
# expected to be.  A float field takes only finite values, which JSON can hold.
_FIELD_TYPES = {
    "int": (int, "int"),
    "int | None": (_int_or_none, "int"),
    "float": (_finite, "float"),
    "bool": (_bool, "a boolean"),
    "str": (str, "str"),
}


def make_params(kind: ModelKind, values: dict, seed: int = DEFAULT_SEED):
    """The params record of `kind`: its defaults, `seed` where it has that
    field, then each of `values` (a --param string or a saved JSON value)
    converted to its field's type.  An unknown key or a value that does not
    convert is an InvalidHyperparameterError."""
    cls = KIND_CLASSES[kind].params_class
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {"seed": seed} if "seed" in fields else {}
    for key, raw in values.items():
        if key not in fields:
            raise InvalidHyperparameterError(
                f"unknown hyperparameter {key!r} for {kind.value}; "
                f"valid names: {sorted(fields)}"
            )
        parse, expected = _FIELD_TYPES[fields[key].type]
        try:
            kwargs[key] = parse(raw)
        except (TypeError, ValueError, OverflowError):
            raise InvalidHyperparameterError(
                f"{key}: expected {expected}, got {raw!r}"
            ) from None
    return cls(**kwargs)
