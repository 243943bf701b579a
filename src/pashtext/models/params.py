"""Per-family hyperparameter records with validation and CLI-friendly parsing."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import InvalidHyperparameterError
from .base import ModelKind

DEFAULT_SEED = 42

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


_PARAMS_BY_KIND = {
    ModelKind.GAUSSIAN_NB: GaussianNBParams,
    ModelKind.MULTINOMIAL_NB: MultinomialNBParams,
    ModelKind.KNN: KNNParams,
    ModelKind.DECISION_TREE: DecisionTreeParams,
    ModelKind.RANDOM_FOREST: RandomForestParams,
    ModelKind.LOGISTIC_REGRESSION: LinearParams,
    ModelKind.LINEAR_SVM: LinearParams,
    ModelKind.MLP: MLPParams,
}


def params_class_for(kind: ModelKind):
    return _PARAMS_BY_KIND[kind]


# The JSON types that may hold a value of each field annotation.
_JSON_TYPES = {
    "int": int, "int | None": (int, type(None)), "float": (int, float),
    "bool": bool, "str": str,
}


def params_from_dict(kind: ModelKind, values: dict):
    """The params record of `kind` saved as `values`.

    `values` must name every field, each with a value of the field's type;
    anything else is a TypeError, so no default fills in for a lost value.
    """
    fields = dataclasses.fields(_PARAMS_BY_KIND[kind])
    names = sorted(f.name for f in fields)
    if sorted(values) != names:
        raise TypeError(f"hyperparams must name exactly {names}")
    for f in fields:
        if not isinstance(values[f.name], _JSON_TYPES[f.type]):
            raise TypeError(f"hyperparameter {f.name} must be {f.type}")
    return _PARAMS_BY_KIND[kind](**values)


def default_params(kind: ModelKind, seed: int = DEFAULT_SEED):
    """Default hyperparameters for a kind, with the seed threaded in."""
    cls = _PARAMS_BY_KIND[kind]
    if "seed" in {f.name for f in dataclasses.fields(cls)}:
        return cls(seed=seed)
    return cls()


def _parse_value(raw: str, target_type, field_name: str):
    if target_type is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise InvalidHyperparameterError(f"{field_name}: expected a boolean, got {raw!r}")
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError:
        raise InvalidHyperparameterError(
            f"{field_name}: expected {target_type.__name__}, got {raw!r}"
        ) from None
    return raw


def params_with_overrides(kind: ModelKind, seed: int, overrides: dict[str, str]):
    """Build a params record from key=value string overrides (CLI surface)."""
    cls = _PARAMS_BY_KIND[kind]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    if "seed" in fields:
        kwargs["seed"] = seed
    for key, raw in overrides.items():
        if key not in fields:
            raise InvalidHyperparameterError(
                f"unknown hyperparameter {key!r} for {kind.value}; "
                f"valid names: {sorted(fields)}"
            )
        annotation = fields[key].type
        if key == "max_depth" and raw.lower() in ("none", "null"):
            kwargs[key] = None
            continue
        if annotation in ("int", "int | None"):
            kwargs[key] = _parse_value(raw, int, key)
        elif annotation == "float":
            kwargs[key] = _parse_value(raw, float, key)
        elif annotation == "bool":
            kwargs[key] = _parse_value(raw, bool, key)
        else:
            kwargs[key] = raw
    return cls(**kwargs)
