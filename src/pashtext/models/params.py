"""Per-family hyperparameter records with validation and CLI-friendly parsing."""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

from ..errors import InvalidHyperparameterError
from .base import KIND_CLASSES, ModelKind

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


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(raw)
    return lowered in ("true", "1", "yes")


def _parse_int_or_none(raw: str) -> int | None:
    return None if raw.lower() in ("none", "null") else int(raw)


def _is_finite(value) -> bool:
    # Compares a large int exactly, where math.isfinite would overflow.
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not _is_finite(value):
        raise ValueError(raw)
    return value


def _is(*types):
    return lambda value: isinstance(value, types)


# Per field annotation: the check a saved value must pass, the parser of a
# --param string, and what a string it refuses was expected to be.  A float
# field takes only finite values, which JSON can hold.
_FIELD_TYPES = {
    "int": (_is(int), int, "int"),
    "int | None": (_is(int, type(None)), _parse_int_or_none, "int"),
    "float": (_is_finite, _parse_finite, "float"),
    "bool": (_is(bool), _parse_bool, "a boolean"),
    "str": (_is(str), str, "str"),
}


def params_from_dict(kind: ModelKind, values: dict):
    """The params record of `kind` saved as `values`.

    `values` must name every field, each with a value of the field's type;
    anything else is a TypeError, so no default fills in for a lost value.
    """
    cls = KIND_CLASSES[kind].params_class
    fields = dataclasses.fields(cls)
    names = sorted(f.name for f in fields)
    if sorted(values) != names:
        raise TypeError(f"hyperparams must name exactly {names}")
    for f in fields:
        if not _FIELD_TYPES[f.type][0](values[f.name]):
            raise TypeError(f"hyperparameter {f.name} must be {f.type}")
    return cls(**values)


def default_params(kind: ModelKind, seed: int = DEFAULT_SEED):
    """Default hyperparameters for a kind, with the seed threaded in."""
    cls = KIND_CLASSES[kind].params_class
    if "seed" in {f.name for f in dataclasses.fields(cls)}:
        return cls(seed=seed)
    return cls()


def params_with_overrides(kind: ModelKind, seed: int, overrides: dict[str, str]):
    """Build a params record from key=value string overrides (CLI surface)."""
    cls = KIND_CLASSES[kind].params_class
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
        _, parse, expected = _FIELD_TYPES[fields[key].type]
        try:
            kwargs[key] = parse(raw)
        except ValueError:
            raise InvalidHyperparameterError(
                f"{key}: expected {expected}, got {raw!r}"
            ) from None
    return cls(**kwargs)
