"""Versioned JSON container for trained models.

A model document holds the kind tag, hyperparameters, label count, feature
dimension and the per-kind payload; saved bundles embed one.  Loading
rebuilds a model whose predictions are identical to the original's.
"""

from __future__ import annotations

import dataclasses

from ..errors import (
    DataError,
    InvalidHyperparameterError,
    TrainingError,
    expect_format,
    malformed,
)
from .base import KIND_CLASSES, Model, ModelKind
from .params import params_from_dict

FORMAT_NAME = "pashtext-model"
FORMAT_VERSION = 1


def model_document(model: Model) -> dict:
    """JSON-ready container for a trained model."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.kind.value,
        "label_count": model.label_count,
        "feature_dimension": model.feature_dimension,
        "hyperparams": dataclasses.asdict(model.params),
        "payload": model.payload(),
    }


def model_from_document(document: dict) -> Model:
    expect_format(document, FORMAT_NAME, FORMAT_VERSION)
    if document.get("kind") not in tuple(ModelKind):  # compares, never hashes
        raise DataError(f"unknown model kind {document.get('kind')!r}")
    kind = ModelKind(document["kind"])
    try:
        with malformed(f"{kind.value} model document"):
            params = params_from_dict(kind, document["hyperparams"])
            sizes = document["label_count"], document["feature_dimension"]
            if any(type(size) is not int for size in sizes):  # not true, not 3.0
                raise DataError(f"{kind.value} model document label_count and "
                                "feature_dimension must be integers")
            model = KIND_CLASSES[kind].from_payload(document["payload"], params, *sizes)
    except InvalidHyperparameterError as exc:
        raise DataError(
            f"{kind.value} model document has an out-of-range hyperparameter: {exc}"
        ) from None
    except TrainingError as exc:
        raise DataError(
            f"malformed {kind.value} model document: {type(exc).__name__}: {exc}"
        ) from None
    if model.label_count != document["label_count"]:
        raise DataError("model payload does not match its declared label count")
    if model.feature_dimension != document["feature_dimension"]:
        raise DataError("model payload does not match its declared dimension")
    return model
