"""Versioned JSON container for trained models.

A model document holds the kind tag, hyperparameters, label count, feature
dimension and the per-kind payload; saved bundles embed one.  Loading
rebuilds a model whose predictions are identical to the original's.
"""

from __future__ import annotations

import dataclasses

from ..errors import DataError, expect_format, loads_as_written, malformed
from .base import KIND_CLASSES, Model, ModelKind
from .params import make_params

FORMAT_NAME = "pashtext-model"
FORMAT_VERSION = 1

# Kinds whose payload is written back as the very object loaded, which the
# load rule passes over: `Nodes.from_payload` checks each node it walks.
_NODE_KINDS = (ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST)


def model_document(model: Model) -> dict:
    """JSON-ready container for a trained model."""
    return _document(model, model.payload())


def _document(model: Model, payload) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.kind.value,
        "label_count": model.label_count,
        "feature_dimension": model.feature_dimension,
        "hyperparams": dataclasses.asdict(model.params),
        "payload": payload,
    }


def model_from_document(document: dict) -> Model:
    """The model saved as `document`, which must load as written."""
    expect_format(document, FORMAT_NAME, FORMAT_VERSION)
    if document.get("kind") not in tuple(ModelKind):  # compares, never hashes
        raise DataError(f"unknown model kind {document.get('kind')!r}")
    kind = ModelKind(document["kind"])
    with malformed(f"{kind.value} model document"):
        params = make_params(kind, dict(document["hyperparams"]))
        sizes = int(document["label_count"]), int(document["feature_dimension"])
        model = KIND_CLASSES[kind].from_payload(document["payload"], params, *sizes)
    payload = document["payload"] if kind in _NODE_KINDS else model.payload()
    loads_as_written(_document(model, payload), document, f"{kind.value} model document")
    return model
