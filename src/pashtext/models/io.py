"""Versioned JSON container for trained models.

A saved file holds the kind tag, hyperparameters, label count, feature
dimension and the per-kind payload.  Loading rebuilds a model whose
predictions are identical to the original's.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from ..errors import DataError
from .base import Model, ModelKind
from .knn import KNNModel
from .linear import LinearSVMModel, LogisticRegressionModel
from .mlp import MLPModel
from .naive_bayes import GaussianNBModel, MultinomialNBModel
from .params import params_class_for
from .tree import DecisionTreeModel, RandomForestModel

FORMAT_NAME = "pashtext-model"
FORMAT_VERSION = 1

_MODEL_CLASSES = {
    ModelKind.GAUSSIAN_NB: GaussianNBModel,
    ModelKind.MULTINOMIAL_NB: MultinomialNBModel,
    ModelKind.KNN: KNNModel,
    ModelKind.DECISION_TREE: DecisionTreeModel,
    ModelKind.RANDOM_FOREST: RandomForestModel,
    ModelKind.LOGISTIC_REGRESSION: LogisticRegressionModel,
    ModelKind.LINEAR_SVM: LinearSVMModel,
    ModelKind.MLP: MLPModel,
}

_NEEDS_DIMENSIONS = (ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST)


def model_document(model: Model) -> dict:
    """JSON-ready container for a trained model (the save_model file body)."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": model.kind.value,
        "label_count": model.label_count,
        "feature_dimension": model.feature_dimension,
        "hyperparams": dataclasses.asdict(model.params),
        "payload": model.payload(),
    }


def save_model(model: Model, path) -> None:
    Path(path).write_text(
        json.dumps(model_document(model), separators=(",", ":")), encoding="utf-8"
    )


def model_from_document(document: dict) -> Model:
    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise DataError(f"not a {FORMAT_NAME} document")
    if document.get("version") != FORMAT_VERSION:
        raise DataError(f"unsupported model format version {document.get('version')!r}")
    try:
        kind = ModelKind(document["kind"])
    except (KeyError, ValueError):
        raise DataError(f"unknown model kind {document.get('kind')!r}") from None
    try:
        params = params_class_for(kind)(**document["hyperparams"])
        model_class = _MODEL_CLASSES[kind]
        if kind in _NEEDS_DIMENSIONS:
            model = model_class.from_payload(
                document["payload"], params,
                document["label_count"], document["feature_dimension"],
            )
        else:
            model = model_class.from_payload(document["payload"], params)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DataError(
            f"malformed {kind.value} model document: {type(exc).__name__}: {exc}"
        ) from None
    if model.label_count != document.get("label_count"):
        raise DataError("model payload does not match its declared label count")
    if model.feature_dimension != document.get("feature_dimension"):
        raise DataError("model payload does not match its declared dimension")
    return model


def load_model(path) -> Model:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    return model_from_document(document)
