"""Single-hidden-layer perceptron trained with Adam.

Architecture is input -> hidden (ReLU) -> softmax output.  Training walks
a fresh seed-derived shuffle of the rows each epoch and applies one Adam
update per mini-batch (default batch size 1).  Initial hidden and output
weights are He-style uniform draws from the model seed; biases start at
zero.  RNG streams: stream 0 of the seed initialises weights, stream 1+e
shuffles epoch e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDivergedError
from ..prng import SplitMix64, derive_seed
from ..vectorize import FeatureMatrix
from .base import Model, ModelKind, softmax
from .params import MLPParams

_PARAM_NAMES = ("w1", "b1", "w2", "b2")


def relu(a):
    """max(0, a), elementwise on arrays.

    The backprop subgradient is 0 for a <= 0 and 1 for a > 0.
    """
    return np.maximum(a, 0.0)


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_model(cls, model: "MLPModel") -> "AdamState":
        shapes = {name: getattr(model, name).shape for name in _PARAM_NAMES}
        return cls(
            first={name: np.zeros(shape) for name, shape in shapes.items()},
            second={name: np.zeros(shape) for name, shape in shapes.items()},
        )

    def apply(self, model: "MLPModel", grads: dict[str, np.ndarray],
              params: MLPParams) -> None:
        """One Adam update: m, v accumulation, bias correction, step."""
        self.step += 1
        b1, b2 = params.adam_beta1, params.adam_beta2
        correction1 = 1.0 - b1**self.step
        correction2 = 1.0 - b2**self.step
        for name in _PARAM_NAMES:
            g = grads[name]
            m = self.first[name]
            v = self.second[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            getattr(model, name)[...] -= (
                params.learning_rate * m_hat / (np.sqrt(v_hat) + params.adam_epsilon)
            )


class MLPModel(Model):
    """Weights w1 (V x H), b1 (H), w2 (H x K), b2 (K)."""

    kind = ModelKind.MLP

    def __init__(self, w1, b1, w2, b2, params: MLPParams):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.params = params
        self.feature_dimension = self.w1.shape[0]
        self.label_count = self.w2.shape[1]

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        hidden = relu(matrix.dot(self.w1) + self.b1)
        return softmax(hidden @ self.w2 + self.b2)

    def payload(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _PARAM_NAMES}

    @classmethod
    def from_payload(cls, payload: dict, params: MLPParams) -> "MLPModel":
        return cls(payload["w1"], payload["b1"], payload["w2"], payload["b2"], params)


def _he_uniform(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / rows)
    draws = np.array(
        [rng.next_float() for _ in range(rows * cols)], dtype=np.float64
    )
    return (2.0 * draws - 1.0).reshape(rows, cols) * limit


def init_mlp(dim: int, label_count: int, params: MLPParams) -> MLPModel:
    rng = SplitMix64(derive_seed(params.seed, 0))
    w1 = _he_uniform(rng, dim, params.hidden_units)
    w2 = _he_uniform(rng, params.hidden_units, label_count)
    return MLPModel(
        w1, np.zeros(params.hidden_units), w2, np.zeros(label_count), params
    )


def mlp_loss_and_grads(model: MLPModel, matrix: FeatureMatrix, rows, labels):
    """Mean cross-entropy and mean gradients over a batch of matrix rows.

    `rows` are row indices into `matrix` and `labels` their classes; each
    row's forward and backward pass touches only its stored entries.
    """
    batch = len(rows)
    grads = {name: np.zeros_like(getattr(model, name)) for name in _PARAM_NAMES}
    loss = 0.0
    for row, label in zip(rows, labels):
        columns, values = matrix.row(row)
        hidden_pre = values @ model.w1[columns] + model.b1
        hidden = relu(hidden_pre)
        probs = softmax(hidden @ model.w2 + model.b2)
        loss -= float(np.log(probs[label]))
        d_logits = probs.copy()
        d_logits[label] -= 1.0
        grads["w2"] += np.outer(hidden, d_logits)
        grads["b2"] += d_logits
        d_hidden = (model.w2 @ d_logits) * (hidden_pre > 0)
        grads["w1"][columns] += np.outer(values, d_hidden)
        grads["b1"] += d_hidden
    for name in _PARAM_NAMES:
        grads[name] /= batch
    return loss / batch, grads


def mlp_loss(model: MLPModel, matrix: FeatureMatrix, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy of the model over the matrix rows."""
    probs = model.predict_scores(matrix)
    return float(-np.log(probs[np.arange(matrix.n_rows), labels]).mean())


def mlp_epoch(
    model: MLPModel,
    matrix: FeatureMatrix,
    labels: np.ndarray,
    params: MLPParams,
    adam: AdamState,
) -> tuple[MLPModel, float]:
    """One pass over a shuffled epoch; returns the model and mean batch loss.

    The epoch index is recovered from adam.step, so repeated calls walk
    through distinct shuffles without extra bookkeeping.  Weights are
    updated in place; the returned model is the same object.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = matrix.n_rows
    steps_per_epoch = -(-n // params.batch_size)
    epoch = adam.step // steps_per_epoch
    order = list(range(n))
    SplitMix64(derive_seed(params.seed, 1 + epoch)).shuffle(order)
    epoch_loss = 0.0
    for start in range(0, n, params.batch_size):
        chosen = order[start : start + params.batch_size]
        loss, grads = mlp_loss_and_grads(model, matrix, chosen, labels[chosen])
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        epoch_loss += loss * len(chosen)
        adam.apply(model, grads, params)
    return model, epoch_loss / n


def train_mlp(matrix: FeatureMatrix, params: MLPParams, label_count: int) -> MLPModel:
    model = init_mlp(matrix.dim, label_count, params)
    adam = AdamState.for_model(model)
    for _ in range(params.epochs):
        model, _loss = mlp_epoch(model, matrix, matrix.row_labels, params, adam)
    return model
