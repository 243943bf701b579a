"""Single-hidden-layer perceptron trained with Adam.

Architecture is input -> hidden (ReLU) -> softmax output.  Training walks
a fresh seed-derived shuffle of the rows each epoch and applies one Adam
update per mini-batch (default batch size 1).  Initial hidden and output
weights are He-style uniform draws from the model seed; biases start at
zero.  RNG streams: stream 0 of the seed initialises weights, stream 1+e
shuffles epoch e.

The four weight tensors are views into one contiguous float64 buffer,
`MLPModel.flat`, laid out w1, b1, w2, b2.  Gradients and Adam's moments use
the same layout, so an Adam step is one pass of in-place ufuncs over every
parameter at once.  Elementwise arithmetic does not depend on memory layout,
so this trains bit-for-bit the same weights as per-tensor updates would.

Adam skips its divide by a bias correction 1 - beta**step once that
correction rounds to exactly 1.0 in float64, since x / 1.0 == x in IEEE 754
(`AdamState.updater`).  A training epoch binds Adam's constants and one set
of row buffers once (`AdamState.updater`, `_row_step`): the hidden
pre-activations and activations, the logits, the ReLU mask, and one buffer
laid out as the gradient after w1, which takes a row's hidden gradient,
outer product and output gradient.  Each row's forward and backward pass
writes into them, and one add puts the b1, w2 and b2 gradients into the
flat gradient.  Every floating-point operation, its operands and its order
are those of a per-tensor step that allocates its results, so neither
changes a bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TrainingDivergedError
from ..prng import SplitMix64, derive_seed
from ..vectorize import FeatureMatrix
from .base import Model, ModelKind, checked_array, softmax
from .params import MLPParams


class AdamState:
    """Flat first/second moments, the shared step counter and two scratch
    buffers, all in the model's flat layout."""

    def __init__(self, size: int):
        self.first = np.zeros(size)
        self.second = np.zeros(size)
        self.step = 0
        self._scratch = (np.empty(size), np.empty(size))

    def updater(self, model: "MLPModel", grad: np.ndarray, params: MLPParams):
        """One Adam update of `model.flat` from the flat gradient `grad`, as a
        function of no arguments, with the buffers, the constants and the
        ufuncs bound once for a loop.

        Each call computes, in this order, m = b1*m + (1-b1)*g,
        v = b2*v + ((1-b2)*g)*g and w -= (lr*(m/c1)) / (sqrt(v/c2) + eps),
        with the bias corrections c = 1 - beta**step; no temporary is
        allocated.  A correction that is exactly 1.0 in float64 (from step
        356 for beta 0.9, from step 37,412 for beta 0.999) skips its divide:
        x / 1.0 == x in IEEE 754, so the weights are the same bits either way.
        """
        b1, b2 = params.adam_beta1, params.adam_beta2
        one_minus_b1, one_minus_b2 = 1.0 - b1, 1.0 - b2
        rate, epsilon = params.learning_rate, params.adam_epsilon
        m, v, flat = self.first, self.second, model.flat
        delta, denom = self._scratch
        multiply, add, divide, sqrt = np.multiply, np.add, np.divide, np.sqrt

        def update() -> None:
            self.step = step = self.step + 1
            multiply(m, b1, m)
            multiply(grad, one_minus_b1, delta)
            add(m, delta, m)
            multiply(v, b2, v)
            multiply(grad, one_minus_b2, denom)
            multiply(denom, grad, denom)
            add(v, denom, v)
            correction1 = 1.0 - b1**step
            if correction1 == 1.0:
                multiply(m, rate, delta)
            else:
                divide(m, correction1, delta)
                multiply(delta, rate, delta)
            correction2 = 1.0 - b2**step
            if correction2 == 1.0:
                sqrt(v, denom)
            else:
                divide(v, correction2, denom)
                sqrt(denom, denom)
            add(denom, epsilon, denom)
            divide(delta, denom, delta)
            np.subtract(flat, delta, flat)

        return update


class MLPModel(Model):
    """Weights w1 (V x H), b1 (H), w2 (H x K), b2 (K), as views of `flat`."""

    kind = ModelKind.MLP
    params_class = MLPParams
    display_name = "Multilayer Perceptron"
    payload_arrays = ("w1", "b1", "w2", "b2")

    def __init__(self, w1, b1, w2, b2, params: MLPParams):
        hidden = params.hidden_units
        w1 = checked_array(self.kind, "w1", w1, (None, hidden))
        w2 = checked_array(self.kind, "w2", w2, (hidden, None))
        self.feature_dimension, self.label_count = w1.shape[0], w2.shape[1]
        b1 = checked_array(self.kind, "b1", b1, (hidden,))
        b2 = checked_array(self.kind, "b2", b2, (self.label_count,))
        tensors = [w1, b1, w2, b2]
        ends = np.cumsum([t.size for t in tensors]).tolist()
        self._layout = list(zip([0] + ends, ends, [t.shape for t in tensors]))
        self.flat = np.concatenate([t.ravel() for t in tensors])
        self.w1, self.b1, self.w2, self.b2 = self.split(self.flat)
        self.params = params

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: MLPParams, label_count: int) -> "MLPModel":
        model = init_mlp(matrix.dim, label_count, params)
        adam = AdamState(model.flat.size)
        samples = row_samples(matrix, range(matrix.n_rows), matrix.row_labels)
        for _ in range(params.epochs):
            mlp_epoch(model, samples, params, adam)
        return model

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """w1, b1, w2, b2 views of a flat buffer in this model's layout."""
        return [flat[start:end].reshape(shape) for start, end, shape in self._layout]

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        hidden = np.maximum(matrix.dot(self.w1) + self.b1, 0.0)  # relu
        return softmax(hidden @ self.w2 + self.b2)


def _he_uniform(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / rows)
    draws = (rng.next_uint64_block(rows * cols) >> 11) * 2.0**-53  # next_float
    return (2.0 * draws - 1.0).reshape(rows, cols) * limit


def init_mlp(dim: int, label_count: int, params: MLPParams) -> MLPModel:
    rng = SplitMix64(derive_seed(params.seed, 0))
    w1 = _he_uniform(rng, dim, params.hidden_units)
    w2 = _he_uniform(rng, params.hidden_units, label_count)
    return MLPModel(
        w1, np.zeros(params.hidden_units), w2, np.zeros(label_count), params
    )


def row_samples(matrix: FeatureMatrix, rows, labels) -> list[tuple]:
    """(columns, values, label) of each of `rows`, taken once for reuse."""
    return [(*matrix.row(row), int(label)) for row, label in zip(rows, labels)]


def _as_rows(array: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as a 1-D view of whole rows, one raw record
    each: `put` on it writes rows in a fraction of the time that fancy
    indexing of the 2-D array takes, and copies their bytes unchanged."""
    return array.view(np.dtype((np.void, array.shape[1] * array.itemsize))).ravel()


def _row_step(model: MLPModel, grad: np.ndarray, parts):
    """`step(columns, values, label)`: one row's forward and backward pass.

    It adds the row's gradient into the flat buffer `grad`, whose
    `model.split` views are `parts`, and returns log p(label).  Its buffers,
    views and ufuncs are bound here once, so a row allocates only the arrays
    sized by its stored entries.  The row's b1, w2 and b2 gradients are
    written into one buffer laid out as `grad` after w1, which one add puts
    into `grad`: each value still gets its one add.
    """
    w1, b1, w2, b2 = model.w1, model.b1, model.w2, model.b2
    g_w1, g_tail = parts[0], grad[w1.size :]
    g_w1_rows = _as_rows(g_w1)
    row_record = g_w1_rows.dtype
    row_tail = np.empty_like(g_tail)
    d_hidden = row_tail[: b1.size]
    outer = row_tail[b1.size : -b2.size].reshape(w2.shape)
    probs = row_tail[-b2.size :]
    hidden_pre, hidden, logits = np.empty_like(b1), np.empty_like(b1), np.empty_like(b2)
    relu_mask = np.empty(b1.shape, dtype=bool)
    hidden_column = hidden[:, None]
    matmul, add, multiply, maximum = np.matmul, np.add, np.multiply, np.maximum

    def log_prob(shift: float, label) -> float:
        """log softmax(logits)[label], computed as logits - shift; the
        softmax is left in `probs`."""
        np.subtract(logits, shift, probs)
        np.exp(probs, probs)
        np.divide(probs, add.reduce(probs), probs)
        return float(np.log(probs[label]))

    def step(columns, values, label) -> float:
        matmul(values, w1.take(columns, axis=0), hidden_pre)
        add(hidden_pre, b1, hidden_pre)
        maximum(hidden_pre, 0.0, out=hidden)  # relu
        matmul(hidden, w2, logits)
        add(logits, b2, logits)
        # Softmax shifted by the largest logit.  max() of the list is faster
        # than np.max and gives the same shift unless a logit is NaN; then
        # every probability is NaN, and the row is redone with np.max's
        # shift, whose NaN decides the sign bits of the NaNs.
        log_p = log_prob(max(logits.tolist()), label)
        if log_p != log_p:
            log_p = log_prob(maximum.reduce(logits), label)
        probs[label] -= 1.0  # probs now holds d(loss)/d(logits)
        multiply(hidden_column, probs, outer)  # np.outer(hidden, probs)
        matmul(w2, probs, d_hidden)
        np.greater(hidden_pre, 0.0, relu_mask)
        multiply(d_hidden, relu_mask, d_hidden)
        add(g_tail, row_tail, g_tail)
        touched = g_w1.take(columns, axis=0)  # g_w1[columns] +=, gathered faster
        touched += values[:, None] * d_hidden
        g_w1_rows.put(columns, touched.view(row_record))
        return log_p

    return step


def _batch_loss(step, grad: np.ndarray, batch) -> float:
    """Mean loss of `batch` through `step`, whose gradient sum in `grad`
    becomes the mean."""
    loss = 0.0
    for columns, values, label in batch:
        loss -= step(columns, values, label)
    if len(batch) > 1:  # x / 1 == x exactly, so a batch of one skips the pass
        grad /= len(batch)
    return loss / len(batch)


def mlp_epoch(
    model: MLPModel, samples: list[tuple], params: MLPParams, adam: AdamState
) -> float:
    """One pass over a shuffled epoch of all training `row_samples`, updating
    the model in place; returns the mean batch loss.  The epoch index is
    recovered from adam.step, so repeated calls walk distinct shuffles.
    """
    n, size = len(samples), params.batch_size
    epoch = adam.step // -(-n // size)
    order = list(range(n))
    SplitMix64(derive_seed(params.seed, 1 + epoch)).shuffle(order)
    shuffled = [samples[i] for i in order]
    grad = np.zeros_like(model.flat)
    parts = model.split(grad)
    step = _row_step(model, grad, parts)
    update = adam.updater(model, grad, params)
    g_w1_rows, tail = _as_rows(parts[0]), grad[model.w1.size :]  # tail: b1, w2 and b2
    zero_row = np.zeros(1, g_w1_rows.dtype)
    epoch_loss = 0.0
    for start in range(0, n, size):
        batch = shuffled[start : start + size]
        loss = _batch_loss(step, grad, batch)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        epoch_loss += loss * len(batch)
        update()
        for columns, _, _ in batch:  # zero what the batch wrote
            g_w1_rows.put(columns, zero_row)
        tail.fill(0.0)
    return epoch_loss / n
