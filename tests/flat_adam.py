"""The flat-gradient Adam update and training epoch that the touched-rows
update replaced, kept verbatim (the class renamed) as the reference it must
match bit for bit: weights, both moments and every epoch loss.

Each batch adds its gradient into one dense buffer in the model's flat
layout, and every Adam pass runs over every parameter.
"""

import math

import numpy as np

from pashtext.errors import TrainingDivergedError
from pashtext.models.mlp import MLPModel, _as_rows
from pashtext.models.params import MLPParams
from pashtext.prng import SplitMix64, derive_seed


class FlatAdamState:
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


def flat_mlp_epoch(
    model: MLPModel, samples: list[tuple], params: MLPParams, adam: FlatAdamState
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
