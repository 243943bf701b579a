"""Single-hidden-layer perceptron trained with Adam.

Architecture is input -> hidden (ReLU) -> softmax output.  Training walks
a fresh seed-derived shuffle of the rows each epoch and applies one Adam
update per mini-batch (default batch size 1).  Initial hidden and output
weights are He-style uniform draws from the model seed; biases start at
zero.  RNG streams: stream 0 of the seed initialises weights, stream 1+e
shuffles epoch e.

The four weight tensors are views into one contiguous float64 buffer,
`MLPModel.flat`, laid out w1, b1, w2, b2, and Adam's moments use the same
layout.  A feature row stores a few columns, and its w1 gradient is
nonzero only at their w1 rows, so it is kept as those rows alone
(`_row_step`); a larger batch adds its rows' gradients into one w1-shaped
buffer and takes the union of their rows from a bool mark array
(`_batch_step`).  The b1, w2 and b2 gradient is one buffer laid out as
`flat` after w1, the tail.  An Adam step decays both moments and moves the
weights in passes of in-place ufuncs over every parameter at once, but runs
the five passes that read the gradient only over the touched w1 rows and
the tail (`AdamState.updater`): an untouched gradient is +0.0, which would
leave each moment as it is.  Elementwise arithmetic does not depend on
memory layout, so this trains bit-for-bit the same weights as per-tensor
updates of a dense gradient would.

A training epoch binds Adam's constants and one set of row buffers once:
the hidden pre-activations and activations, the logits, the ReLU mask and
the tail, which takes a row's hidden gradient, outer product and output
gradient.  Every floating-point operation, its operands and its order are
those of a per-tensor step that allocates its results, but for one: a batch
of one row does not add its gradient into zeros, which would only turn a
-0.0 into +0.0, and Adam treats both alike (`AdamState.updater`).
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

    def updater(self, model: "MLPModel", tail: np.ndarray, params: MLPParams):
        """`update(touched, rows)`: one Adam update of `model.flat`, with the
        buffers, the constants and the ufuncs bound once for a loop.

        The gradient is `rows` at the strictly increasing w1 rows `touched`,
        +0.0 at every other w1 row, and the buffer `tail` for b1, w2 and b2,
        laid out as `model.flat` after w1.  Each call computes, in this
        order, m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        w -= (lr*(m/c1)) / (sqrt(v/c2) + eps), with the bias corrections
        c = 1 - beta**step; only arrays sized by `touched` are allocated.
        The decays and the passes from the moments to the weights run over
        every parameter, the five passes that read g only over the touched
        rows and the tail.  For g = ±0.0 those passes would leave a moment
        as it is unless it were -0.0, and neither is for beta1 > 0.5: a
        moment starts at +0.0, an exact cancellation rounds to +0.0, beta1
        times a negative subnormal stays negative, and v is never negative.
        (For beta1 <= 0.5 a first moment can decay to -0.0 where the dense
        update made it +0.0; the weights are the same bits either way.)
        A correction that is exactly 1.0 in float64 (from step 356 for beta
        0.9, from step 37,412 for beta 0.999) skips its divide: x / 1.0 == x
        in IEEE 754, so the weights are the same bits either way.
        """
        b1, b2 = params.adam_beta1, params.adam_beta2
        # Constant operands as 0-d arrays, which a ufunc takes faster than floats.
        decay1, decay2, one_minus_b1, one_minus_b2, rate, epsilon = map(np.array, (
            b1, b2, 1.0 - b1, 1.0 - b2, params.learning_rate, params.adam_epsilon
        ))
        m, v, flat = self.first, self.second, model.flat
        delta, denom = self._scratch
        split = model.w1.size
        m_w1, v_w1 = m[:split].reshape(model.w1.shape), v[:split].reshape(model.w1.shape)
        m_records, v_records = _as_rows(m_w1), _as_rows(v_w1)
        record = m_records.dtype
        m_tail, v_tail, delta_tail, denom_tail = m[split:], v[split:], delta[split:], denom[split:]
        multiply, add, divide, sqrt = np.multiply, np.add, np.divide, np.sqrt

        def update(touched, rows) -> None:
            self.step = step = self.step + 1
            multiply(m, decay1, m)
            multiply(v, decay2, v)
            moment = m_w1.take(touched, axis=0)  # m[touched] += (1-b1)*g
            add(moment, multiply(rows, one_minus_b1), moment)
            m_records.put(touched, moment.view(record))
            multiply(tail, one_minus_b1, delta_tail)
            add(m_tail, delta_tail, m_tail)
            moment = v_w1.take(touched, axis=0)  # v[touched] += ((1-b2)*g)*g
            square = multiply(rows, one_minus_b2)
            add(moment, multiply(square, rows, square), moment)
            v_records.put(touched, moment.view(record))
            multiply(tail, one_minus_b2, denom_tail)
            multiply(denom_tail, tail, denom_tail)
            add(v_tail, denom_tail, v_tail)
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


def _row_step(model: MLPModel, tail: np.ndarray):
    """`step(columns, values, label)`: one row's forward and backward pass.

    It writes the row's b1, w2 and b2 gradient into `tail`, laid out as
    `model.flat` after w1, and returns log p(label) and the row's w1
    gradient at its rows `columns`.  Its buffers, views and ufuncs are bound
    here once, so a row allocates only the arrays sized by its stored
    entries.
    """
    w1, b1, w2, b2 = model.w1, model.b1, model.w2, model.b2
    d_hidden = tail[: b1.size]
    outer = tail[b1.size : -b2.size].reshape(w2.shape)
    probs = tail[-b2.size :]
    hidden_pre, hidden, logits = np.empty_like(b1), np.empty_like(b1), np.empty_like(b2)
    relu_mask = np.empty(b1.shape, dtype=bool)
    hidden_column = hidden[:, None]
    zero = np.array(0.0)  # a 0-d operand, which a ufunc takes faster than 0.0
    matmul, add, multiply, maximum = np.matmul, np.add, np.multiply, np.maximum

    def log_prob(shift: float, label) -> float:
        """log softmax(logits)[label], computed as logits - shift; the
        softmax is left in `probs`."""
        np.subtract(logits, shift, probs)
        np.exp(probs, probs)
        np.divide(probs, add.reduce(probs), probs)
        return float(np.log(probs[label]))

    def step(columns, values, label) -> tuple[float, np.ndarray]:
        matmul(values, w1.take(columns, axis=0), hidden_pre)
        add(hidden_pre, b1, hidden_pre)
        maximum(hidden_pre, zero, out=hidden)  # relu
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
        np.greater(hidden_pre, zero, relu_mask)
        multiply(d_hidden, relu_mask, d_hidden)
        return log_p, values[:, None] * d_hidden  # np.outer(values, d_hidden)

    return step


def _batch_step(model: MLPModel, tail: np.ndarray, size: int):
    """`batch_step(batch)`: the mean loss of a batch of at most `size`
    `row_samples`, the w1 rows it touched, strictly increasing, and their
    mean gradient; the mean b1, w2 and b2 gradient is left in `tail`.

    At batch size 1 a batch is its row step.  Otherwise each row's w1
    gradient is added into one zeroed w1-shaped buffer, its rows are marked
    in a bool array, and its b1, w2 and b2 gradient is added into a second
    tail; so each value gets its adds in row order, as into a dense zeroed
    gradient, and then its one divide (by 1.0 for a last batch of one row,
    which is exact).  Both buffers are zeroed again for the next batch.
    """
    step = _row_step(model, tail)
    if size == 1:

        def one_row_step(batch) -> tuple[float, np.ndarray, np.ndarray]:
            (columns, values, label), = batch
            log_p, rows = step(columns, values, label)
            return -log_p, columns, rows

        return one_row_step
    sums, tail_sum = np.zeros_like(model.w1), np.zeros_like(tail)
    marks = np.zeros(model.feature_dimension, dtype=bool)
    sum_records = _as_rows(sums)
    record, zero_record = sum_records.dtype, np.zeros(1, sum_records.dtype)

    def batch_step(batch) -> tuple[float, np.ndarray, np.ndarray]:
        loss = 0.0
        for columns, values, label in batch:
            log_p, rows = step(columns, values, label)
            loss -= log_p
            np.add(tail_sum, tail, tail_sum)
            total = sums.take(columns, axis=0)  # sums[columns] +=, gathered faster
            total += rows
            sum_records.put(columns, total.view(record))
            marks.put(columns, True)
        touched = np.flatnonzero(marks)
        marks.fill(False)
        rows = sums.take(touched, axis=0)
        sum_records.put(touched, zero_record)
        count = np.array(float(len(batch)))  # 0-d, which a ufunc takes faster than an int
        np.divide(rows, count, rows)
        np.divide(tail_sum, count, tail)
        tail_sum.fill(0.0)
        return loss / len(batch), touched, rows

    return batch_step


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
    tail = np.empty(model.flat.size - model.w1.size)  # b1, w2 and b2
    batch_step = _batch_step(model, tail, size)
    update = adam.updater(model, tail, params)
    epoch_loss = 0.0
    for start in range(0, n, size):
        batch = shuffled[start : start + size]
        loss, touched, rows = batch_step(batch)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        epoch_loss += loss * len(batch)
        update(touched, rows)
    return epoch_loss / n
