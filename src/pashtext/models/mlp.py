"""Single-hidden-layer perceptron trained with Adam.

Architecture is input -> hidden (ReLU) -> softmax output.  Training walks
a fresh seed-derived shuffle of the rows each epoch and applies one Adam
update per mini-batch (default batch size 1).  Initial hidden and output
weights are He-style uniform draws from the model seed; biases start at
zero.  RNG streams: stream 0 of the seed initialises weights, stream 1+e
shuffles epoch e.

The four weight tensors are views into one contiguous float64 buffer,
`MLPModel.flat`, laid out w1, b1, w2, b2.  Adam keeps both moments in one
block of H-wide rows, per moment w1's V rows and then the T rows of the
b1/w2/b2 tail, padded with +0.0 (`AdamState`).  A feature row's w1 gradient
is nonzero only at its stored columns' rows, so a row step writes the tail's
rows and those alone into one gradient block (`_row_step`), and a fit
appends each row's index of them into Adam's block to its sample once
(`AdamState.rows_of`); a larger batch adds its rows' blocks into one sums
block (`_batch_step`).  An Adam step decays both moments and moves the
weights in passes of in-place ufuncs over every parameter, but reads the
gradient through one gather and one scatter of the rows it holds
(`AdamState.updater`): an untouched gradient is +0.0, which would leave each
moment as it is.  Elementwise arithmetic does not depend on memory layout,
so this trains bit-for-bit the same weights as per-tensor updates of a dense
gradient would.

An epoch binds Adam's constants and the row step's buffers once.  Every
floating-point operation, its operands and its order are those of a
per-tensor step that allocates its results, but for one: a batch of one row
does not add its gradient into zeros, which would only turn a -0.0 into
+0.0, and Adam treats both alike (`AdamState.updater`).
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
    """Adam's step counter, two scratch buffers in the model's flat layout,
    and both moments as one zeroed (2, V+T, H) float64 `block`.  A moment
    holds w1's V rows, then `tail_rows` T rows that hold b1, w2 and b2 in the
    flat layout, the last padded with +0.0; `first` and `second` are the
    moments' flat views without the pad."""

    def __init__(self, model: "MLPModel"):
        size, width, features = model.flat.size, model.b1.size, model.feature_dimension
        self.tail_rows = -(-(size - model.w1.size) // width)
        rows = features + self.tail_rows
        self.block = np.zeros((2, rows, width))
        self.first, self.second = (moment.reshape(-1)[:size] for moment in self.block)
        self.step, self._scratch = 0, (np.empty(size), np.empty(size))
        self._tail, self.offsets = np.arange(features, rows), np.array([[0], [rows]])

    def rows_of(self, columns: np.ndarray) -> np.ndarray:
        """A sample's (2, T + len(columns)) index into the block's
        (2(V+T), H) record view: the tail rows, then the rows `columns`, of
        the first moment and then of the second."""
        return self.offsets + np.concatenate((self._tail, columns))

    def updater(self, model: "MLPModel", params: MLPParams):
        """`update(index, rows)`: one Adam update of `model.flat`, with the
        buffers, the constants and the ufuncs bound once for a loop.

        The gradient is `rows` at the block rows `index[0]` (no row twice),
        +0.0 elsewhere.  Each call computes, in this order,
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        w -= (lr*(m/c1)) / (sqrt(v/c2) + eps), with the bias corrections
        c = 1 - beta**step; only arrays sized by `index` are allocated.  The
        decays and the passes to the weights run over every parameter, the
        passes that read g on one gather of both moments' rows at `index`.
        For g = ±0.0 they would leave a moment as it is unless it were -0.0,
        and neither is for beta1 > 0.5: a moment starts at +0.0, an exact
        cancellation rounds to +0.0, beta1 times a negative subnormal stays
        negative, and v is never negative.  (For beta1 <= 0.5 a first moment
        can decay to -0.0 where the dense update made it +0.0; the weights
        are the same bits either way.)  The pad's gradient is +0.0, so the
        pad stays +0.0.  A correction that is exactly 1.0 in float64 (from
        step 356 for beta 0.9, from step 37,412 for beta 0.999) skips its
        divide: x / 1.0 == x in IEEE 754, so the weights are the same bits.
        """
        b1, b2 = params.adam_beta1, params.adam_beta2
        # Constant operands as arrays, which a ufunc takes faster than floats.
        constants = (b1, b2, params.learning_rate, params.adam_epsilon)
        decay1, decay2, rate, epsilon = map(np.array, constants)
        scales = np.array([1.0 - b1, 1.0 - b2]).reshape(2, 1, 1)  # per moment
        m, v, flat = self.first, self.second, model.flat
        delta, denom = self._scratch
        moments = self.block.reshape(-1, self.block.shape[2])  # 2(V+T) rows
        records = _as_rows(moments)
        multiply, add, divide, sqrt = np.multiply, np.add, np.divide, np.sqrt

        def update(index, rows) -> None:
            self.step = step = self.step + 1
            multiply(m, decay1, m)
            multiply(v, decay2, v)
            moment = moments.take(index, axis=0)  # both moments' rows
            scaled = multiply(rows, scales)  # (1-b1)*g, then (1-b2)*g
            square = scaled[1]
            multiply(square, rows, square)
            add(moment, scaled, moment)
            records.put(index, moment.view(records.dtype))
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
        adam = AdamState(model)
        samples = row_samples(matrix, range(matrix.n_rows), matrix.row_labels)
        samples = [(*sample, adam.rows_of(sample[0])) for sample in samples]
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


def _row_step(model: MLPModel, adam: AdamState, samples: list[tuple]):
    """`step(columns, values, label)`: one row's forward and backward pass.
    It writes the row's b1/w2/b2 gradient into the first T rows of one
    gradient block, laid out as in `adam`, and its w1 gradient rows after
    them, and returns log p(label) and those rows, which the row's
    `AdamState.rows_of(columns)` indexes.  The block holds the longest index
    of `samples`; it, the views and the ufuncs are bound once, so a row
    allocates only arrays sized by its stored entries.
    """
    w1, b1, w2, b2 = model.w1, model.b1, model.w2, model.b2
    size, tail_rows = model.flat.size - w1.size, adam.tail_rows
    gradient = np.zeros((max(sample[3].shape[1] for sample in samples), b1.size))
    tail, w1_rows = gradient[:tail_rows].reshape(-1)[:size], gradient[tail_rows:]
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
        count = len(columns)
        multiply(values[:, None], d_hidden, w1_rows[:count])  # np.outer(values, d_hidden)
        return log_p, gradient[: tail_rows + count]

    return step


def _batch_step(step, adam: AdamState):
    """`batch_step(batch)`: the mean loss of a batch of samples (as
    `mlp_epoch` takes them), and the index and mean gradient of the block
    rows it touched.  Each row's gradient is added into a zeroed sums block
    at its index, whose rows (the tail's among them) it marks in a bool
    array: each value gets its adds in row order, as into a dense zeroed
    gradient, then one divide (exact by 1.0 for a last batch of one row).
    """
    sums = np.zeros(adam.block.shape[1:])
    marks = np.zeros(len(sums), dtype=bool)
    sum_records = _as_rows(sums)
    record, zero_record = sum_records.dtype, np.zeros(1, sum_records.dtype)

    def batch_step(batch) -> tuple[float, np.ndarray, np.ndarray]:
        loss = 0.0
        for columns, values, label, index in batch:
            log_p, rows = step(columns, values, label)
            loss -= log_p
            at = index[0]
            total = sums.take(at, axis=0)  # sums[at] +=, gathered faster
            total += rows
            sum_records.put(at, total.view(record))
            marks.put(at, True)
        touched = np.flatnonzero(marks)
        marks.fill(False)
        rows = sums.take(touched, axis=0)
        sum_records.put(touched, zero_record)
        count = np.array(float(len(batch)))  # 0-d, which a ufunc takes faster than an int
        np.divide(rows, count, rows)
        return loss / len(batch), adam.offsets + touched, rows

    return batch_step


def mlp_epoch(model: MLPModel, samples: list[tuple], params: MLPParams,
              adam: AdamState) -> float:
    """One pass over a shuffled epoch of all training `row_samples`, each
    with its `adam.rows_of(columns)` appended, updating the model in place;
    returns the mean batch loss.  The epoch index is recovered from
    adam.step, so repeated calls walk distinct shuffles.
    """
    n, size = len(samples), params.batch_size
    epoch = adam.step // -(-n // size)
    order = list(range(n))
    SplitMix64(derive_seed(params.seed, 1 + epoch)).shuffle(order)
    shuffled = [samples[i] for i in order]
    step, update = _row_step(model, adam, samples), adam.updater(model, params)
    epoch_loss = 0.0
    if size == 1:
        for columns, values, label, index in shuffled:
            log_p, rows = step(columns, values, label)
            if not math.isfinite(log_p):
                raise TrainingDivergedError(epoch)
            epoch_loss -= log_p
            update(index, rows)
        return epoch_loss / n
    batch_step = _batch_step(step, adam)
    for start in range(0, n, size):
        batch = shuffled[start : start + size]
        loss, index, rows = batch_step(batch)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        epoch_loss += loss * len(batch)
        update(index, rows)
    return epoch_loss / n
