"""MLP forward pass, backprop gradients, Adam updates and epoch training."""

import math
import random
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from pashtext.errors import TrainingDivergedError
from pashtext.models import ModelKind, train
from pashtext.models.mlp import (
    AdamState,
    MLPModel,
    init_mlp,
    mlp_epoch,
    row_samples,
)
from pashtext.models.params import MLPParams
from pashtext.prng import derive_seed
from pashtext.vectorize import FeatureMatrix
from flat_adam import FlatAdamState, flat_mlp_epoch
from matrices import matrix_from_dense
from mlp_grads import mlp_loss_and_grads
from scalar_prng import ScalarSplitMix64

_PARAM_NAMES = ("w1", "b1", "w2", "b2")


def queries(*rows):
    return matrix_from_dense(np.array(rows, dtype=np.float64))


def all_samples(matrix, labels):
    return row_samples(matrix, range(matrix.n_rows), labels)


def mlp_loss(model: MLPModel, matrix: FeatureMatrix, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy of the model over the matrix rows."""
    probs = model.predict_scores(matrix)
    return float(-np.log(probs[np.arange(matrix.n_rows), labels]).mean())


def test_init_is_deterministic_and_bounded():
    params = MLPParams(hidden_units=6, seed=11)
    a = init_mlp(10, 3, params)
    b = init_mlp(10, 3, params)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    c = init_mlp(10, 3, MLPParams(hidden_units=6, seed=12))
    assert not np.array_equal(a.w1, c.w1)
    assert np.abs(a.w1).max() <= math.sqrt(6.0 / 10)
    assert np.abs(a.w2).max() <= math.sqrt(6.0 / 6)
    assert np.all(a.b1 == 0.0) and np.all(a.b2 == 0.0)
    assert a.w1.shape == (10, 6) and a.w2.shape == (6, 3)
    assert a.b1.shape == (6,) and a.b2.shape == (3,)


def random_instance(rng, away_from_kink=True):
    """A small model plus batch whose hidden pre-activations avoid the
    ReLU kink, so central differences approximate the true gradient."""
    for _ in range(50):
        dim = rng.randrange(1, 4)
        hidden = rng.randrange(1, 4)
        label_count = rng.randrange(2, 4)
        n = rng.randrange(1, 4)
        params = MLPParams(hidden_units=hidden, seed=rng.randrange(1000))
        model = init_mlp(dim, label_count, params)
        model.w1 += np.array(
            [[rng.uniform(-1, 1) for _ in range(hidden)] for _ in range(dim)]
        )
        model.b1 += np.array([rng.uniform(-0.5, 0.5) for _ in range(hidden)])
        model.w2 += np.array(
            [[rng.uniform(-1, 1) for _ in range(label_count)] for _ in range(hidden)]
        )
        dense = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
        labels = np.array([rng.randrange(label_count) for _ in range(n)])
        matrix = matrix_from_dense(dense, labels)
        if not away_from_kink:
            return model, matrix, labels
        pres = np.asarray(dense) @ model.w1 + model.b1
        if np.abs(pres).min() > 1e-3:
            return model, matrix, labels
    raise AssertionError("could not build a kink-free instance")


def named_grads(model, grad):
    return dict(zip(_PARAM_NAMES, model.split(grad)))


def numeric_grads(model, matrix, labels, h=1e-6):
    rows = range(matrix.n_rows)
    out = {}
    for name in _PARAM_NAMES:
        tensor = getattr(model, name)
        grad = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            original = tensor[idx]
            tensor[idx] = original + h
            up = mlp_loss_and_grads(model, row_samples(matrix, rows, labels))[0]
            tensor[idx] = original - h
            down = mlp_loss_and_grads(model, row_samples(matrix, rows, labels))[0]
            tensor[idx] = original
            grad[idx] = (up - down) / (2 * h)
        out[name] = grad
    return out


def test_backprop_matches_finite_differences():
    rng = random.Random(19)
    for _ in range(8):
        model, matrix, labels = random_instance(rng)
        _, grad = mlp_loss_and_grads(model, all_samples(matrix, labels))
        grads = named_grads(model, grad)
        numeric = numeric_grads(model, matrix, labels)
        for name in _PARAM_NAMES:
            scale = max(1.0, float(np.abs(numeric[name]).max()))
            assert np.allclose(grads[name], numeric[name], atol=1e-4 * scale), name


def test_loss_is_mean_cross_entropy():
    rng = random.Random(27)
    model, matrix, labels = random_instance(rng, away_from_kink=False)
    loss, _ = mlp_loss_and_grads(model, all_samples(matrix, labels))
    scores = model.predict_scores(matrix)
    expected = -sum(
        math.log(row_scores[label]) for row_scores, label in zip(scores, labels)
    ) / matrix.n_rows
    assert loss == pytest.approx(expected, abs=1e-12)
    assert mlp_loss(model, matrix, labels) == pytest.approx(expected, abs=1e-12)
    # a batch is any subset of row indices, in any order
    reversed_rows = list(range(matrix.n_rows))[::-1]
    batch = row_samples(matrix, reversed_rows, labels[::-1])
    loss, _ = mlp_loss_and_grads(model, batch)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_adam_single_update_matches_hand_computation():
    params = MLPParams(hidden_units=1, learning_rate=0.1, seed=0)
    model = MLPModel([[0.5]], [0.0], [[0.25, -0.25]], [0.0, 0.0], params)
    adam = AdamState(model.flat.size)
    # w1 (1 x 1) is given by its touched rows; the tail is b1 (1), w2 (1 x 2), b2 (2)
    touched, tail = np.array([0]), np.array([0.0, 0.1, -0.1, 0.0, 0.0])
    update = adam.updater(model, tail, params)
    update(touched, np.array([[0.3]]))
    assert adam.step == 1
    # first step: m_hat = g, v_hat = g^2, delta = lr * g / (|g| + eps)
    lr, eps = params.learning_rate, params.adam_epsilon
    assert model.w1[0, 0] == pytest.approx(0.5 - lr * 0.3 / (0.3 + eps), abs=1e-12)
    assert model.w2[0, 0] == pytest.approx(0.25 - lr * 0.1 / (0.1 + eps), abs=1e-12)
    assert model.w2[0, 1] == pytest.approx(-0.25 + lr * 0.1 / (0.1 + eps), abs=1e-12)
    assert model.b1[0] == 0.0

    # second step with a different gradient, tracked in plain python
    b1, b2 = params.adam_beta1, params.adam_beta2
    m = (1 - b1) * 0.3
    v = (1 - b2) * 0.3**2
    g2 = -0.2
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2**2
    m_hat = m / (1 - b1**2)
    v_hat = v / (1 - b2**2)
    before = float(model.w1[0, 0])
    update(touched, np.array([[g2]]))
    assert adam.step == 2
    expected = before - lr * m_hat / (math.sqrt(v_hat) + eps)
    assert model.w1[0, 0] == pytest.approx(expected, abs=1e-12)


def test_epoch_counts_steps_and_reports_mean_loss():
    dense = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
    labels = [0, 1, 0]
    m = matrix_from_dense(dense, labels)
    params = MLPParams(hidden_units=4, batch_size=2, seed=5)
    model = init_mlp(2, 2, params)
    adam = AdamState(model.flat.size)
    samples = all_samples(m, m.row_labels)
    loss = mlp_epoch(model, samples, params, adam)
    assert adam.step == 2  # ceil(3 / 2) batches
    assert loss > 0.0
    mlp_epoch(model, samples, params, adam)
    assert adam.step == 4


def test_training_reduces_loss_and_overfits():
    dense = [[0.0, 2.0], [0.2, 1.8], [2.0, 0.0], [1.8, 0.2]]
    labels = [0, 0, 1, 1]
    m = matrix_from_dense(dense, labels)
    params = MLPParams(hidden_units=8, learning_rate=0.05, epochs=60, seed=2)
    start = mlp_loss(init_mlp(2, 2, params), m, m.row_labels)
    model = MLPModel.fit(m, params, 2)
    end = mlp_loss(model, m, m.row_labels)
    assert end < start
    assert model.predict_rows(m).tolist() == labels


def test_training_is_deterministic_and_seed_sensitive():
    dense = [[0.0, 1.0], [1.0, 0.0], [0.3, 0.7], [0.7, 0.3]]
    labels = [0, 1, 0, 1]
    m = matrix_from_dense(dense, labels)
    a = MLPModel.fit(m, MLPParams(hidden_units=3, epochs=5, seed=7), 2)
    b = MLPModel.fit(m, MLPParams(hidden_units=3, epochs=5, seed=7), 2)
    c = MLPModel.fit(m, MLPParams(hidden_units=3, epochs=5, seed=8), 2)
    for name in _PARAM_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.w1, c.w1)


def test_divergence_raises():
    dense = [[1e200], [-1e200], [1e200]]
    m = matrix_from_dense(dense, [0, 1, 0])
    params = MLPParams(hidden_units=2, learning_rate=1e150, epochs=3, seed=1)
    with pytest.raises(TrainingDivergedError):
        train(ModelKind.MLP, m, params, 2)


def test_scores_are_probabilities_and_zero_vector_works():
    params = MLPParams(hidden_units=3, seed=4)
    model = init_mlp(4, 3, params)
    scores = model.predict_scores(queries([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0]))
    assert scores.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert (scores > 0).all()


def test_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0]]
    m = matrix_from_dense(dense, [0, 1])
    model = MLPModel.fit(m, MLPParams(hidden_units=3, epochs=5, seed=3), 2)
    restored = MLPModel.from_payload(
        model.payload(), model.params, model.label_count, model.feature_dimension
    )
    query = queries([0.4, 0.6], [0.0, 0.0])
    assert np.allclose(restored.predict_scores(query), model.predict_scores(query))


def test_weights_are_views_of_one_flat_buffer():
    model = init_mlp(5, 3, MLPParams(hidden_units=4, seed=1))
    assert model.flat.shape == (5 * 4 + 4 + 4 * 3 + 3,)
    start = 0
    for name, tensor in zip(_PARAM_NAMES, model.split(model.flat)):
        assert getattr(model, name).shape == tensor.shape
        assert np.shares_memory(getattr(model, name), model.flat)
        assert np.array_equal(model.flat[start : start + tensor.size], tensor.ravel())
        start += tensor.size


# The per-tensor training code that the flat buffer replaced, kept verbatim
# (apart from names) as the reference the flat path must match bit for bit.


@dataclass
class ReferenceAdamState:
    """First/second moment accumulators and the shared step counter."""

    first: dict[str, np.ndarray]
    second: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_model(cls, model) -> "ReferenceAdamState":
        shapes = {name: getattr(model, name).shape for name in _PARAM_NAMES}
        return cls(
            first={name: np.zeros(shape) for name, shape in shapes.items()},
            second={name: np.zeros(shape) for name, shape in shapes.items()},
        )

    def apply(self, model, grads: dict[str, np.ndarray],
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


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, shifted by the row maximum."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def reference_loss_and_grads(model, matrix: FeatureMatrix, rows, labels):
    """Mean cross-entropy and mean gradients over a batch of matrix rows."""
    batch = len(rows)
    grads = {name: np.zeros_like(getattr(model, name)) for name in _PARAM_NAMES}
    loss = 0.0
    for row, label in zip(rows, labels):
        columns, values = matrix.row(row)
        hidden_pre = values @ model.w1[columns] + model.b1
        hidden = np.maximum(hidden_pre, 0.0)
        probs = reference_softmax(hidden @ model.w2 + model.b2)
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


def reference_epoch(model, matrix, labels, params, adam):
    """One pass over a shuffled epoch; returns the mean batch loss."""
    labels = np.asarray(labels, dtype=np.int64)
    n = matrix.n_rows
    steps_per_epoch = -(-n // params.batch_size)
    epoch = adam.step // steps_per_epoch
    order = list(range(n))
    ScalarSplitMix64(derive_seed(params.seed, 1 + epoch)).shuffle(order)
    epoch_loss = 0.0
    for start in range(0, n, params.batch_size):
        chosen = order[start : start + params.batch_size]
        loss, grads = reference_loss_and_grads(model, matrix, chosen, labels[chosen])
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        epoch_loss += loss * len(chosen)
        adam.apply(model, grads, params)
    return epoch_loss / n


def check_flat_training_against_reference(dense, labels, hidden, label_count,
                                          batch_size, seed, epochs=4, **adam_betas):
    """`epochs` epochs of flat training equal the per-tensor reference bit
    for bit; returns the number of Adam steps taken."""
    matrix = matrix_from_dense(dense, labels)
    params = MLPParams(
        hidden_units=hidden, learning_rate=0.05, batch_size=batch_size, seed=seed,
        **adam_betas,
    )
    model = init_mlp(dense.shape[1], label_count, params)
    reference = SimpleNamespace(
        **{name: getattr(model, name).copy() for name in _PARAM_NAMES}
    )
    adam = AdamState(model.flat.size)
    reference_adam = ReferenceAdamState.for_model(reference)
    samples = all_samples(matrix, labels)
    for _ in range(epochs):
        loss = mlp_epoch(model, samples, params, adam)
        reference_loss = reference_epoch(
            reference, matrix, labels, params, reference_adam
        )
        assert loss == reference_loss
        for name in _PARAM_NAMES:
            ours, theirs = getattr(model, name), getattr(reference, name)
            assert np.array_equal(ours, theirs), name
            assert np.array_equal(np.signbit(ours), np.signbit(theirs)), name
    assert adam.step == reference_adam.step
    return adam.step


@pytest.mark.parametrize("batch_size", [1, 2, 3])
@pytest.mark.parametrize(
    "dim, hidden, label_count, n_rows",
    # Row counts leave an uneven last batch for batch sizes 2 and 3; the
    # last shape is the desk grid's (224 features, 20 hidden units, 8 classes).
    [(6, 4, 3, 7), (9, 5, 2, 11), (224, 20, 8, 40)],
)
def test_flat_training_matches_per_tensor_reference(
    batch_size, dim, hidden, label_count, n_rows
):
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        # Sparse rows of mixed sign, so some products are -0.0; one empty row.
        dense = rng.uniform(-1.0, 1.0, (n_rows, dim))
        dense[rng.random((n_rows, dim)) < 0.6] = 0.0
        dense[0] = 0.0
        labels = rng.integers(0, label_count, n_rows)
        check_flat_training_against_reference(
            dense, labels, hidden, label_count, batch_size, seed
        )


@pytest.mark.parametrize("batch_size", [1, 2, 3])
@pytest.mark.parametrize(
    "dim, hidden, label_count, n_rows, epochs",
    [(6, 4, 3, 7, 30), (224, 20, 8, 40, 5)],
)
def test_flat_training_matches_reference_after_bias_corrections_reach_one(
    batch_size, dim, hidden, label_count, n_rows, epochs
):
    # In float64, 1 - 0.3**step is exactly 1.0 from step 32 and 1 - 0.5**step
    # from step 54, so these runs cover Adam steps with neither, one and both
    # bias corrections equal to 1.0.  The default betas reach 1.0 only at
    # steps 356 and 37,412, beyond the reach of the tests above.
    betas = {"adam_beta1": 0.3, "adam_beta2": 0.5}
    assert 1.0 - 0.3**31 != 1.0 and 1.0 - 0.3**32 == 1.0
    assert 1.0 - 0.5**53 != 1.0 and 1.0 - 0.5**54 == 1.0
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        dense = rng.uniform(-1.0, 1.0, (n_rows, dim))
        dense[rng.random((n_rows, dim)) < 0.6] = 0.0
        labels = rng.integers(0, label_count, n_rows)
        steps = check_flat_training_against_reference(
            dense, labels, hidden, label_count, batch_size, seed, epochs, **betas
        )
        assert steps >= 64, steps  # at least ten steps past both corrections


def shared_columns_rows(seed):
    """13 rows of 12 columns and their labels of 3 classes.  Every row stores
    columns 0 and 1, and the other columns are each held by a few rows, so
    batches write some gradient rows twice or more and consecutive batches
    write overlapping, but not equal, sets of rows."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((13, 12))
    dense[:, :2] = rng.uniform(0.1, 1.0, (13, 2))
    for row in range(13):
        dense[row, 2 + rng.choice(10, 3, replace=False)] = rng.uniform(-1, 1, 3)
    return dense, rng.integers(0, 3, 13)


@pytest.mark.parametrize("batch_size", [2, 3])
def test_flat_training_with_shared_columns_matches_reference(batch_size):
    for seed in (4, 5):
        dense, labels = shared_columns_rows(seed)
        check_flat_training_against_reference(dense, labels, 4, 3, batch_size, seed)


def test_gradient_matches_per_tensor_reference():
    rng = random.Random(31)
    for _ in range(10):
        model, matrix, labels = random_instance(rng, away_from_kink=False)
        rows = list(range(matrix.n_rows))
        loss, grad = mlp_loss_and_grads(model, row_samples(matrix, rows, labels))
        reference_loss, reference = reference_loss_and_grads(model, matrix, rows, labels)
        assert loss == reference_loss
        for name, part in named_grads(model, grad).items():
            assert np.array_equal(part, reference[name]), name
            assert np.array_equal(np.signbit(part), np.signbit(reference[name])), name


# Logits that are NaN (of either sign bit), +inf or -inf, alone and together,
# set through the output bias; "w1 +inf" reaches them through an infinite
# hidden unit, where inf - inf makes NaNs of the CPU's own sign bit.  The row
# step shifts its softmax by max() of a list, which skips a NaN that is not
# first, so these rows check that it takes np.max's shift whenever it matters.
_HOSTILE_LOGITS = {
    "nan": {0: np.nan},
    "negative nan last": {3: -np.nan},
    "+inf": {1: np.inf},
    "-inf": {2: -np.inf},
    "-inf of a label no row has": {4: -np.inf},
    "two +inf": {0: np.inf, 3: np.inf},
    "all -inf": {0: -np.inf, 1: -np.inf, 2: -np.inf, 3: -np.inf},
    "nan after +inf": {0: np.inf, 2: np.nan},
    "negative nan, +inf and -inf": {1: -np.nan, 2: np.inf, 3: -np.inf},
    "both nans, +inf and -inf": {0: np.inf, 1: np.nan, 2: -np.inf, 3: -np.nan},
    "w1 +inf": None,
}


def hostile_instance(case):
    """A model of five classes with the case's logits on every row, and five
    rows of labels 0-3, one of them empty."""
    dense = np.array([[0.5, 0.0, -1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                      [1.5, -0.5, 0.25], [0.0, 0.75, -2.0]])
    labels = np.array([0, 1, 2, 3, 1])
    model = init_mlp(3, 5, MLPParams(hidden_units=3, seed=9))
    if _HOSTILE_LOGITS[case] is None:
        model.w1[1] = np.inf
    else:
        for position, value in _HOSTILE_LOGITS[case].items():
            model.b2[position] = value
    return model, matrix_from_dense(dense, labels), labels


def assert_same_values_nans_and_signs(got, want, name):
    assert np.array_equal(got, want, equal_nan=True), name  # NaN where want has NaN
    assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("case", list(_HOSTILE_LOGITS))
def test_gradient_matches_reference_on_hostile_logits(case):
    assert np.signbit(-np.nan) and not np.signbit(np.nan)
    model, matrix, labels = hostile_instance(case)
    with np.errstate(all="ignore"):
        for rows in ([0], [1], [2], [4, 3], list(range(5))):
            loss, grad = mlp_loss_and_grads(model, row_samples(matrix, rows, labels[rows]))
            reference_loss, reference = reference_loss_and_grads(
                model, matrix, rows, labels[rows]
            )
            assert math.isnan(loss) == math.isnan(reference_loss)
            assert math.isnan(loss) or loss == reference_loss
            for name, part in named_grads(model, grad).items():
                assert_same_values_nans_and_signs(part, reference[name], name)


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("case", list(_HOSTILE_LOGITS))
def test_fit_from_hostile_logits_diverges_with_the_reference(case, batch_size):
    model, matrix, labels = hostile_instance(case)
    reference = SimpleNamespace(
        **{name: getattr(model, name).copy() for name in _PARAM_NAMES}
    )
    params = MLPParams(hidden_units=3, learning_rate=0.05, batch_size=batch_size, seed=9)
    adam, reference_adam = AdamState(model.flat.size), ReferenceAdamState.for_model(reference)
    samples = all_samples(matrix, labels)

    def diverged_at(run_epoch):
        try:
            for _ in range(3):
                run_epoch()
        except TrainingDivergedError as exc:
            return exc.epoch
        return None

    with np.errstate(all="ignore"):
        diverged = diverged_at(lambda: mlp_epoch(model, samples, params, adam))
        reference_diverged = diverged_at(
            lambda: reference_epoch(reference, matrix, labels, params, reference_adam)
        )
    assert diverged == reference_diverged
    assert adam.step == reference_adam.step
    for name in _PARAM_NAMES:
        assert_same_values_nans_and_signs(getattr(model, name), getattr(reference, name), name)


def sparse_rows(rng, n_rows, dim, label_count):
    """Rows of mixed sign with about 60 % zeros, so some products are -0.0,
    and their labels."""
    dense = rng.uniform(-1.0, 1.0, (n_rows, dim))
    dense[rng.random((n_rows, dim)) < 0.6] = 0.0
    return dense, rng.integers(0, label_count, n_rows)


def flat_reference_case(case):
    """(model, matrix, labels) of one case of the touched-rows Adam check."""
    if case in _HOSTILE_LOGITS:
        return hostile_instance(case)
    if case == "shared columns":
        dense, labels = shared_columns_rows(4)
        label_count, hidden = 3, 4
    elif case == "empty row":
        dense, labels = sparse_rows(np.random.default_rng(6), 7, 6, 3)
        dense[3] = 0.0
        label_count, hidden = 3, 4
    else:  # the desk grid's shape: 224 features, 20 hidden units, 8 classes
        dense, labels = sparse_rows(np.random.default_rng(7), 40, 224, 8)
        label_count, hidden = 8, 20
    model = init_mlp(dense.shape[1], label_count, MLPParams(hidden_units=hidden, seed=9))
    return model, matrix_from_dense(dense, labels), labels


@pytest.mark.parametrize("batch_size", [1, 2, 3])
@pytest.mark.parametrize(
    "case", [*_HOSTILE_LOGITS, "shared columns", "empty row", "desk shape"]
)
def test_touched_rows_adam_matches_the_flat_gradient_update(case, batch_size):
    # Adam reads the gradient only at the w1 rows a batch touched and in the
    # b1, w2 and b2 tail; the flat-gradient update it replaced reads a dense
    # gradient, +0.0 elsewhere.  Weights, both moments and every epoch loss
    # must be the same bits, NaNs and signs of zeros included, up to and
    # including a divergence.
    model, matrix, labels = flat_reference_case(case)
    reference = init_mlp(model.feature_dimension, model.label_count, model.params)
    reference.flat[...] = model.flat
    params = MLPParams(hidden_units=model.b1.size, learning_rate=0.05,
                       batch_size=batch_size, seed=9)
    adam, flat_adam = AdamState(model.flat.size), FlatAdamState(model.flat.size)
    samples = all_samples(matrix, labels)

    def outcome(run_epoch):
        try:
            return run_epoch()
        except TrainingDivergedError as exc:
            return ("diverged", exc.epoch)

    with np.errstate(all="ignore"):
        for _ in range(4):
            loss = outcome(lambda: mlp_epoch(model, samples, params, adam))
            reference_loss = outcome(
                lambda: flat_mlp_epoch(reference, samples, params, flat_adam)
            )
            assert loss == reference_loss
            assert adam.step == flat_adam.step
            for name, ours, theirs in (("weights", model.flat, reference.flat),
                                       ("first", adam.first, flat_adam.first),
                                       ("second", adam.second, flat_adam.second)):
                assert_same_values_nans_and_signs(ours, theirs, name)
            if isinstance(loss, tuple):
                break


def test_an_epoch_allocates_no_dense_w1_buffer():
    # At batch size 1 an epoch's buffers are sized by the rows' stored
    # entries and by b1, w2 and b2; a buffer of w1's size would exceed this.
    rng = np.random.default_rng(8)
    dense = np.zeros((30, 4000))
    for row in dense:
        row[rng.choice(4000, 12, replace=False)] = rng.uniform(0.1, 2.0, 12)
    labels = rng.integers(0, 4, 30)
    params = MLPParams(seed=3)
    model = init_mlp(4000, 4, params)
    adam = AdamState(model.flat.size)
    samples = all_samples(matrix_from_dense(dense, labels), labels)
    tracemalloc.start()
    try:
        mlp_epoch(model, samples, params, adam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.w1.nbytes, (peak, model.w1.nbytes)
