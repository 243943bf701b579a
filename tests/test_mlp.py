"""MLP forward pass, backprop gradients, Adam updates and epoch training."""

import math
import random

import numpy as np
import pytest

from pashtext.errors import TrainingDivergedError
from pashtext.models import MLPModel, MLPParams, train_mlp
from pashtext.models.mlp import (
    AdamState,
    init_mlp,
    mlp_epoch,
    mlp_loss,
    mlp_loss_and_grads,
    relu,
)
from pashtext.vectorize import FeatureMatrix

_PARAM_NAMES = ("w1", "b1", "w2", "b2")

matrix_from_dense = FeatureMatrix.from_dense


def queries(*rows):
    return FeatureMatrix.from_dense(np.array(rows, dtype=np.float64))


def test_relu_values():
    assert relu(np.array([-2.0, -0.0, 0.0, 3.5])).tolist() == [0.0, 0.0, 0.0, 3.5]
    assert relu(-1.0) == 0.0
    assert relu(2.0) == 2.0


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


def numeric_grads(model, matrix, labels, h=1e-6):
    rows = range(matrix.n_rows)
    out = {}
    for name in _PARAM_NAMES:
        tensor = getattr(model, name)
        grad = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            original = tensor[idx]
            tensor[idx] = original + h
            up = mlp_loss_and_grads(model, matrix, rows, labels)[0]
            tensor[idx] = original - h
            down = mlp_loss_and_grads(model, matrix, rows, labels)[0]
            tensor[idx] = original
            grad[idx] = (up - down) / (2 * h)
        out[name] = grad
    return out


def test_backprop_matches_finite_differences():
    rng = random.Random(19)
    for _ in range(8):
        model, matrix, labels = random_instance(rng)
        _, grads = mlp_loss_and_grads(model, matrix, range(matrix.n_rows), labels)
        numeric = numeric_grads(model, matrix, labels)
        for name in _PARAM_NAMES:
            scale = max(1.0, float(np.abs(numeric[name]).max()))
            assert np.allclose(grads[name], numeric[name], atol=1e-4 * scale), name


def test_loss_is_mean_cross_entropy():
    rng = random.Random(27)
    model, matrix, labels = random_instance(rng, away_from_kink=False)
    loss, _ = mlp_loss_and_grads(model, matrix, range(matrix.n_rows), labels)
    scores = model.predict_scores(matrix)
    expected = -sum(
        math.log(row_scores[label]) for row_scores, label in zip(scores, labels)
    ) / matrix.n_rows
    assert loss == pytest.approx(expected, abs=1e-12)
    assert mlp_loss(model, matrix, labels) == pytest.approx(expected, abs=1e-12)
    # a batch is any subset of row indices, in any order
    reversed_rows = list(range(matrix.n_rows))[::-1]
    loss, _ = mlp_loss_and_grads(model, matrix, reversed_rows, labels[::-1])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_adam_single_update_matches_hand_computation():
    params = MLPParams(hidden_units=1, learning_rate=0.1, seed=0)
    model = MLPModel([[0.5]], [0.0], [[0.25, -0.25]], [0.0, 0.0], params)
    adam = AdamState.for_model(model)
    grads = {
        "w1": np.array([[0.3]]),
        "b1": np.array([0.0]),
        "w2": np.array([[0.1, -0.1]]),
        "b2": np.array([0.0, 0.0]),
    }
    adam.apply(model, grads, params)
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
    grads["w1"] = np.array([[g2]])
    adam.apply(model, grads, params)
    assert adam.step == 2
    expected = before - lr * m_hat / (math.sqrt(v_hat) + eps)
    assert model.w1[0, 0] == pytest.approx(expected, abs=1e-12)


def test_epoch_counts_steps_and_reports_mean_loss():
    dense = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
    labels = [0, 1, 0]
    m = matrix_from_dense(dense, labels)
    params = MLPParams(hidden_units=4, batch_size=2, seed=5)
    model = init_mlp(2, 2, params)
    adam = AdamState.for_model(model)
    model, loss = mlp_epoch(model, m, m.row_labels, params, adam)
    assert adam.step == 2  # ceil(3 / 2) batches
    assert loss > 0.0
    model, _ = mlp_epoch(model, m, m.row_labels, params, adam)
    assert adam.step == 4


def test_training_reduces_loss_and_overfits():
    dense = [[0.0, 2.0], [0.2, 1.8], [2.0, 0.0], [1.8, 0.2]]
    labels = [0, 0, 1, 1]
    m = matrix_from_dense(dense, labels)
    params = MLPParams(hidden_units=8, learning_rate=0.05, epochs=60, seed=2)
    start = mlp_loss(init_mlp(2, 2, params), m, m.row_labels)
    model = train_mlp(m, params, 2)
    end = mlp_loss(model, m, m.row_labels)
    assert end < start
    assert model.predict_rows(m).tolist() == labels


def test_training_is_deterministic_and_seed_sensitive():
    dense = [[0.0, 1.0], [1.0, 0.0], [0.3, 0.7], [0.7, 0.3]]
    labels = [0, 1, 0, 1]
    m = matrix_from_dense(dense, labels)
    a = train_mlp(m, MLPParams(hidden_units=3, epochs=5, seed=7), 2)
    b = train_mlp(m, MLPParams(hidden_units=3, epochs=5, seed=7), 2)
    c = train_mlp(m, MLPParams(hidden_units=3, epochs=5, seed=8), 2)
    for name in _PARAM_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.w1, c.w1)


def test_divergence_raises():
    dense = [[1e200], [-1e200], [1e200]]
    m = matrix_from_dense(dense, [0, 1, 0])
    params = MLPParams(hidden_units=2, learning_rate=1e150, epochs=3, seed=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(TrainingDivergedError):
            train_mlp(m, params, 2)


def test_scores_are_probabilities_and_zero_vector_works():
    params = MLPParams(hidden_units=3, seed=4)
    model = init_mlp(4, 3, params)
    scores = model.predict_scores(queries([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0]))
    assert scores.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert (scores > 0).all()


def test_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0]]
    m = matrix_from_dense(dense, [0, 1])
    model = train_mlp(m, MLPParams(hidden_units=3, epochs=5, seed=3), 2)
    restored = MLPModel.from_payload(model.payload(), model.params)
    query = queries([0.4, 0.6], [0.0, 0.0])
    assert np.allclose(restored.predict_scores(query), model.predict_scores(query))
