"""Hinge and softmax objectives, gradients, and full-batch training."""

import math
import random

import numpy as np
import pytest

from pashtext.errors import InvalidHyperparameterError, TrainingDivergedError
from pashtext.models import (
    LinearParams,
    LinearSVMModel,
    LogisticRegressionModel,
    train_linear_svm,
    train_logistic_regression,
)
from pashtext.models.linear import (
    hinge_loss_value,
    logistic_loss_and_grads,
    svm_loss_and_grads,
)
from pashtext.vectorize import FeatureMatrix

matrix_from_dense = FeatureMatrix.from_dense


def queries(*rows):
    return FeatureMatrix.from_dense(np.array(rows, dtype=np.float64))


def test_hinge_loss_values():
    assert hinge_loss_value(2.0) == 0.0
    assert hinge_loss_value(1.0) == 0.0
    assert hinge_loss_value(0.0) == 1.0
    assert hinge_loss_value(-1.5) == 2.5


def brute_svm_loss(weights, bias, dense, labels, l2):
    n, label_count = len(dense), weights.shape[0]
    total = 0.0
    for i in range(n):
        for c in range(label_count):
            target = 1.0 if labels[i] == c else -1.0
            margin = target * (
                sum(weights[c][j] * dense[i][j] for j in range(len(dense[i])))
                + bias[c]
            )
            total += hinge_loss_value(margin)
    return total / n + 0.5 * l2 * float((weights**2).sum())


def brute_logistic_loss(weights, bias, dense, labels, l2):
    n = len(dense)
    total = 0.0
    for i in range(n):
        logits = [
            sum(weights[c][j] * dense[i][j] for j in range(len(dense[i]))) + bias[c]
            for c in range(weights.shape[0])
        ]
        peak = max(logits)
        log_norm = peak + math.log(sum(math.exp(v - peak) for v in logits))
        total += log_norm - logits[labels[i]]
    return total / n + 0.5 * l2 * float((weights**2).sum())


def test_losses_match_brute_force():
    rng = random.Random(8)
    for _ in range(40):
        n, dim, label_count = rng.randrange(2, 6), rng.randrange(1, 4), rng.randrange(2, 4)
        dense = np.array([[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)])
        labels = np.array([rng.randrange(label_count) for _ in range(n)])
        weights = np.array(
            [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(label_count)]
        )
        bias = np.array([rng.uniform(-1, 1) for _ in range(label_count)])
        l2 = rng.choice([0.0, 1e-3, 0.1])
        loss, _, _ = svm_loss_and_grads(weights, bias, dense, labels, l2)
        assert loss == pytest.approx(
            brute_svm_loss(weights, bias, dense, labels, l2), abs=1e-10
        )
        loss, _, _ = logistic_loss_and_grads(weights, bias, dense, labels, l2)
        assert loss == pytest.approx(
            brute_logistic_loss(weights, bias, dense, labels, l2), abs=1e-10
        )


def numeric_gradients(loss_fn, weights, bias, h=1e-6):
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    for idx in np.ndindex(weights.shape):
        up, down = weights.copy(), weights.copy()
        up[idx] += h
        down[idx] -= h
        grad_w[idx] = (loss_fn(up, bias) - loss_fn(down, bias)) / (2 * h)
    for c in range(bias.size):
        up, down = bias.copy(), bias.copy()
        up[c] += h
        down[c] -= h
        grad_b[c] = (loss_fn(weights, up) - loss_fn(weights, down)) / (2 * h)
    return grad_w, grad_b


def test_gradients_match_finite_differences():
    rng = random.Random(14)
    for loss_and_grads in (svm_loss_and_grads, logistic_loss_and_grads):
        for _ in range(10):
            n, dim, label_count = rng.randrange(2, 5), rng.randrange(1, 4), 2
            dense = np.array(
                [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
            )
            labels = np.array([i % label_count for i in range(n)])
            # keep away from the hinge kink so the subgradient is a gradient
            weights = np.array(
                [[rng.uniform(0.1, 0.5) for _ in range(dim)] for _ in range(label_count)]
            )
            bias = np.array([rng.uniform(-0.2, 0.2) for _ in range(label_count)])
            l2 = 1e-2

            def loss_at(w, b):
                return loss_and_grads(w, b, dense, labels, l2)[0]

            _, grad_w, grad_b = loss_and_grads(weights, bias, dense, labels, l2)
            num_w, num_b = numeric_gradients(loss_at, weights, bias)
            assert np.allclose(grad_w, num_w, atol=1e-4)
            assert np.allclose(grad_b, num_b, atol=1e-4)


def test_training_is_deterministic_and_seed_free():
    dense = [[0.0, 1.0], [1.0, 0.0], [0.2, 0.9], [0.8, 0.1]]
    labels = [0, 1, 0, 1]
    m = matrix_from_dense(dense, labels)
    params_a = LinearParams(epochs=50, seed=1)
    params_b = LinearParams(epochs=50, seed=2)
    for train in (train_linear_svm, train_logistic_regression):
        a, b = train(m, params_a, 2), train(m, params_b, 2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_training_separates_simple_data():
    dense = [[0.0, 2.0], [0.1, 1.8], [2.0, 0.0], [1.9, 0.2]]
    labels = [0, 0, 1, 1]
    m = matrix_from_dense(dense, labels)
    for train in (train_linear_svm, train_logistic_regression):
        model = train(m, LinearParams(learning_rate=0.5, epochs=300), 2)
        assert model.predict_rows(m).tolist() == labels


def test_training_loss_decreases():
    rng = random.Random(44)
    dense = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(12)]
    labels = [0 if x < y else 1 for x, y in dense]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    arr = m.to_dense()
    row_labels = m.row_labels
    for train, loss_and_grads in (
        (train_linear_svm, svm_loss_and_grads),
        (train_logistic_regression, logistic_loss_and_grads),
    ):
        start = loss_and_grads(
            np.zeros((2, 2)), np.zeros(2), arr, row_labels, 1e-4
        )[0]
        model = train(m, LinearParams(learning_rate=0.1, epochs=100), 2)
        end = loss_and_grads(model.weights, model.bias, arr, row_labels, 1e-4)[0]
        assert end < start


def test_divergence_raises_with_epoch():
    dense = [[1e30], [-1e30]]
    m = matrix_from_dense(dense, [0, 1])
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as info:
        train_linear_svm(m, LinearParams(learning_rate=1e30, epochs=50), 2)
    assert "epoch" in str(info.value)


def test_logistic_scores_are_probabilities():
    dense = [[0.0, 1.0], [1.0, 0.0]]
    m = matrix_from_dense(dense, [0, 1])
    model = train_logistic_regression(m, LinearParams(epochs=20), 2)
    scores = model.predict_scores(queries([0.5, 0.5], [0.0, 0.0], [3.0, 1.0]))
    assert scores.sum(axis=1) == pytest.approx([1.0] * 3, abs=1e-12)
    assert (scores >= 0).all()


def test_svm_scores_are_margins():
    model = LinearSVMModel([[1.0, 0.0], [0.0, -2.0]], [0.5, -0.5], LinearParams())
    scores = model.predict_scores(queries([2.0, 3.0], [0.0, 0.0]))
    assert scores.tolist() == [[2.5, -6.5], [0.5, -0.5]]


def test_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0]]
    m = matrix_from_dense(dense, [0, 1])
    for train, cls in (
        (train_linear_svm, LinearSVMModel),
        (train_logistic_regression, LogisticRegressionModel),
    ):
        model = train(m, LinearParams(epochs=30), 2)
        restored = cls.from_payload(model.payload(), model.params)
        query = queries([0.3, 0.7], [0.0, 0.0])
        assert np.allclose(
            restored.predict_scores(query), model.predict_scores(query)
        )


def test_param_validation():
    with pytest.raises(InvalidHyperparameterError):
        LinearParams(learning_rate=0.0)
    with pytest.raises(InvalidHyperparameterError):
        LinearParams(epochs=0)
    with pytest.raises(InvalidHyperparameterError):
        LinearParams(l2_strength=-1.0)
