"""Hinge and softmax objectives, gradients, and full-batch training."""

import dataclasses
import math
import random

import numpy as np
import pytest
from matrices import assert_same_bits, matrix_from_dense

from pashtext.errors import InvalidHyperparameterError, TrainingDivergedError
from pashtext.models import ModelKind, train
from pashtext.models.base import softmax
from pashtext.models.linear import (
    LinearSVMModel,
    LogisticRegressionModel,
    cross_entropy_terms,
    hinge_terms,
    loss_and_grads,
)
from pashtext.models.params import LinearParams
from pashtext.vectorize import FEATURE_MODES, TFIDF


# The two objectives that `loss_and_grads` and the families' `terms`
# replaced, kept verbatim as references.

def _one_vs_rest_targets(labels: np.ndarray, label_count: int) -> np.ndarray:
    targets = -np.ones((labels.size, label_count), dtype=np.float64)
    targets[np.arange(labels.size), labels] = 1.0
    return targets


def svm_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    dense: np.ndarray,
    labels: np.ndarray,
    l2_strength: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Summed one-vs-rest L2-regularized hinge objective and its subgradient.

    The data term averages over samples within each class column; samples
    exactly on the margin contribute zero, matching the stated subgradient
    convention.  The bias is not regularized.
    """
    n = dense.shape[0]
    targets = _one_vs_rest_targets(labels, weights.shape[0])
    margins = targets * (dense @ weights.T + bias)
    violated = margins < 1.0
    loss = float(
        np.where(violated, 1.0 - margins, 0.0).sum() / n
        + 0.5 * l2_strength * (weights**2).sum()
    )
    pull = np.where(violated, -targets, 0.0)
    grad_w = pull.T @ dense / n + l2_strength * weights
    grad_b = pull.sum(axis=0) / n
    return loss, grad_w, grad_b


def logistic_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    dense: np.ndarray,
    labels: np.ndarray,
    l2_strength: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy with L2 on the weights, plus gradients."""
    n = dense.shape[0]
    probs = softmax(dense @ weights.T + bias)
    picked = probs[np.arange(n), labels]
    loss = float(
        -np.log(picked).mean() + 0.5 * l2_strength * (weights**2).sum()
    )
    residual = probs.copy()
    residual[np.arange(n), labels] -= 1.0
    grad_w = residual.T @ dense / n + l2_strength * weights
    grad_b = residual.sum(axis=0) / n
    return loss, grad_w, grad_b


def reference_fit(reference, matrix, params, label_count):
    """The gradient descent loop of `_LinearModel.fit` over a reference
    objective: the weights and bias it ends at."""
    dense = matrix.to_dense()
    weights = np.zeros((label_count, matrix.dim), dtype=np.float64)
    bias = np.zeros(label_count, dtype=np.float64)
    for epoch in range(params.epochs):
        loss, grad_w, grad_b = reference(
            weights, bias, dense, matrix.row_labels, params.l2_strength
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        weights -= params.learning_rate * grad_w
        bias -= params.learning_rate * grad_b
    return weights, bias


@pytest.mark.parametrize("kind,reference", [
    (ModelKind.LINEAR_SVM, svm_loss_and_grads),
    (ModelKind.LOGISTIC_REGRESSION, logistic_loss_and_grads),
])
def test_fit_gives_the_reference_weights_bit_for_bit(kind, reference):
    """On seeded count and TFIDF-like matrices, some with a class that has no
    rows, `train` ends at the weights and bias of the reference loop."""
    rng = np.random.default_rng(36)
    for case in range(40):
        n_rows, dim = int(rng.integers(2, 30)), int(rng.integers(1, 20))
        dense = rng.integers(0, 4, (n_rows, dim)) * (rng.uniform(size=(n_rows, dim)) < 0.4)
        classes = int(rng.integers(3, 5))
        labels = rng.integers(0, classes, n_rows)
        labels[:2] = [0, classes - 1]
        # A class without rows: none, class 1, or one past the last label.
        if case % 3 == 1:
            labels[labels == 1] = 0
        label_count = classes + (case % 3 == 2)
        params = LinearParams(learning_rate=float(rng.choice([0.1, 0.5, 3.0])),
                              epochs=int(rng.integers(1, 40)),
                              l2_strength=float(rng.choice([0.0, 1e-4, 0.1])))
        for mode in FEATURE_MODES:
            values = dense * rng.uniform(0.1, 4.0, dim) if mode == TFIDF else dense
            matrix = dataclasses.replace(matrix_from_dense(values, labels), mode=mode)
            model = train(kind, matrix, params, label_count)
            weights, bias = reference_fit(reference, matrix, params, label_count)
            assert_same_bits(model.weights, weights)
            assert_same_bits(model.bias, bias)


def queries(*rows):
    return matrix_from_dense(np.array(rows, dtype=np.float64))


def hinge_loss_value(margin: float) -> float:
    """Hinge loss max(0, 1 - margin) for a signed margin y * f(x)."""
    return max(0.0, 1.0 - margin)


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
        loss, _, _ = loss_and_grads(hinge_terms, weights, bias, dense, labels, l2)
        assert loss == pytest.approx(
            brute_svm_loss(weights, bias, dense, labels, l2), abs=1e-10
        )
        loss, _, _ = loss_and_grads(cross_entropy_terms, weights, bias, dense, labels, l2)
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
    for terms in (hinge_terms, cross_entropy_terms):
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
                return loss_and_grads(terms, w, b, dense, labels, l2)[0]

            _, grad_w, grad_b = loss_and_grads(terms, weights, bias, dense, labels, l2)
            num_w, num_b = numeric_gradients(loss_at, weights, bias)
            assert np.allclose(grad_w, num_w, atol=1e-4)
            assert np.allclose(grad_b, num_b, atol=1e-4)


def test_training_is_deterministic_and_seed_free():
    dense = [[0.0, 1.0], [1.0, 0.0], [0.2, 0.9], [0.8, 0.1]]
    labels = [0, 1, 0, 1]
    m = matrix_from_dense(dense, labels)
    params_a = LinearParams(epochs=50, seed=1)
    params_b = LinearParams(epochs=50, seed=2)
    for cls in (LinearSVMModel, LogisticRegressionModel):
        a, b = cls.fit(m, params_a, 2), cls.fit(m, params_b, 2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_training_separates_simple_data():
    dense = [[0.0, 2.0], [0.1, 1.8], [2.0, 0.0], [1.9, 0.2]]
    labels = [0, 0, 1, 1]
    m = matrix_from_dense(dense, labels)
    for cls in (LinearSVMModel, LogisticRegressionModel):
        model = cls.fit(m, LinearParams(learning_rate=0.5, epochs=300), 2)
        assert model.predict_rows(m).tolist() == labels


def test_training_loss_decreases():
    rng = random.Random(44)
    dense = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(12)]
    labels = [0 if x < y else 1 for x, y in dense]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    arr = m.to_dense()
    row_labels = m.row_labels
    for cls in (LinearSVMModel, LogisticRegressionModel):
        start = loss_and_grads(
            cls.terms, np.zeros((2, 2)), np.zeros(2), arr, row_labels, 1e-4
        )[0]
        model = cls.fit(m, LinearParams(learning_rate=0.1, epochs=100), 2)
        end = loss_and_grads(cls.terms, model.weights, model.bias, arr, row_labels, 1e-4)[0]
        assert end < start


def test_divergence_raises_with_epoch():
    dense = [[1e30], [-1e30]]
    m = matrix_from_dense(dense, [0, 1])
    with pytest.raises(TrainingDivergedError) as info:
        train(ModelKind.LINEAR_SVM, m, LinearParams(learning_rate=1e30, epochs=50), 2)
    assert "epoch" in str(info.value)


def test_logistic_scores_are_probabilities():
    dense = [[0.0, 1.0], [1.0, 0.0]]
    m = matrix_from_dense(dense, [0, 1])
    model = LogisticRegressionModel.fit(m, LinearParams(epochs=20), 2)
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
    for cls in (LinearSVMModel, LogisticRegressionModel):
        model = cls.fit(m, LinearParams(epochs=30), 2)
        restored = cls.from_payload(
            model.payload(), model.params, model.label_count, model.feature_dimension
        )
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
