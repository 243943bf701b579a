"""Gaussian and multinomial naive Bayes against brute-force posteriors."""

import math
import random

import numpy as np
import pytest

from pashtext.errors import DataError, InvalidHyperparameterError
from pashtext.models import (
    GaussianNBModel,
    GaussianNBParams,
    MultinomialNBModel,
    MultinomialNBParams,
    train_gaussian_nb,
    train_multinomial_nb,
)
from pashtext.vectorize import FeatureMatrix

matrix_from_dense = FeatureMatrix.from_dense


def queries(*rows):
    return FeatureMatrix.from_dense(np.array(rows, dtype=np.float64))


def brute_gaussian_posterior(dense, labels, query, label_count, variance_floor):
    """Direct probability-space Gaussian NB, no shared code with the package."""
    dense = np.asarray(dense, dtype=np.float64)
    n = len(labels)
    floor = variance_floor * max(
        float(np.var([dense[i][j] for i in range(n)])) for j in range(dense.shape[1])
    )
    if floor == 0.0:
        floor = 1e-12
    joint = []
    for c in range(label_count):
        rows = [dense[i] for i in range(n) if labels[i] == c]
        prior = len(rows) / n
        likelihood = 1.0
        for j in range(dense.shape[1]):
            column = [row[j] for row in rows]
            mean = sum(column) / len(column)
            var = sum((v - mean) ** 2 for v in column) / len(column) + floor
            likelihood *= math.exp(-((query[j] - mean) ** 2) / (2 * var)) / math.sqrt(
                2 * math.pi * var
            )
        joint.append(prior * likelihood)
    total = sum(joint)
    return [v / total for v in joint]


def brute_multinomial_posterior(dense, labels, query, label_count, alpha):
    dense = np.asarray(dense, dtype=np.float64)
    n, dim = dense.shape
    joint = []
    for c in range(label_count):
        rows = [dense[i] for i in range(n) if labels[i] == c]
        prior = len(rows) / n
        counts = [sum(row[j] for row in rows) for j in range(dim)]
        total = sum(counts) + alpha * dim
        value = prior
        for j in range(dim):
            prob = (counts[j] + alpha) / total
            value *= prob ** query[j]
        joint.append(value)
    denominator = sum(joint)
    return [v / denominator for v in joint]


def test_multinomial_worked_example():
    # Class 0 token totals (1, 3), class 1 totals (2, 0); alpha = 1.
    dense = [[1.0, 3.0], [2.0, 0.0]]
    model = train_multinomial_nb(
        matrix_from_dense(dense, [0, 1]), MultinomialNBParams(laplace_alpha=1.0), 2
    )
    expected = np.log(np.array([[2 / 6, 4 / 6], [3 / 4, 1 / 4]]))
    assert np.allclose(model.log_token_probs, expected, atol=1e-12)
    assert np.allclose(model.priors, [0.5, 0.5])


def test_multinomial_posteriors_match_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(3, 9)
        dim = rng.randrange(1, 5)
        label_count = rng.randrange(2, 4)
        labels = [rng.randrange(label_count) for _ in range(n)]
        for c in range(label_count):
            labels[c % n] = c
        dense = [[float(rng.randrange(4)) for _ in range(dim)] for _ in range(n)]
        alpha = rng.choice([0.5, 1.0, 2.0])
        model = train_multinomial_nb(
            matrix_from_dense(dense, labels), MultinomialNBParams(alpha), label_count
        )
        batch = [[float(rng.randrange(3)) for _ in range(dim)] for _ in range(3)]
        scores = model.predict_scores(queries(*batch))
        assert scores.shape == (3, label_count)
        for query, row_scores in zip(batch, scores):
            expected = brute_multinomial_posterior(
                dense, labels, query, label_count, alpha
            )
            assert np.allclose(np.exp(row_scores), expected, atol=1e-9)


def test_multinomial_accepts_fractional_rejects_negative():
    dense = [[0.5, 1.25], [2.0, 0.0]]
    model = train_multinomial_nb(
        matrix_from_dense(dense, [0, 1]), MultinomialNBParams(), 2
    )
    scores = model.predict_scores(queries([0.7, 0.0]))
    assert np.isfinite(scores).all()
    with pytest.raises(DataError, match="non-negative"):
        train_multinomial_nb(
            matrix_from_dense([[-1.0], [1.0]], [0, 1]), MultinomialNBParams(), 2
        )


def test_gaussian_posteriors_match_brute_force():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(4, 10)
        dim = rng.randrange(1, 4)
        label_count = rng.randrange(2, 4)
        labels = [rng.randrange(label_count) for _ in range(n)]
        for c in range(label_count):
            labels[c % n] = c
        dense = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(n)]
        params = GaussianNBParams(variance_floor=1e-6)
        model = train_gaussian_nb(matrix_from_dense(dense, labels), params, label_count)
        batch = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(3)]
        scores = model.predict_scores(queries(*batch))
        assert scores.shape == (3, label_count)
        for query, row_scores in zip(batch, scores):
            expected = brute_gaussian_posterior(
                dense, labels, query, label_count, params.variance_floor
            )
            assert np.allclose(np.exp(row_scores), expected, atol=1e-9)


def test_gaussian_variance_floor_keeps_constant_features_finite():
    # Second feature is identical in every row: only the floor keeps its
    # variance positive.
    dense = [[0.0, 5.0], [1.0, 5.0], [3.0, 5.0], [4.0, 5.0]]
    model = train_gaussian_nb(
        matrix_from_dense(dense, [0, 0, 1, 1]), GaussianNBParams(), 2
    )
    assert (model.variances > 0).all()
    scores = model.predict_scores(queries([2.0, 5.0]))
    assert np.isfinite(scores).all()


def test_gaussian_all_constant_matrix_uses_absolute_fallback():
    dense = [[1.0], [1.0], [1.0]]
    model = train_gaussian_nb(matrix_from_dense(dense, [0, 0, 1]), GaussianNBParams(), 2)
    assert (model.variances > 0).all()
    scores = model.predict_scores(queries([1.0]))
    assert np.isfinite(scores).all()


def test_scores_are_log_posteriors():
    dense = [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    labels = [0, 1, 1]
    for train in (train_gaussian_nb, train_multinomial_nb):
        params = (
            GaussianNBParams() if train is train_gaussian_nb else MultinomialNBParams()
        )
        model = train(matrix_from_dense(dense, labels), params, 2)
        scores = model.predict_scores(queries([1.0, 0.5]))
        assert np.exp(scores).sum(axis=1) == pytest.approx([1.0], abs=1e-12)


def test_nb_payload_round_trips():
    dense = [[1.0, 0.0], [0.0, 2.0]]
    query = queries([0.5, 0.5])
    gnb = train_gaussian_nb(matrix_from_dense(dense, [0, 1]), GaussianNBParams(), 2)
    restored = GaussianNBModel.from_payload(gnb.payload(), gnb.params)
    assert np.allclose(restored.predict_scores(query), gnb.predict_scores(query))
    mnb = train_multinomial_nb(
        matrix_from_dense(dense, [0, 1]), MultinomialNBParams(), 2
    )
    restored = MultinomialNBModel.from_payload(mnb.payload(), mnb.params)
    assert np.allclose(restored.predict_scores(query), mnb.predict_scores(query))


def test_nb_param_validation():
    with pytest.raises(InvalidHyperparameterError):
        GaussianNBParams(variance_floor=0.0)
    with pytest.raises(InvalidHyperparameterError):
        MultinomialNBParams(laplace_alpha=0.0)


def test_dimension_mismatch_rejected():
    model = train_multinomial_nb(
        matrix_from_dense([[1.0, 0.0], [0.0, 1.0]], [0, 1]), MultinomialNBParams(), 2
    )
    with pytest.raises(DataError):
        model.predict_scores(queries([1.0, 0.0, 0.0]))
