"""Gaussian and multinomial naive Bayes against brute-force posteriors."""

import math
import random

import numpy as np
import pytest
from matrices import matrix_from_dense

from pashtext.errors import DataError, InvalidHyperparameterError
from pashtext.models import naive_bayes
from pashtext.models.naive_bayes import GaussianNBModel, MultinomialNBModel
from pashtext.models.params import GaussianNBParams, MultinomialNBParams


def queries(*rows):
    return matrix_from_dense(np.array(rows, dtype=np.float64))


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
    model = MultinomialNBModel.fit(
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
        model = MultinomialNBModel.fit(
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
    model = MultinomialNBModel.fit(
        matrix_from_dense(dense, [0, 1]), MultinomialNBParams(), 2
    )
    scores = model.predict_scores(queries([0.7, 0.0]))
    assert np.isfinite(scores).all()
    with pytest.raises(DataError, match="non-negative"):
        MultinomialNBModel.fit(
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
        model = GaussianNBModel.fit(matrix_from_dense(dense, labels), params, label_count)
        batch = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(3)]
        scores = model.predict_scores(queries(*batch))
        assert scores.shape == (3, label_count)
        for query, row_scores in zip(batch, scores):
            expected = brute_gaussian_posterior(
                dense, labels, query, label_count, params.variance_floor
            )
            assert np.allclose(np.exp(row_scores), expected, atol=1e-9)


def reference_gaussian_scores(model, matrix):
    """The scores `GaussianNBModel._scores` gave before it wrote its terms
    into one buffer: four temporaries per class."""
    dense = matrix.to_dense()
    log_norms = naive_bayes._LOG_2PI + np.log(model.variances)
    joint = np.empty((matrix.n_rows, model.label_count), dtype=np.float64)
    for c in range(model.label_count):
        terms = log_norms[c] + (dense - model.means[c]) ** 2 / model.variances[c]
        joint[:, c] = -0.5 * terms.sum(axis=1)
    return naive_bayes._log_normalize(model.priors, joint)


def test_gaussian_scores_equal_the_temporaries_form_bit_for_bit():
    """Rows of zeros, constant features (variance at the floor) and widths
    past numpy's pairwise-summation block are all scored as before."""
    rng = np.random.default_rng(37)
    for _ in range(60):
        n, dim, label_count = int(rng.integers(2, 30)), int(rng.integers(1, 300)), 3
        dense = rng.uniform(-3, 3, (n, dim)) * (rng.uniform(size=(n, dim)) < 0.4)
        dense[:, rng.uniform(size=dim) < 0.3] = 1.5  # constant: variance is the floor
        labels = rng.integers(label_count, size=n)
        params = GaussianNBParams(variance_floor=float(rng.choice([1e-9, 1e-300])))
        model = GaussianNBModel.fit(matrix_from_dense(dense, labels), params, label_count)
        batch = rng.uniform(-3, 3, (int(rng.integers(0, 12)), dim))
        batch[rng.uniform(size=len(batch)) < 0.3] = 0.0  # rows of zeros
        probes = matrix_from_dense(batch)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got, want = model._scores(probes), reference_gaussian_scores(model, probes)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gaussian_variance_floor_keeps_constant_features_finite():
    # Second feature is identical in every row: only the floor keeps its
    # variance positive.
    dense = [[0.0, 5.0], [1.0, 5.0], [3.0, 5.0], [4.0, 5.0]]
    model = GaussianNBModel.fit(
        matrix_from_dense(dense, [0, 0, 1, 1]), GaussianNBParams(), 2
    )
    assert (model.variances > 0).all()
    scores = model.predict_scores(queries([2.0, 5.0]))
    assert np.isfinite(scores).all()


def test_gaussian_all_constant_matrix_uses_absolute_fallback():
    dense = [[1.0], [1.0], [1.0]]
    model = GaussianNBModel.fit(matrix_from_dense(dense, [0, 0, 1]), GaussianNBParams(), 2)
    assert (model.variances > 0).all()
    scores = model.predict_scores(queries([1.0]))
    assert np.isfinite(scores).all()


def test_scores_are_log_posteriors():
    dense = [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
    labels = [0, 1, 1]
    for cls in (GaussianNBModel, MultinomialNBModel):
        model = cls.fit(matrix_from_dense(dense, labels), cls.params_class(), 2)
        scores = model.predict_scores(queries([1.0, 0.5]))
        assert np.exp(scores).sum(axis=1) == pytest.approx([1.0], abs=1e-12)


@pytest.mark.parametrize("cls", [GaussianNBModel, MultinomialNBModel])
def test_a_class_without_training_rows_scores_finite_and_lowest(cls):
    """Its prior is 0: its scores are finite, with no log(0) warning, and
    below every other class's, so it is never predicted."""
    dense = [[1.0, 0.0], [0.0, 2.0]]
    model = cls.fit(matrix_from_dense(dense, [0, 2]), cls.params_class(), 3)
    assert model.priors[1] == 0.0
    scores = model.predict_scores(queries([1.0, 0.0], [0.0, 2.0], [1.0, 1.0]))
    assert np.isfinite(scores).all()
    assert (scores[:, 1] < scores[:, [0, 2]].min(axis=1)).all()


def test_nb_payload_round_trips():
    dense = [[1.0, 0.0], [0.0, 2.0]]
    query = queries([0.5, 0.5])
    gnb = GaussianNBModel.fit(matrix_from_dense(dense, [0, 1]), GaussianNBParams(), 2)
    restored = GaussianNBModel.from_payload(
        gnb.payload(), gnb.params, gnb.label_count, gnb.feature_dimension
    )
    assert np.allclose(restored.predict_scores(query), gnb.predict_scores(query))
    mnb = MultinomialNBModel.fit(
        matrix_from_dense(dense, [0, 1]), MultinomialNBParams(), 2
    )
    restored = MultinomialNBModel.from_payload(
        mnb.payload(), mnb.params, mnb.label_count, mnb.feature_dimension
    )
    assert np.allclose(restored.predict_scores(query), mnb.predict_scores(query))


def test_nb_param_validation():
    with pytest.raises(InvalidHyperparameterError):
        GaussianNBParams(variance_floor=0.0)
    with pytest.raises(InvalidHyperparameterError):
        MultinomialNBParams(laplace_alpha=0.0)


def test_dimension_mismatch_rejected():
    model = MultinomialNBModel.fit(
        matrix_from_dense([[1.0, 0.0], [0.0, 1.0]], [0, 1]), MultinomialNBParams(), 2
    )
    with pytest.raises(DataError):
        model.predict_scores(queries([1.0, 0.0, 0.0]))
