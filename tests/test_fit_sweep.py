"""A seeded sweep of small, hostile feature matrices through every fit.

Each case is drawn from a SplitMix64 stream: at most 12 rows, 6 columns and
3 classes, with values at the edges of float64 (subnormals, the smallest
normal, +-1e308, the neighbours of 1), rows repeated under another label and
constant columns.  Every kind is fitted on each case in both feature modes,
with default and with small hyperparameters.  A fit passes if it raises a
PashtextError, or if its model scores the training rows finitely, predicts
classes in range and loads back from its own document.  Pytest's
`error::RuntimeWarning` filter stays on, so an overflow warning fails a fit.
"""

import dataclasses
import json
import threading

import numpy as np
from matrices import matrix_from_dense

from pashtext.errors import PashtextError
from pashtext.models import ModelKind, train
from pashtext.models.io import model_document, model_from_document
from pashtext.models.params import (
    DecisionTreeParams,
    GaussianNBParams,
    KNNParams,
    LinearParams,
    MLPParams,
    MultinomialNBParams,
    RandomForestParams,
)
from pashtext.prng import SplitMix64, derive_seed
from pashtext.vectorize import FEATURE_MODES

CASES = 150
SWEEP_SEED = 2024
VALUES = (0.0, 1.0, -1.0, 1.0 + 2**-52, 1.0 - 2**-52, 5e-324, 2.2e-308,
          1e308, -1e308, 0.5, 3.0)

# Per kind: the defaults, then small limits.
PARAM_SETS = {
    ModelKind.GAUSSIAN_NB: (None, GaussianNBParams(variance_floor=1e-300)),
    ModelKind.MULTINOMIAL_NB: (None, MultinomialNBParams(laplace_alpha=1e-300)),
    ModelKind.KNN: (None, KNNParams(k=1)),
    ModelKind.DECISION_TREE: (None, DecisionTreeParams(max_depth=1)),
    ModelKind.RANDOM_FOREST: (None, RandomForestParams(n_trees=2, max_depth=2)),
    ModelKind.LOGISTIC_REGRESSION: (None, LinearParams(epochs=2)),
    ModelKind.LINEAR_SVM: (None, LinearParams(epochs=2)),
    ModelKind.MLP: (None, MLPParams(hidden_units=1, epochs=2)),
}


def draw_case(case: int):
    """The dense rows, labels and class count of one case."""
    rng = SplitMix64(derive_seed(SWEEP_SEED, case))
    rows, cols, classes = 1 + rng.next_below(12), 1 + rng.next_below(6), 2 + rng.next_below(2)
    dense = np.array([[VALUES[rng.next_below(len(VALUES))] for _ in range(cols)]
                      for _ in range(rows)])
    labels = [rng.next_below(classes) for _ in range(rows)]
    if rng.next_below(2):  # a constant column
        dense[:, rng.next_below(cols)] = VALUES[rng.next_below(len(VALUES))]
    if rows > 1 and rng.next_below(2):  # a repeated row under another label
        source, target = rng.next_below(rows), rng.next_below(rows)
        dense[target] = dense[source]
        labels[target] = (labels[source] + 1) % classes
    return dense, labels, classes


def check_fit(kind, matrix, params, classes):
    """None if the fit passes, else what went wrong."""
    try:
        model = train(kind, matrix, params, label_count=classes)
        scores = model.predict_scores(matrix)
        predictions = model.predict_rows(matrix)
        reloaded = model_from_document(json.loads(json.dumps(model_document(model))))
    except PashtextError:
        return None
    except Exception as exc:  # a RuntimeWarning raised by the filter, among others
        return f"{type(exc).__name__}: {exc}"
    if not np.isfinite(scores).all():
        return "non-finite scores"
    if predictions.min() < 0 or predictions.max() >= classes:
        return f"predictions {predictions.tolist()} outside [0, {classes})"
    if reloaded.predict_rows(matrix).tolist() != predictions.tolist():
        return "the reloaded model predicts otherwise"
    return None


def run_with_timeout(kind, matrix, params, classes):
    """`check_fit` in a daemon thread, so that a fit that never ends fails
    the sweep instead of hanging it."""
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(check_fit(kind, matrix, params, classes)), daemon=True)
    thread.start()
    thread.join(timeout=30)
    return outcome[0] if outcome else "the fit did not end within 30 s"


def test_every_fit_survives_hostile_matrices():
    failures = []
    for case in range(CASES):
        dense, labels, classes = draw_case(case)
        unigram = matrix_from_dense(dense, labels)
        for mode in FEATURE_MODES:
            matrix = dataclasses.replace(unigram, mode=mode)
            for kind, param_sets in PARAM_SETS.items():
                for params in param_sets:
                    failure = run_with_timeout(kind, matrix, params, classes)
                    if failure is not None:
                        failures.append(f"case {case} {kind.value}/{mode} {params}: {failure}")
    assert failures == []


def test_the_cases_are_small_and_hold_every_hostile_shape():
    drawn = [draw_case(case) for case in range(CASES)]
    assert all(1 <= dense.shape[0] <= 12 and 1 <= dense.shape[1] <= 6 and 2 <= classes <= 3
               for dense, _, classes in drawn)
    assert set(np.concatenate([dense.ravel() for dense, _, _ in drawn]).tolist()) == set(VALUES)
    # Some case repeats a row under another label, and some has a constant
    # column beside a varying one.
    assert any(len({tuple(row) for row in dense}) < len(set(zip(map(tuple, dense), labels)))
               for dense, labels, _ in drawn)
    assert any(dense.shape[0] > 1 and (dense == dense[0]).all(axis=0).any()
               and not (dense == dense[0]).all() for dense, _, _ in drawn)
