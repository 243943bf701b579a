"""Decision trees and random forests against exhaustive split search."""

import random

import numpy as np
import pytest

from pashtext.errors import DataError
from pashtext.models import (
    DecisionTreeModel,
    DecisionTreeParams,
    RandomForestModel,
    RandomForestParams,
    train_decision_tree,
    train_random_forest,
)
from pashtext.models.tree import TreeNode, gini_impurity
from pashtext.vectorize import FeatureMatrix

matrix_from_dense = FeatureMatrix.from_dense


def queries(*rows):
    return FeatureMatrix.from_dense(np.array(rows, dtype=np.float64))


def test_gini_worked_examples():
    assert gini_impurity([1, 1]) == pytest.approx(0.5, abs=1e-15)
    assert gini_impurity([2, 0]) == 0.0
    assert gini_impurity([1, 1, 1, 1]) == pytest.approx(0.75, abs=1e-15)
    assert gini_impurity([3, 1]) == pytest.approx(1 - (0.75**2 + 0.25**2), abs=1e-15)
    with pytest.raises(DataError):
        gini_impurity([])
    with pytest.raises(DataError):
        gini_impurity([2, -1])
    with pytest.raises(DataError):
        gini_impurity([0, 0])


def test_gini_matches_direct_formula_sweep():
    rng = random.Random(3)
    for _ in range(100):
        counts = [rng.randrange(0, 6) for _ in range(rng.randrange(2, 5))]
        if sum(counts) == 0:
            counts[0] = 1
        total = sum(counts)
        expected = 1.0 - sum((c / total) ** 2 for c in counts)
        assert gini_impurity(counts) == pytest.approx(expected, abs=1e-12)


def brute_split_score(dense, labels, label_count, feature, threshold):
    n = len(labels)
    left = [labels[i] for i in range(n) if dense[i][feature] <= threshold]
    right = [labels[i] for i in range(n) if dense[i][feature] > threshold]
    score = 0.0
    for side in (left, right):
        counts = [side.count(c) for c in range(label_count)]
        score += (len(side) / n) * (
            1.0 - sum((c / len(side)) ** 2 for c in counts)
        )
    return score


def brute_split_candidates(dense, labels, label_count):
    """All (score, feature, threshold) over every midpoint of every feature."""
    n, dim = dense.shape
    out = []
    for feature in range(dim):
        values = sorted(set(dense[i][feature] for i in range(n)))
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            out.append(
                (
                    brute_split_score(dense, labels, label_count, feature, threshold),
                    feature,
                    threshold,
                )
            )
    return out


def root_split(model):
    assert not model.root.is_leaf
    return model.root.feature, model.root.threshold


def test_root_split_matches_exhaustive_search():
    rng = random.Random(17)
    checked, exact = 0, 0
    for _ in range(120):
        n = rng.randrange(3, 10)
        dim = rng.randrange(1, 4)
        label_count = 2
        labels = [rng.randrange(label_count) for _ in range(n)]
        labels[0], labels[1] = 0, 1
        dense = np.array(
            [[float(rng.randrange(4)) for _ in range(dim)] for _ in range(n)]
        )
        candidates = brute_split_candidates(dense, labels, label_count)
        if not candidates:
            continue
        model = train_decision_tree(
            matrix_from_dense(dense, labels), DecisionTreeParams(), label_count
        )
        if model.root.is_leaf:
            continue
        feature, threshold = root_split(model)
        best = min(score for score, _, _ in candidates)
        got = brute_split_score(dense, labels, label_count, feature, threshold)
        # the chosen split is optimal
        assert got <= best + 1e-9
        # when the optimum is unique by a clear margin the choices coincide
        near = [c for c in candidates if c[0] <= best + 1e-9]
        if len(near) == 1:
            assert feature == near[0][1]
            assert threshold == pytest.approx(near[0][2], abs=1e-12)
            exact += 1
        checked += 1
    assert checked >= 60 and exact >= 20


def test_midpoint_threshold_and_left_rule():
    model = train_decision_tree(
        matrix_from_dense([[0.0], [2.0]], [0, 1]), DecisionTreeParams(), 2
    )
    feature, threshold = root_split(model)
    assert feature == 0 and threshold == 1.0
    # value == threshold goes left
    assert model.predict_rows(queries([1.0], [1.0000001])).tolist() == [0, 1]


def test_split_tie_prefers_lower_feature_index():
    # Both features separate the classes perfectly.
    dense = [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
    model = train_decision_tree(
        matrix_from_dense(dense, [0, 1, 0, 1]), DecisionTreeParams(), 2
    )
    assert root_split(model)[0] == 0


def test_tree_overfits_training_data():
    rng = random.Random(5)
    dense = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(30)]
    labels = [0 if x + y < 1.0 else 1 for x, y in dense]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    model = train_decision_tree(m, DecisionTreeParams(), 2)
    assert model.predict_rows(m).tolist() == labels


def test_zero_gain_splits_still_reach_purity():
    # XOR: no single split reduces impurity, yet the grown tree is exact.
    dense = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    labels = [0, 0, 1, 1]
    m = matrix_from_dense(dense, labels)
    model = train_decision_tree(m, DecisionTreeParams(), 2)
    assert model.predict_rows(m).tolist() == labels


def test_depth_and_size_limits():
    dense = [[0.0], [1.0], [2.0], [3.0]]
    labels = [0, 1, 0, 1]
    deep = train_decision_tree(matrix_from_dense(dense, labels), DecisionTreeParams(), 2)
    stump = train_decision_tree(
        matrix_from_dense(dense, labels), DecisionTreeParams(max_depth=1), 2
    )
    assert stump.root.left.is_leaf and stump.root.right.is_leaf
    assert not (deep.root.left.is_leaf and deep.root.right.is_leaf)
    frozen = train_decision_tree(
        matrix_from_dense(dense, labels), DecisionTreeParams(min_samples_split=5), 2
    )
    assert frozen.root.is_leaf


def test_leaf_scores_are_class_frequencies():
    dense = [[0.0], [0.0], [0.0], [5.0]]
    labels = [0, 0, 1, 1]
    model = train_decision_tree(
        matrix_from_dense(dense, labels), DecisionTreeParams(max_depth=1), 2
    )
    scores = model.predict_scores(queries([0.0], [7.0]))
    assert scores.tolist() == [[2 / 3, 1 / 3], [0.0, 1.0]]


def test_tree_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]
    labels = [0, 1, 0, 1]
    model = train_decision_tree(matrix_from_dense(dense, labels), DecisionTreeParams(), 2)
    restored = DecisionTreeModel.from_payload(
        model.payload(), model.params, label_count=2, feature_dimension=2
    )
    m = matrix_from_dense(dense, labels)
    assert np.array_equal(restored.predict_scores(m), model.predict_scores(m))
    node = TreeNode.from_payload(model.root.to_payload())
    assert node.to_payload() == model.root.to_payload()


def test_single_tree_forest_matches_plain_tree():
    rng = random.Random(23)
    dense = [[rng.uniform(0, 3) for _ in range(4)] for _ in range(25)]
    labels = [rng.randrange(3) for _ in range(25)]
    labels[0], labels[1], labels[2] = 0, 1, 2
    m = matrix_from_dense(dense, labels)
    tree = train_decision_tree(m, DecisionTreeParams(), 3)
    forest = train_random_forest(
        m,
        RandomForestParams(n_trees=1, bootstrap=False, features_per_split=4),
        3,
    )
    assert forest.trees[0].payload() == tree.payload()
    assert np.array_equal(forest.predict_rows(m), tree.predict_rows(m))


def test_forest_votes_sum_to_tree_count():
    dense = [[0.0], [1.0], [2.0], [3.0]]
    labels = [0, 0, 1, 1]
    forest = train_random_forest(
        matrix_from_dense(dense, labels), RandomForestParams(n_trees=7, seed=3), 2
    )
    votes = forest.predict_scores(queries([0.5], [2.5], [9.0]))
    assert votes.sum(axis=1).tolist() == [7.0, 7.0, 7.0]


def test_forest_determinism_and_seed_sensitivity():
    rng = random.Random(31)
    dense = [[rng.uniform(0, 2) for _ in range(3)] for _ in range(20)]
    labels = [rng.randrange(2) for _ in range(20)]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    a = train_random_forest(m, RandomForestParams(n_trees=5, seed=42), 2)
    b = train_random_forest(m, RandomForestParams(n_trees=5, seed=42), 2)
    c = train_random_forest(m, RandomForestParams(n_trees=5, seed=43), 2)
    assert a.payload() == b.payload()
    assert a.payload() != c.payload()


def test_forest_default_feature_subsampling():
    rng = random.Random(37)
    dense = [[rng.uniform(0, 2) for _ in range(9)] for _ in range(20)]
    labels = [rng.randrange(2) for _ in range(20)]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    # features_per_split=0 means floor(sqrt(9)) = 3 candidates per node.
    forest = train_random_forest(
        m, RandomForestParams(n_trees=3, features_per_split=0, seed=1), 2
    )
    preds = forest.predict_rows(m)
    assert all(p in (0, 1) for p in preds)


def test_forest_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]
    labels = [0, 1, 0, 1]
    m = matrix_from_dense(dense, labels)
    forest = train_random_forest(m, RandomForestParams(n_trees=3, seed=9), 2)
    restored = RandomForestModel.from_payload(
        forest.payload(), forest.params, label_count=2, feature_dimension=2
    )
    assert np.array_equal(restored.predict_scores(m), forest.predict_scores(m))
