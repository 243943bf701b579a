"""Decision trees and random forests against exhaustive split search."""

import math
import random
import threading

import numpy as np
import pytest
from matrices import matrix_from_dense
from scalar_prng import ScalarSplitMix64

from pashtext.corpus import SplitSpec, stratified_split
from pashtext.errors import DataError
from pashtext.models import base
from pashtext.models import tree as tree_module
from pashtext.models.params import DecisionTreeParams, RandomForestParams
from pashtext.models.tree import DecisionTreeModel, Nodes, RandomForestModel
from pashtext.prng import derive_seed
from pashtext.synth import generate_corpus
from pashtext.vectorize import FEATURE_MODES, feature_matrix, fit_features, side_documents


def queries(*rows):
    return matrix_from_dense(np.array(rows, dtype=np.float64))


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum((n_c / n)^2) of a count vector."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.size == 0 or np.any(counts < 0):
        raise DataError("class counts must be non-negative and non-empty")
    total = counts.sum()
    if total == 0:
        raise DataError("class counts must not all be zero")
    shares = counts / total
    return float(1.0 - (shares**2).sum())


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


def reference_threshold(low, high) -> float:
    """The threshold between values low < high: their midpoint, each halved
    before adding where their sum overflows, or low where the midpoint
    rounds onto high."""
    low, high = float(low), float(high)
    total = low + high
    midpoint = total / 2.0 if math.isfinite(total) else low / 2.0 + high / 2.0
    return low if midpoint == high else midpoint


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
            threshold = reference_threshold(lo, hi)
            out.append(
                (
                    brute_split_score(dense, labels, label_count, feature, threshold),
                    feature,
                    threshold,
                )
            )
    return out


def is_leaf(model, node):
    return model.nodes.feature[node] == -1


def root_split(model):
    root = model.nodes.roots[0]
    assert root == 0 and not is_leaf(model, root)
    return int(model.nodes.feature[root]), float(model.nodes.threshold[root])


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
        model = DecisionTreeModel.fit(
            matrix_from_dense(dense, labels), DecisionTreeParams(), label_count
        )
        if is_leaf(model, 0):
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
    model = DecisionTreeModel.fit(
        matrix_from_dense([[0.0], [2.0]], [0, 1]), DecisionTreeParams(), 2
    )
    feature, threshold = root_split(model)
    assert feature == 0 and threshold == 1.0
    # value == threshold goes left
    assert model.predict_rows(queries([1.0], [1.0000001])).tolist() == [0, 1]


@pytest.mark.parametrize(
    "column, labels",
    [
        # The midpoint of 1.0 and the next float rounds to 1.0 itself.
        ([1.0, 1.0 + 2**-52, 1.0], [0, 1, 0]),
        # This midpoint rounds onto the upper value, so the threshold is the
        # lower value: at the midpoint, every row would go left.
        ([1.0 + 2**-52, 1.0 + 2**-51], [0, 1]),
    ],
)
def test_midpoint_rounded_onto_a_value_sends_its_rows_left(column, labels):
    low, high = min(column), max(column)
    assert (low + high) / 2.0 in (low, high)
    matrix = matrix_from_dense([[value] for value in column], labels)
    model = DecisionTreeModel.fit(matrix, DecisionTreeParams(max_depth=3), 2)
    assert root_split(model) == (0, low)
    assert model.predict_rows(matrix).tolist() == labels


@pytest.mark.parametrize(
    "low, high, threshold",
    [
        # The midpoint rounds onto the upper value.
        (1.0 + 2**-52, 1.0 + 2**-51, 1.0 + 2**-52),
        # The sum overflows to inf or -inf; the halves add up to the midpoint.
        (1e308, 1.5e308, 1.25e308),
        (-1.5e308, -1e308, -1.25e308),
    ],
)
def test_midpoint_rounded_or_overflowing_ends_growth_without_a_depth_limit(
    low, high, threshold
):
    # Grown in a thread, so that growth that never ends fails the test
    # instead of hanging it.
    assert reference_threshold(low, high) == threshold
    matrix = matrix_from_dense([[low], [high]], [0, 1])
    fits = {
        "tree": lambda: DecisionTreeModel.fit(matrix, DecisionTreeParams(), 2),
        "forest": lambda: RandomForestModel.fit(
            matrix, RandomForestParams(n_trees=1, bootstrap=False), 2),
    }
    models = {}
    for name, fit in fits.items():
        thread = threading.Thread(target=lambda: models.setdefault(name, fit()), daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert name in models, f"{name} growth did not end"
        assert root_split(models[name]) == (0, threshold)
        assert models[name].predict_rows(matrix).tolist() == [0, 1]


def test_split_tie_prefers_lower_feature_index():
    # Both features separate the classes perfectly.
    dense = [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
    model = DecisionTreeModel.fit(
        matrix_from_dense(dense, [0, 1, 0, 1]), DecisionTreeParams(), 2
    )
    assert root_split(model)[0] == 0


def test_tree_overfits_training_data():
    rng = random.Random(5)
    dense = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(30)]
    labels = [0 if x + y < 1.0 else 1 for x, y in dense]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    model = DecisionTreeModel.fit(m, DecisionTreeParams(), 2)
    assert model.predict_rows(m).tolist() == labels


def test_zero_gain_splits_still_reach_purity():
    # XOR: no single split reduces impurity, yet the grown tree is exact.
    dense = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    labels = [0, 0, 1, 1]
    m = matrix_from_dense(dense, labels)
    model = DecisionTreeModel.fit(m, DecisionTreeParams(), 2)
    assert model.predict_rows(m).tolist() == labels


def test_depth_and_size_limits():
    dense = [[0.0], [1.0], [2.0], [3.0]]
    labels = [0, 1, 0, 1]
    deep = DecisionTreeModel.fit(matrix_from_dense(dense, labels), DecisionTreeParams(), 2)
    stump = DecisionTreeModel.fit(
        matrix_from_dense(dense, labels), DecisionTreeParams(max_depth=1), 2
    )
    assert stump.nodes.left[0] == 1 and stump.nodes.right[0] == 2
    assert is_leaf(stump, 1) and is_leaf(stump, 2) and stump.nodes.feature.size == 3
    assert not (is_leaf(deep, deep.nodes.left[0]) and is_leaf(deep, deep.nodes.right[0]))
    frozen = DecisionTreeModel.fit(
        matrix_from_dense(dense, labels), DecisionTreeParams(min_samples_split=5), 2
    )
    assert is_leaf(frozen, 0) and frozen.nodes.feature.size == 1


def test_leaf_scores_are_class_frequencies():
    dense = [[0.0], [0.0], [0.0], [5.0]]
    labels = [0, 0, 1, 1]
    model = DecisionTreeModel.fit(
        matrix_from_dense(dense, labels), DecisionTreeParams(max_depth=1), 2
    )
    scores = model.predict_scores(queries([0.0], [7.0]))
    assert scores.tolist() == [[2 / 3, 1 / 3], [0.0, 1.0]]


def test_tree_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]
    labels = [0, 1, 0, 1]
    model = DecisionTreeModel.fit(matrix_from_dense(dense, labels), DecisionTreeParams(), 2)
    restored = DecisionTreeModel.from_payload(
        model.payload(), model.params, label_count=2, feature_dimension=2
    )
    m = matrix_from_dense(dense, labels)
    assert np.array_equal(restored.predict_scores(m), model.predict_scores(m))
    nodes = Nodes.from_payload([model.payload()], label_count=2, feature_dimension=2)
    assert all(map(np.array_equal, nodes, model.nodes))
    assert nodes.payload() == [model.payload()["root"]]


def test_single_tree_forest_matches_plain_tree():
    rng = random.Random(23)
    dense = [[rng.uniform(0, 3) for _ in range(4)] for _ in range(25)]
    labels = [rng.randrange(3) for _ in range(25)]
    labels[0], labels[1], labels[2] = 0, 1, 2
    m = matrix_from_dense(dense, labels)
    tree = DecisionTreeModel.fit(m, DecisionTreeParams(), 3)
    forest = RandomForestModel.fit(
        m,
        RandomForestParams(n_trees=1, bootstrap=False, features_per_split=4),
        3,
    )
    assert forest.payload() == {"trees": [tree.payload()]}
    assert all(map(np.array_equal, forest.nodes, tree.nodes))
    assert np.array_equal(forest.predict_rows(m), tree.predict_rows(m))


def test_forest_votes_sum_to_tree_count():
    dense = [[0.0], [1.0], [2.0], [3.0]]
    labels = [0, 0, 1, 1]
    forest = RandomForestModel.fit(
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
    a = RandomForestModel.fit(m, RandomForestParams(n_trees=5, seed=42), 2)
    b = RandomForestModel.fit(m, RandomForestParams(n_trees=5, seed=42), 2)
    c = RandomForestModel.fit(m, RandomForestParams(n_trees=5, seed=43), 2)
    assert a.payload() == b.payload()
    assert a.payload() != c.payload()


def test_forest_default_feature_subsampling():
    rng = random.Random(37)
    dense = [[rng.uniform(0, 2) for _ in range(9)] for _ in range(20)]
    labels = [rng.randrange(2) for _ in range(20)]
    labels[0], labels[1] = 0, 1
    m = matrix_from_dense(dense, labels)
    # features_per_split=0 means floor(sqrt(9)) = 3 candidates per node.
    forest = RandomForestModel.fit(
        m, RandomForestParams(n_trees=3, features_per_split=0, seed=1), 2
    )
    preds = forest.predict_rows(m)
    assert all(p in (0, 1) for p in preds)


def test_forest_payload_round_trip():
    dense = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]
    labels = [0, 1, 0, 1]
    m = matrix_from_dense(dense, labels)
    forest = RandomForestModel.fit(m, RandomForestParams(n_trees=3, seed=9), 2)
    restored = RandomForestModel.from_payload(
        forest.payload(), forest.params, label_count=2, feature_dimension=2
    )
    assert np.array_equal(restored.predict_scores(m), forest.predict_scores(m))


def reference_best_split(dense, labels, row_ids, feature_ids, label_count):
    """The per-feature split search of one node that `tree._best_splits`
    replaced, verbatim but for its threshold, `reference_threshold`."""
    n = row_ids.size
    best = None
    node_labels = labels[row_ids]
    for feature in feature_ids:
        col = dense[row_ids, feature]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        boundaries = np.nonzero(sorted_col[:-1] < sorted_col[1:])[0]
        if boundaries.size == 0:
            continue
        one_hot = np.zeros((n, label_count), dtype=np.float64)
        one_hot[np.arange(n), node_labels[order]] = 1.0
        prefix = one_hot.cumsum(axis=0)
        left = prefix[boundaries]
        right = prefix[-1] - left
        n_left = left.sum(axis=1)
        n_right = n - n_left
        gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        at = int(np.argmin(weighted))
        threshold = reference_threshold(sorted_col[boundaries[at]],
                                        sorted_col[boundaries[at] + 1])
        candidate = (float(weighted[at]), int(feature), threshold)
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None:
        return None
    return best[1], best[2]


def permuted_tie_matrix(rng, dim, label_count):
    """Ten rows per class; each 0/1 column sends to the left a permutation of
    one class-count vector, so every split of all the rows ties before
    rounding and only the order of the Gini sums picks the winner."""
    labels = np.repeat(np.arange(label_count), 10)
    rank = np.tile(np.arange(10), label_count)
    counts = rng.integers(1, 10, label_count)
    left = np.array([rng.permutation(counts) for _ in range(dim)])
    return (rank[:, None] >= left[:, labels].T).astype(np.float64), labels


def random_batch(rng):
    """Nodes of one random matrix, as one search step sees them: mixed sizes,
    repeated rows, repeated and negative values, -0.0, duplicated columns
    (ties across features and chunks), sometimes nothing that varies,
    sometimes only ties that rounding breaks.  Every node has the same
    number of candidate features."""
    n_total = int(rng.integers(2, 160))
    dim = int(rng.integers(1, 100))
    label_count = int(rng.integers(2, 9))
    style = int(rng.integers(5))
    if style == 4:
        dense, labels = permuted_tie_matrix(rng, dim, label_count)
        n_total = labels.size
    else:
        if style == 0:
            dense = rng.integers(-3, 4, (n_total, dim)).astype(np.float64)
        elif style == 1:
            dense = rng.integers(1, 4, (n_total, dim)) * (rng.random((n_total, dim)) < 0.1)
            dense = dense.astype(np.float64)
        elif style == 2:
            dense = np.round(rng.uniform(-1.0, 1.0, (n_total, dim)), 1)
            dense[dense == 0.0] = -0.0
        else:
            dense = np.full((n_total, dim), float(rng.integers(-2, 3)))
        labels = rng.integers(0, label_count, n_total)
    copies = rng.integers(0, dim, (dim // 3, 2))
    dense[:, copies[:, 0]] = dense[:, copies[:, 1]]
    width = int(rng.integers(1, dim + 1))
    rows = [rng.integers(0, n_total, int(rng.integers(2, n_total + 2)))
            for _ in range(int(rng.integers(1, 9)))]
    if style == 4:
        rows[0] = np.arange(n_total)  # all rows: only rounding breaks the ties
    candidates = np.array([np.sort(rng.choice(dim, width, replace=False)) for _ in rows])
    return dense, labels, label_count, rows, candidates


def test_split_search_matches_per_feature_reference(monkeypatch):
    rng = np.random.default_rng(11)
    found, chunked = 0, 0
    for case in range(150):
        dense, labels, label_count, rows, candidates = random_batch(rng)
        # Three batches in four under a smaller budget, so most span several chunks.
        budget = (1 << 16) if case % 4 == 0 else int(rng.integers(1, 1 << 10))
        monkeypatch.setattr(base, "_BLOCK_CELLS", budget)
        binned = tree_module._binned(dense, labels, label_count)
        counts = [np.bincount(labels[r], minlength=label_count).tolist() for r in rows]
        sizes = np.array([r.size for r in rows])
        features, thresholds = tree_module._best_splits(binned, np.concatenate(rows), sizes,
                                                        counts, candidates)
        for r, c, feature, threshold in zip(rows, candidates, features, thresholds):
            want = reference_best_split(dense, labels, r, c, label_count)
            assert (None if feature < 0 else (feature, threshold)) == want
            found += want is not None
        chunked += sum(map(len, rows)) * candidates.shape[1] > budget
    assert found >= 300 and chunked >= 90


def reference_grow(dense, labels, row_ids, label_count, params, feature_picker, records):
    """The per-node `_grow` that `tree._grow_trees` replaced, verbatim: one split
    search per node, in preorder, appending each node to `records`."""
    stack = [(row_ids, 0, -1)]  # (rows, depth, right_of)
    while stack:
        rows, depth, right_of = stack.pop()
        counts = np.bincount(labels[rows], minlength=label_count)
        split = None
        if (np.count_nonzero(counts) > 1 and rows.size >= params.min_samples_split
                and (params.max_depth is None or depth < params.max_depth)):
            split = reference_best_split(dense, labels, rows, feature_picker(), label_count)
        if split is None:
            records += (right_of, -1, 0.0, counts.tolist())
            continue
        index = len(records) // 4
        records += (right_of, *split, tree_module._SPLIT)
        goes_left = dense[rows, split[0]] <= split[1]
        stack += [(rows[~goes_left], depth + 1, index), (rows[goes_left], depth + 1, -1)]


def reference_payload(matrix, params, label_count):
    """The trees the per-node grower makes, one after another, each forest
    tree drawing its rows and candidates through the scalar SplitMix64 loops."""
    dense, labels, n, dim = matrix.to_dense(), matrix.row_labels, matrix.n_rows, matrix.dim
    records = []
    if isinstance(params, DecisionTreeParams):
        reference_grow(dense, labels, np.arange(n), label_count, params,
                       lambda: np.arange(dim), records)
        return tree_module._nodes(records, label_count, dim).payload()
    per_split = params.features_per_split or max(1, int(np.sqrt(dim)))
    for tree_index in range(params.n_trees):
        rng = ScalarSplitMix64(derive_seed(params.seed, tree_index))
        rows = np.arange(n)
        if params.bootstrap:
            rows = np.array([rng.next_below(n) for _ in range(n)])
        if per_split >= dim:
            picker = lambda: np.arange(dim)  # noqa: E731
        else:
            picker = lambda: np.sort(rng.sample_indices(dim, per_split))  # noqa: E731
        reference_grow(dense, labels, rows, label_count, params, picker, records)
    return tree_module._nodes(records, label_count, dim).payload()


def grown_payloads(matrix, seed):
    forest = RandomForestModel.fit(matrix, RandomForestParams(n_trees=4, seed=seed), 4)
    plain = DecisionTreeModel.fit(matrix, DecisionTreeParams(), 4)
    return plain.payload(), forest.payload()


def small_corpus_matrices(seed):
    corpus = generate_corpus(4, 30, noise_rate=0.6, seed=seed)
    split = stratified_split(corpus, SplitSpec(0.8, seed))
    train_docs = side_documents(corpus, split.train_ids, "train")
    vocab, _, counts = fit_features(train_docs, corpus.labels, None)
    return {mode: feature_matrix(counts, vocab, None, mode) for mode in FEATURE_MODES}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grown_trees_match_per_feature_reference(seed):
    settings = [
        DecisionTreeParams(),
        DecisionTreeParams(max_depth=3),
        DecisionTreeParams(min_samples_split=6),
        RandomForestParams(n_trees=4, seed=seed),
        RandomForestParams(n_trees=3, max_depth=4, seed=seed),
        RandomForestParams(n_trees=3, min_samples_split=5, seed=seed),
        RandomForestParams(n_trees=3, bootstrap=False, seed=seed),
        RandomForestParams(n_trees=2, features_per_split=10_000, seed=seed),
    ]
    for mode, matrix in small_corpus_matrices(seed).items():
        for params in settings:
            model_class = (DecisionTreeModel if isinstance(params, DecisionTreeParams)
                           else RandomForestModel)
            got = model_class.fit(matrix, params, 4).nodes.payload()
            assert got == reference_payload(matrix, params, 4), (mode, params)


def test_forest_grown_together_equals_trees_grown_one_at_a_time():
    matrix = small_corpus_matrices(5)["tfidf"]
    params = RandomForestParams(n_trees=6, seed=5)
    together = RandomForestModel.fit(matrix, params, 4).nodes.payload()
    trees = tree_module._forest_trees(params, matrix.n_rows, matrix.dim)
    alone = [tree_module._grow_trees(matrix, 4, params, [tree]).payload()[0] for tree in trees]
    assert together == alone


def test_blocked_split_search_equals_single_block(monkeypatch):
    matrix = small_corpus_matrices(4)["tfidf"]
    assert matrix.n_rows * 4 * matrix.dim <= base._BLOCK_CELLS
    whole = grown_payloads(matrix, 4)
    # 40 cells: one node per growth step and a few candidates per chunk at
    # the root; 1 cell: one node per step and one candidate per chunk.
    for budget in (40, 1):
        monkeypatch.setattr(base, "_BLOCK_CELLS", budget)
        assert grown_payloads(matrix, 4) == whole


def random_payload_tree(rng, dim, label_count, depth=0):
    """A random nested payload tree whose thresholds lie on the half-step
    grid the query rows are drawn from, so rows often equal a threshold."""
    if depth == 6 or rng.random() < 0.25:
        counts = rng.integers(0, 4, label_count)
        counts[rng.integers(label_count)] += 1
        return {"counts": counts.tolist()}
    return {
        "feature": int(rng.integers(dim)),
        "threshold": float(rng.integers(-2, 3)) / 2,
        "left": random_payload_tree(rng, dim, label_count, depth + 1),
        "right": random_payload_tree(rng, dim, label_count, depth + 1),
    }


def reference_leaf_counts(node, row):
    """Counts of the leaf `row` reaches, walking the nested payload."""
    if "counts" in node:
        return np.asarray(node["counts"], dtype=np.float64)
    child = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return reference_leaf_counts(child, row)


def test_flat_walk_matches_recursive_payload_walk(monkeypatch):
    rng = np.random.default_rng(41)
    on_threshold = 0
    for _ in range(60):
        dim, label_count = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        n_trees = int(rng.integers(1, 8))
        trees = [{"root": random_payload_tree(rng, dim, label_count)}
                 for _ in range(n_trees)]
        dense = rng.integers(-2, 3, (int(rng.integers(1, 40)), dim)) / 2
        matrix = matrix_from_dense(dense)
        # Most cases span several scoring blocks.
        monkeypatch.setattr(base, "_BLOCK_CELLS", int(rng.integers(1, 64)))
        votes = np.zeros((len(dense), label_count))
        for tree in trees:
            counts = [reference_leaf_counts(tree["root"], row) for row in dense]
            plain = DecisionTreeModel.from_payload(tree, None, label_count, dim)
            want = np.array([c / c.sum() for c in counts])
            assert np.array_equal(plain.predict_scores(matrix), want)
            votes[np.arange(len(dense)), want.argmax(axis=1)] += 1
            assert plain.payload() == tree
        params = RandomForestParams(n_trees=n_trees)
        forest = RandomForestModel.from_payload(
            {"trees": trees}, params, label_count, dim
        )
        assert np.array_equal(forest.predict_scores(matrix), votes)
        assert forest.payload() == {"trees": trees}
        splits = forest.nodes.feature >= 0
        on_threshold += np.count_nonzero(
            dense[:, forest.nodes.feature[splits]] == forest.nodes.threshold[splits]
        )
    assert on_threshold >= 500


def reference_leaves(nodes, matrix):
    """The walk `_TreeModel._leaves` replaced: each step moves every (row,
    tree) pair still at a split one level down and drops the pairs that
    reached a leaf."""
    dense = matrix.to_dense().ravel()
    feature, threshold, left, right = nodes[:4]
    reached = np.tile(nodes.roots, (matrix.n_rows, 1))
    at = reached.reshape(-1)
    pending = np.flatnonzero(feature[at] >= 0)  # indices into `at`
    node = at[pending]
    row_start = pending // nodes.roots.size * matrix.dim  # in `dense`
    while pending.size:
        goes_left = dense.take(row_start + feature.take(node)) <= threshold.take(node)
        node = np.where(goes_left, left.take(node), right.take(node))
        at[pending] = node
        split = feature.take(node) >= 0
        pending, node, row_start = pending[split], node[split], row_start[split]
    return reached


def unbalanced_payload_tree(rng, dim, label_count, depth):
    """A random nested payload tree up to `depth` levels deep that grows
    mostly down one side, the side most rows of the half-step grid take."""
    if depth == 0 or rng.random() < 0.05:
        counts = rng.integers(0, 4, label_count)
        counts[rng.integers(label_count)] += 1
        return {"counts": counts.tolist()}
    deep = unbalanced_payload_tree(rng, dim, label_count, depth - 1)
    shallow = unbalanced_payload_tree(rng, dim, label_count, int(rng.integers(depth // 4 + 1)))
    threshold = float(rng.integers(1, 3)) / 2  # rows at or below it go left
    if rng.random() < 0.5:
        return {"feature": int(rng.integers(dim)), "threshold": threshold,
                "left": deep, "right": shallow}
    return {"feature": int(rng.integers(dim)), "threshold": -threshold,
            "left": shallow, "right": deep}


@pytest.mark.parametrize("steps_per_drop", [1, 3, tree_module._STEPS_PER_DROP])
def test_walk_matches_the_replaced_walk_on_deep_unbalanced_forests(steps_per_drop, monkeypatch):
    monkeypatch.setattr(tree_module, "_STEPS_PER_DROP", steps_per_drop)
    rng = np.random.default_rng(47)
    on_threshold = 0
    for _ in range(12):
        dim, label_count = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        trees = [{"root": unbalanced_payload_tree(rng, dim, label_count, int(rng.integers(40)))}
                 for _ in range(int(rng.integers(1, 30)))]
        dense = rng.integers(-2, 3, (int(rng.integers(1, 80)), dim)) / 2
        matrix = matrix_from_dense(dense)
        forest = RandomForestModel.from_payload(
            {"trees": trees}, RandomForestParams(n_trees=len(trees)), label_count, dim)
        want = reference_leaves(forest.nodes, matrix)
        assert np.array_equal(forest._leaves(matrix), want)
        for tree, reached in zip(trees, want.T):
            counts = [reference_leaf_counts(tree["root"], row) for row in dense]
            assert np.array_equal(forest.nodes.counts[reached], counts)
        # Blocks of one to a few rows.
        monkeypatch.setattr(base, "_BLOCK_CELLS", int(rng.integers(1, 200)))
        votes = np.zeros((len(dense), label_count))
        np.add.at(votes, (np.arange(len(dense))[:, None], forest.nodes.counts[want].argmax(axis=2)), 1)
        assert np.array_equal(forest.predict_scores(matrix), votes)
        splits = forest.nodes.feature >= 0
        on_threshold += np.count_nonzero(
            dense[:, forest.nodes.feature[splits]] == forest.nodes.threshold[splits])
    assert on_threshold >= 1000


def test_nodes_are_flat_preorder_arrays():
    rng = random.Random(43)
    dense = [[rng.uniform(0, 2) for _ in range(5)] for _ in range(40)]
    labels = [rng.randrange(3) for _ in range(40)]
    forest = RandomForestModel.fit(
        matrix_from_dense(dense, labels), RandomForestParams(n_trees=6, seed=2), 3
    )
    nodes = forest.nodes
    size = nodes.feature.size
    split = nodes.feature >= 0
    index = np.arange(size)
    assert nodes.roots[0] == 0 and nodes.roots.size == 6
    assert np.all(np.diff(nodes.roots) > 0)
    assert np.array_equal(nodes.left[split], index[split] + 1)
    assert np.all(nodes.right[split] > nodes.left[split])
    assert np.all(nodes.left[~split] == -1) and np.all(nodes.right[~split] == -1)
    assert np.all(nodes.counts[split] == 0) and np.all(nodes.counts[~split].sum(axis=1) > 0)
    # every node but the roots is exactly one split's child
    children = np.concatenate([nodes.left[split], nodes.right[split]])
    assert sorted(children.tolist() + nodes.roots.tolist()) == index.tolist()
    # each tree's nodes follow its root and hold its rows' classes
    ends = np.append(nodes.roots[1:], size)
    for root, end, tree in zip(nodes.roots, ends, forest.payload()["trees"]):
        inside = split[root:end]
        kids = np.concatenate([nodes.left[root:end][inside], nodes.right[root:end][inside]])
        assert np.all((kids > root) & (kids < end))
        single = DecisionTreeModel.from_payload(tree, None, 3, 5)
        assert np.array_equal(single.nodes.feature, nodes.feature[root:end])
        assert np.array_equal(single.nodes.right[inside], nodes.right[root:end][inside] - root)


def test_deep_payload_loads_walks_and_saves_without_recursion():
    depth = 20_000
    leaf = {"counts": [0, 1]}
    root = leaf
    for level in range(depth):  # a chain: every split's left child is a leaf
        root = {"feature": 0, "threshold": float(level), "left": {"counts": [1, 0]},
                "right": root}
    model = DecisionTreeModel.from_payload({"root": root}, None, 2, 1)
    assert model.nodes.feature.size == 2 * depth + 1
    scores = model.predict_scores(queries([-1.0], [depth / 2], [depth + 1.0]))
    assert scores.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    saved = model.payload()["root"]
    for _ in range(depth):
        assert saved["left"] == {"counts": [1, 0]}
        saved = saved["right"]
    assert saved == leaf


@pytest.mark.parametrize(
    "defect, message",
    [
        (dict(feature=10**30), "tree split feature 1000000000000000000000000000000 outside"),
        (dict(feature=-(10**30)), "tree split feature"),
        (dict(left={"counts": [10**30, 1]}), r"tree leaf counts \[10+, 1\]"),
        (dict(left={"counts": [2**63, 1]}), "tree leaf counts"),
        (dict(left={"counts": None}), "tree leaf counts None"),
        (dict(feature=-1), r"tree split feature -1 outside \[0, 1\)"),
        (dict(left={"counts": [[1], [2]]}), "tree leaf counts"),
        (dict(left={"counts": [1, "2"]}), "tree leaf counts"),
        (dict(left={"counts": [True, 1]}), r"tree leaf counts \[True, 1\]"),
        (dict(left={"counts": [True, False]}), r"tree leaf counts \[True, False\]"),
        (dict(left={"counts": [1]}, threshold=float("inf")), "threshold inf"),
        (dict(left={"counts": [1]}, right=dict(feature=5, threshold=0.5, left={"counts": [1]},
                                                right={"counts": [1]})),
         r"tree leaf counts \[1\]"),
        (dict(right=dict(feature=5, threshold=0.5, left={"counts": [1]},
                         right={"counts": [1]})),
         r"tree split feature 5 outside \[0, 1\)"),
        (dict(threshold=float("nan"), right={"counts": [1]}), "threshold nan"),
        (dict(feature=True), "tree split feature True and threshold 0.5 must be"),
        (dict(right=dict(feature=0, threshold="0.5", left={"counts": [1, 0]},
                         right={"counts": [0, 1]})),
         "tree split feature 0 and threshold '0.5' must be"),
        (dict(left={"counts": [1]}, right=dict(feature=0.0, threshold=0.5,
                                                left={"counts": [1]}, right={"counts": [1]})),
         r"tree leaf counts \[1\]"),
    ],
)
def test_first_defect_in_preorder_is_named(defect, message):
    root = {"feature": 0, "threshold": 0.5, "left": {"counts": [1, 0]},
            "right": {"counts": [0, 1]}, **defect}
    with pytest.raises(DataError, match=message):
        DecisionTreeModel.from_payload({"root": root}, None, 2, 1)
