"""CART-style decision trees and the random forest built on top of them.

Trees use binary splits `value <= threshold` with the Gini criterion and
grow until leaves are pure, a depth or size limit applies, or no candidate
feature varies within the node.  Among equally good splits the lowest
feature index and then the lowest threshold wins, which makes growth fully
deterministic and lets a one-tree forest reproduce a plain tree exactly.

Trees are flat node arrays, and every row walks every tree of a model at
once.  For the walk a leaf reads column 0 and points to itself from both
child slots, so each step is one gather, one compare and one child lookup
for every pending (row, tree) pair, and a pair that reached a leaf stays
there until the pairs at leaves are dropped, every few steps.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..errors import DataError
from ..prng import SplitMix64, derive_seed
from ..vectorize import FeatureMatrix
from . import base
from .base import Model, ModelKind
from .params import DecisionTreeParams, RandomForestParams


_SPLIT = object()  # the counts field of a split's record

# Walk steps between drops of the (row, tree) pairs that reached a leaf.  A
# drop costs about as much as a step, and forests on sparse text features
# reach their leaves anywhere from 1 to about 50 levels down, so few pairs
# finish at any one level.
_STEPS_PER_DROP = 4


def _integer_rows(entries: list, label_count: int) -> np.ndarray | None:
    """`entries` as one (len(entries), label_count) int64 array, or None
    unless each entry is a list of label_count integers.  The types are
    read, not converted, so a JSON true or false is refused, not read as 1 or 0."""
    try:
        flat = list(chain.from_iterable(entries))
    except TypeError:  # an entry that is no list
        return None
    if set(map(type, flat)) - {int} or set(map(len, entries)) - {label_count}:
        return None
    try:
        return np.fromiter(flat, np.int64, len(flat)).reshape(len(entries), label_count)
    except OverflowError:
        return None


class Nodes(NamedTuple):
    """Trees as flat node arrays numbered in preorder: a split's left child
    is the node after it, and a forest's trees follow one another."""

    feature: np.ndarray  # split feature; -1 at a leaf
    threshold: np.ndarray  # `value <= threshold` goes left; 0.0 at a leaf
    left: np.ndarray  # -1 at a leaf
    right: np.ndarray  # -1 at a leaf
    counts: np.ndarray  # (nodes, classes) training class counts; zero at a split
    roots: np.ndarray  # one per tree

    @classmethod
    def from_payload(cls, trees, label_count: int, feature_dimension: int) -> "Nodes":
        """The trees of JSON entries `{"root": node}`, where a node is a leaf
        `{"counts"}` or a split `{"feature", "threshold", "left", "right"}`
        with an integer feature and a number threshold."""
        records = []
        for tree in trees:
            stack = [(tree["root"], -1)]  # (node, right_of)
            while stack:
                node, right_of = stack.pop()
                if "counts" in node:
                    records += (right_of, -1, 0.0, node["counts"])
                    continue
                stack += [(node["right"], len(records) // 4), (node["left"], -1)]
                feature, threshold = node["feature"], node["threshold"]
                if type(feature) is not int or type(threshold) not in (int, float):
                    if records:  # a defect earlier in preorder is named first
                        _nodes(records, label_count, feature_dimension)
                    raise DataError(f"tree split feature {feature!r} and threshold "
                                    f"{threshold!r} must be an integer and a number")
                records += (right_of, feature, float(threshold), _SPLIT)
        return _nodes(records, label_count, feature_dimension)

    def payload(self) -> list[dict]:
        """Each tree's nested JSON root (the inverse of `from_payload`)."""
        feature, threshold, left, right, counts = (array.tolist() for array in self[:5])
        built = [None] * len(feature)
        for i in reversed(range(len(feature))):  # children come after their parent
            built[i] = {"counts": counts[i]} if feature[i] < 0 else {
                "feature": feature[i], "threshold": threshold[i],
                "left": built[left[i]], "right": built[right[i]]}
        return [built[root] for root in self.roots.tolist()]


def _nodes(records: list, label_count: int, feature_dimension: int) -> Nodes:
    """The node arrays of `records`, four fields per node in preorder: the
    split whose right child the node is (or -1), the split feature and
    threshold (-1 and 0.0 at a leaf), and a leaf's class counts (`_SPLIT` at
    a split).  A DataError names the first node training could not have made."""
    entries = records[3::4]
    split = np.array([entry is _SPLIT for entry in entries])
    feature = np.array(records[1::4])  # of objects if a value overflows int64
    threshold = np.array(records[2::4], dtype=np.float64)
    leaves = [entry for entry in entries if entry is not _SPLIT]
    leaf_counts = _integer_rows(leaves, label_count)
    if leaf_counts is None:  # find the leaves that are not lists of integers
        rows = [_integer_rows([entry], label_count) for entry in leaves]
        bad_leaf = [row is None or (row < 0).any() or row.sum() <= 0 for row in rows]
    else:
        bad_leaf = (leaf_counts < 0).any(axis=1) | (leaf_counts.sum(axis=1) <= 0)
    bad_feature = split & ((feature < 0) | (feature >= feature_dimension))
    bad = bad_feature | ~np.isfinite(threshold)
    bad[~split] = bad_leaf
    if bad.any():
        at = int(bad.argmax())
        if not split[at]:
            raise DataError(f"tree leaf counts {records[4 * at + 3]!r} must be {label_count} "
                            "non-negative integer counts with a positive sum")
        if bad_feature[at]:
            raise DataError(
                f"tree split feature {records[4 * at + 1]} outside [0, {feature_dimension})")
        raise DataError(f"tree split threshold {records[4 * at + 2]} is not finite")
    counts = np.zeros((split.size, label_count), dtype=np.int64)
    counts[~split] = leaf_counts
    del leaf_counts  # not held while the child arrays are made, at training's peak
    index, right_of = np.arange(split.size), np.array(records[0::4])
    right = np.full(split.size, -1)
    right[right_of[right_of >= 0]] = index[right_of >= 0]
    left_child = np.append(False, split[:-1])  # the node after a split
    return Nodes(feature.astype(np.int64), threshold, np.where(split, index + 1, -1), right,
                 counts, index[(right_of < 0) & ~left_child])


def _best_split(
    dense: np.ndarray,
    labels: np.ndarray,
    row_ids: np.ndarray,
    feature_ids: np.ndarray,
    label_count: int,
) -> tuple[int, float] | None:
    """Minimum weighted child impurity over midpoint thresholds.

    Returns None when every candidate feature is constant on the node.
    Zero-gain splits are still returned; they keep growth moving toward
    purity and each one strictly shrinks both children.

    All candidate features are scanned together, in blocks whose
    (rows x classes x features) temporaries fit in `_BLOCK_CELLS`.  Child
    class counts are exact integers and the Gini terms are summed over the
    contiguous class axis, so every score equals the one a per-feature scan
    computes, and the feature-major `argmin` keeps its tie-break: lowest
    feature, then lowest threshold.
    """
    n = row_ids.size
    node_labels = labels[row_ids]
    node_counts = np.bincount(node_labels, minlength=label_count)
    step = max(1, base._BLOCK_CELLS // (n * label_count))
    best: tuple[float, int, float] | None = None
    for start in range(0, feature_ids.size, step):
        block = feature_ids[start:start + step]
        values = dense[row_ids[None, :], block[:, None]]  # (features, rows)
        varies = (values != values[:, :1]).any(axis=1)
        if not varies.any():
            continue
        block, values = block[varies], values[varies]
        order = values.argsort(axis=1, kind="stable")
        sorted_values = np.sort(values, axis=1)
        rises = sorted_values[:, :-1] < sorted_values[:, 1:]
        # Number the runs of equal values through the whole block, feature
        # after feature, and count the classes of each run.
        run_starts = np.ones(values.shape, dtype=bool)
        run_starts[:, 1:] = rises
        run_ids = run_starts.ravel().cumsum() - 1
        run_counts = np.bincount(
            run_ids * label_count + node_labels[order].ravel(),
            minlength=(run_ids[-1] + 1) * label_count,
        ).reshape(-1, label_count)
        # A threshold follows each rise.  The runs up to it hold its left
        # child plus all rows of each earlier feature in the block.
        feature_at, position = rises.nonzero()
        ends = run_ids.reshape(values.shape)[feature_at, position]
        left = (
            run_counts.cumsum(axis=0)[ends] - feature_at[:, None] * node_counts
        ).astype(np.float64)
        right = node_counts - left
        n_left = position + 1.0
        n_right = n - n_left
        gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        at = int(weighted.argmin())
        if best is None or weighted[at] < best[0]:
            feature, pos = feature_at[at], position[at]
            threshold = (sorted_values[feature, pos] + sorted_values[feature, pos + 1]) / 2.0
            best = (float(weighted[at]), int(block[feature]), float(threshold))
    if best is None:
        return None
    return best[1], best[2]


def _grow(dense: np.ndarray, labels: np.ndarray, row_ids: np.ndarray, label_count: int,
          params, feature_picker, records: list) -> None:
    """Append to `records` (see `_nodes`) the tree grown on the rows
    `row_ids`.  Nodes are split in preorder, a node before its left subtree
    before its right, which is the order `feature_picker` is asked for
    candidate features."""
    stack = [(row_ids, 0, -1)]  # (rows, depth, right_of)
    while stack:
        rows, depth, right_of = stack.pop()
        counts = np.bincount(labels[rows], minlength=label_count)
        split = None
        if (np.count_nonzero(counts) > 1 and rows.size >= params.min_samples_split
                and (params.max_depth is None or depth < params.max_depth)):
            split = _best_split(dense, labels, rows, feature_picker(), label_count)
        if split is None:
            records += (right_of, -1, 0.0, counts.tolist())
            continue
        index = len(records) // 4
        records += (right_of, *split, _SPLIT)
        goes_left = dense[rows, split[0]] <= split[1]
        stack += [(rows[~goes_left], depth + 1, index), (rows[goes_left], depth + 1, -1)]


def _feature_samples(rng: SplitMix64, dim: int, per_split: int):
    """Each node's sorted candidate features: successive
    `rng.sample_indices(dim, per_split)` draws, made 64 nodes at a time.
    Drawing ahead only moves the tree's own stream past the tree's last use."""
    while True:
        yield from np.sort(rng.sample_index_sets(dim, per_split, 64), axis=1)


class _TreeModel(Model):
    """Trees held as `Nodes`; all rows walk all trees together."""

    def __init__(self, nodes: Nodes, params, label_count: int, feature_dimension: int):
        self.nodes = nodes
        self.params = params
        self.label_count = label_count
        self.feature_dimension = feature_dimension

    @cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray]:
        """The walk's split features and its child table
        `child[2 * node + goes_left]`, in which a leaf reads column 0 and
        sends a row either way back to itself.  Made at the first prediction,
        so that they do not add to the memory of training."""
        nodes = self.nodes
        leaf = nodes.feature < 0
        index = np.arange(leaf.size)
        child = np.stack([np.where(leaf, index, nodes.right), np.where(leaf, index, nodes.left)],
                         axis=1)
        return np.maximum(nodes.feature, 0), child.ravel()

    def _block_width(self) -> int:
        # A scored row is one dense row plus one walk position per tree.
        return self.feature_dimension + self.nodes.roots.size

    def _leaves(self, matrix: FeatureMatrix) -> np.ndarray:
        """(rows, trees) leaf each row reaches in each tree.  Each step moves
        every pending (row, tree) pair one level down, or keeps it at its
        leaf; every `_STEPS_PER_DROP` steps the pairs at leaves are dropped."""
        dense = matrix.to_dense().ravel()
        (feature, child), threshold = self._walk, self.nodes.threshold
        reached = np.tile(self.nodes.roots, (matrix.n_rows, 1))
        at = reached.reshape(-1)
        pending = np.flatnonzero(self.nodes.feature.take(at) >= 0)  # indices into `at`
        node = at[pending]
        row_start = pending // self.nodes.roots.size * matrix.dim  # in `dense`
        while pending.size:
            for _ in range(_STEPS_PER_DROP):
                goes_left = dense.take(row_start + feature.take(node)) <= threshold.take(node)
                node = child.take(2 * node + goes_left)
            at[pending] = node
            split = self.nodes.feature.take(node) >= 0
            pending, node, row_start = pending[split], node[split], row_start[split]
        return reached


class DecisionTreeModel(_TreeModel):
    """Single CART tree; scores are the reached leaf's class frequencies."""

    kind = ModelKind.DECISION_TREE
    params_class = DecisionTreeParams
    display_name = "Decision Tree"

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: DecisionTreeParams,
            label_count: int) -> "DecisionTreeModel":
        all_features = np.arange(matrix.dim)
        records = []
        _grow(matrix.to_dense(), matrix.row_labels, np.arange(matrix.n_rows), label_count,
              params, lambda: all_features, records)
        nodes = _nodes(records, label_count, matrix.dim)
        return cls(nodes, params, label_count, matrix.dim)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        counts = self.nodes.counts[self._leaves(matrix)[:, 0]].astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def payload(self) -> dict:
        return {"root": self.nodes.payload()[0]}

    @classmethod
    def from_payload(cls, payload: dict, params, label_count: int,
                     feature_dimension: int) -> "DecisionTreeModel":
        nodes = Nodes.from_payload([payload], label_count, feature_dimension)
        return cls(nodes, params, label_count, feature_dimension)


class RandomForestModel(_TreeModel):
    """Bagged trees; scores are the per-class vote counts across trees."""

    kind = ModelKind.RANDOM_FOREST
    params_class = RandomForestParams
    display_name = "Random Forest"

    @classmethod
    def fit(cls, matrix: FeatureMatrix, params: RandomForestParams,
            label_count: int) -> "RandomForestModel":
        dense = matrix.to_dense()
        n, dim = dense.shape
        per_split = params.features_per_split or max(1, int(np.sqrt(dim)))
        all_features = np.arange(dim)
        records = []
        for tree_index in range(params.n_trees):
            rng = SplitMix64(derive_seed(params.seed, tree_index))
            if params.bootstrap:
                row_ids = rng.next_below_block(np.full(n, n)).astype(np.int64)
            else:
                row_ids = np.arange(n)
            if per_split >= dim:
                # Full ordered scan: identical candidate order to a plain tree,
                # which is what makes the one-tree forest match it exactly.
                picker = lambda: all_features
            else:
                picker = _feature_samples(rng, dim, per_split).__next__
            _grow(dense, matrix.row_labels, row_ids, label_count, params, picker, records)
        nodes = _nodes(records, label_count, dim)
        return cls(nodes, params, label_count, dim)

    @cached_property
    def _votes(self) -> np.ndarray:
        """Each leaf's vote: its most frequent class, the lowest on ties."""
        return self.nodes.counts.argmax(axis=1)

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        n, k = matrix.n_rows, self.label_count
        votes = self._votes[self._leaves(matrix)]
        cells = votes + k * np.arange(n)[:, None]
        return np.bincount(cells.ravel(), minlength=n * k).reshape(n, k).astype(np.float64)

    def payload(self) -> dict:
        return {"trees": [{"root": root} for root in self.nodes.payload()]}

    @classmethod
    def from_payload(cls, payload: dict, params: RandomForestParams,
                     label_count: int, feature_dimension: int) -> "RandomForestModel":
        entries = payload["trees"]
        if len(entries) != params.n_trees:
            raise DataError(
                f"random forest payload holds {len(entries)} trees, "
                f"expected n_trees = {params.n_trees}"
            )
        nodes = Nodes.from_payload(entries, label_count, feature_dimension)
        return cls(nodes, params, label_count, feature_dimension)
