"""CART-style decision trees and the random forest built on top of them.

Trees use binary splits `value <= threshold` with the Gini criterion and
grow until leaves are pure, a depth or size limit applies, or no candidate
feature varies within the node.  Among equally good splits the lowest
feature index and then the lowest threshold wins, which makes growth fully
deterministic and lets a one-tree forest reproduce a plain tree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..prng import SplitMix64, derive_seed
from ..vectorize import FeatureMatrix
from . import base
from .base import Model, ModelKind
from .params import DecisionTreeParams, RandomForestParams


@dataclass(frozen=True)
class TreeNode:
    """Internal split node or leaf; leaves keep the class counts they saw."""

    feature: int | None
    threshold: float | None
    left: "TreeNode | None"
    right: "TreeNode | None"
    class_counts: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_payload(self) -> dict:
        if self.is_leaf:
            return {"counts": list(self.class_counts)}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_payload(),
            "right": self.right.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TreeNode":
        if "counts" in payload:
            return cls(None, None, None, None, tuple(payload["counts"]))
        return cls(
            int(payload["feature"]),
            float(payload["threshold"]),
            cls.from_payload(payload["left"]),
            cls.from_payload(payload["right"]),
            (),
        )


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


def _grow(
    dense: np.ndarray,
    labels: np.ndarray,
    row_ids: np.ndarray,
    depth: int,
    label_count: int,
    max_depth: int | None,
    min_samples_split: int,
    feature_picker,
) -> TreeNode:
    counts = np.bincount(labels[row_ids], minlength=label_count)
    leaf = TreeNode(None, None, None, None, tuple(int(c) for c in counts))
    if (
        np.count_nonzero(counts) <= 1
        or row_ids.size < min_samples_split
        or (max_depth is not None and depth >= max_depth)
    ):
        return leaf
    split = _best_split(dense, labels, row_ids, feature_picker(), label_count)
    if split is None:
        return leaf
    feature, threshold = split
    goes_left = dense[row_ids, feature] <= threshold
    children = [
        _grow(dense, labels, row_ids[mask], depth + 1, label_count,
              max_depth, min_samples_split, feature_picker)
        for mask in (goes_left, ~goes_left)
    ]
    return TreeNode(feature, threshold, children[0], children[1], ())


def _route(node: TreeNode, dense: np.ndarray, row_ids: np.ndarray, out: np.ndarray):
    """Write each row's leaf class frequencies into `out`, partitioning the
    row ids at every split (`value <= threshold` goes left)."""
    if row_ids.size == 0:
        return
    if node.is_leaf:
        counts = np.asarray(node.class_counts, dtype=np.float64)
        out[row_ids] = counts / counts.sum()
        return
    goes_left = dense[row_ids, node.feature] <= node.threshold
    _route(node.left, dense, row_ids[goes_left], out)
    _route(node.right, dense, row_ids[~goes_left], out)


def _check_tree(node: TreeNode, label_count: int, feature_dimension: int) -> None:
    """Reject payload trees that could not have come from training."""
    if node.is_leaf:
        counts = node.class_counts
        total = sum(counts)  # an int only if every count is an int
        if (
            len(counts) != label_count
            or not isinstance(total, int)
            or min(counts) < 0
            or total <= 0
        ):
            raise DataError(
                f"tree leaf counts {list(counts)} must be {label_count} "
                "non-negative integer counts with a positive sum"
            )
        return
    if not 0 <= node.feature < feature_dimension:
        raise DataError(
            f"tree split feature {node.feature} outside [0, {feature_dimension})"
        )
    if not np.isfinite(node.threshold):
        raise DataError(f"tree split threshold {node.threshold} is not finite")
    _check_tree(node.left, label_count, feature_dimension)
    _check_tree(node.right, label_count, feature_dimension)


class DecisionTreeModel(Model):
    """Single CART tree; scores are the reached leaf's class frequencies."""

    kind = ModelKind.DECISION_TREE

    def __init__(self, root: TreeNode, params, label_count: int, feature_dimension: int):
        self.root = root
        self.params = params
        self.label_count = label_count
        self.feature_dimension = feature_dimension

    def _leaf_frequencies(self, dense: np.ndarray) -> np.ndarray:
        out = np.empty((dense.shape[0], self.label_count), dtype=np.float64)
        _route(self.root, dense, np.arange(dense.shape[0]), out)
        return out

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        return self._leaf_frequencies(matrix.to_dense())

    def payload(self) -> dict:
        return {"root": self.root.to_payload()}

    @classmethod
    def from_payload(cls, payload: dict, params, label_count: int,
                     feature_dimension: int) -> "DecisionTreeModel":
        root = TreeNode.from_payload(payload["root"])
        _check_tree(root, label_count, feature_dimension)
        return cls(root, params, label_count, feature_dimension)


def train_decision_tree(
    matrix: FeatureMatrix, params: DecisionTreeParams, label_count: int
) -> DecisionTreeModel:
    dense = matrix.to_dense()
    all_features = np.arange(matrix.dim)
    root = _grow(
        dense,
        matrix.row_labels,
        np.arange(matrix.n_rows),
        0,
        label_count,
        params.max_depth,
        params.min_samples_split,
        lambda: all_features,
    )
    return DecisionTreeModel(root, params, label_count, matrix.dim)


class RandomForestModel(Model):
    """Bagged trees; scores are the per-class vote counts across trees."""

    kind = ModelKind.RANDOM_FOREST

    def __init__(self, trees: list[DecisionTreeModel], params: RandomForestParams,
                 label_count: int, feature_dimension: int):
        self.trees = trees
        self.params = params
        self.label_count = label_count
        self.feature_dimension = feature_dimension

    def _scores(self, matrix: FeatureMatrix) -> np.ndarray:
        dense = matrix.to_dense()
        votes = np.zeros((matrix.n_rows, self.label_count), dtype=np.float64)
        rows = np.arange(matrix.n_rows)
        for tree in self.trees:
            votes[rows, np.argmax(tree._leaf_frequencies(dense), axis=1)] += 1.0
        return votes

    def payload(self) -> dict:
        return {"trees": [tree.payload() for tree in self.trees]}

    @classmethod
    def from_payload(cls, payload: dict, params: RandomForestParams,
                     label_count: int, feature_dimension: int) -> "RandomForestModel":
        entries = payload["trees"]
        if len(entries) != params.n_trees:
            raise DataError(
                f"random forest payload holds {len(entries)} trees, "
                f"expected n_trees = {params.n_trees}"
            )
        trees = [
            DecisionTreeModel.from_payload(entry, None, label_count, feature_dimension)
            for entry in entries
        ]
        return cls(trees, params, label_count, feature_dimension)


def _feature_samples(rng: SplitMix64, dim: int, per_split: int):
    """Each node's sorted candidate features: successive
    `rng.sample_indices(dim, per_split)` draws, made 64 nodes at a time.
    Drawing ahead only moves the tree's own stream past the tree's last use."""
    while True:
        yield from np.sort(rng.sample_index_sets(dim, per_split, 64), axis=1)


def train_random_forest(
    matrix: FeatureMatrix, params: RandomForestParams, label_count: int
) -> RandomForestModel:
    dense = matrix.to_dense()
    labels = matrix.row_labels
    n, dim = dense.shape
    per_split = params.features_per_split
    if per_split == 0:
        per_split = max(1, int(np.sqrt(dim)))
    all_features = np.arange(dim)
    trees = []
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
        root = _grow(
            dense, labels, row_ids, 0, label_count,
            params.max_depth, params.min_samples_split, picker,
        )
        trees.append(DecisionTreeModel(root, None, label_count, dim))
    return RandomForestModel(trees, params, label_count, dim)
