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
from .base import Model, ModelKind
from .params import DecisionTreeParams, RandomForestParams


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
    """
    n = row_ids.size
    best: tuple[float, int, float] | None = None
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
        threshold = float((sorted_col[boundaries[at]] + sorted_col[boundaries[at] + 1]) / 2.0)
        candidate = (float(weighted[at]), int(feature), threshold)
        if best is None or candidate[0] < best[0]:
            best = candidate
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
        if len(counts) != label_count or min(counts) < 0 or sum(counts) <= 0:
            raise DataError(
                f"tree leaf counts {list(counts)} must be {label_count} "
                "non-negative counts with a positive sum"
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
        trees = [
            DecisionTreeModel.from_payload(entry, None, label_count, feature_dimension)
            for entry in payload["trees"]
        ]
        return cls(trees, params, label_count, feature_dimension)


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
            row_ids = np.array([rng.next_below(n) for _ in range(n)], dtype=np.int64)
        else:
            row_ids = np.arange(n)
        if per_split >= dim:
            # Full ordered scan: identical candidate order to a plain tree,
            # which is what makes the one-tree forest match it exactly.
            picker = lambda: all_features
        else:
            picker = lambda: np.sort(rng.sample_indices(dim, per_split))
        root = _grow(
            dense, labels, row_ids, 0, label_count,
            params.max_depth, params.min_samples_split, picker,
        )
        trees.append(DecisionTreeModel(root, None, label_count, dim))
    return RandomForestModel(trees, params, label_count, dim)
