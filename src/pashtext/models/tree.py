"""CART-style decision trees and the random forest built on top of them.

Trees use binary splits `value <= threshold` with the Gini criterion and
grow until leaves are pure, a depth or size limit applies, or no candidate
feature varies within the node.  Among equally good splits the lowest
feature index and then the lowest threshold wins, which makes growth fully
deterministic and lets a one-tree forest reproduce a plain tree exactly.

Growth first numbers each column's distinct values in rising order, so a
split search counts classes per value rank instead of sorting.  A forest's
trees grow together: on each step the unfinished trees, in order, each
take the next node of their own preorder that needs a search (as many as a
step's row budget holds), and one search serves all of those nodes, one
`bincount` of (node, candidate, value rank, class) keys per chunk.  The
bits do not move: each tree still asks its feature picker in its own
preorder, child class counts are exact integers, the Gini terms are the
per-feature scan's expressions, each node keeps its first minimum, and
rows are sent left by the same float compare with the same midpoint.

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
        with an integer feature and a float threshold.  Only this checks the
        nodes' keys and types: the load rule passes trees over."""
        records = []
        for tree in trees:
            stack = [(tree["root"], -1)]  # (node, right_of)
            if len(tree) != 1:
                raise DataError(f"tree entry {sorted(tree)} holds an unknown key")
            while stack:
                node, right_of = stack.pop()
                if "counts" in node:
                    if len(node) != 1:
                        raise DataError(f"tree leaf {sorted(node)} holds an unknown key")
                    records += (right_of, -1, 0.0, node["counts"])
                    continue
                stack += [(node["right"], len(records) // 4), (node["left"], -1)]
                feature, threshold = node["feature"], node["threshold"]
                if type(feature) is not int or type(threshold) is not float:
                    if records:  # a defect earlier in preorder is named first
                        _nodes(records, label_count, feature_dimension)
                    raise DataError(f"tree split feature {feature!r} and threshold "
                                    f"{threshold!r} must be an integer and a float")
                if len(node) != 4:
                    raise DataError(f"tree split {sorted(node)} holds an unknown key")
                records += (right_of, feature, threshold, _SPLIT)
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


class _Binned(NamedTuple):
    """Training rows by value rank: each column's distinct values are
    numbered in rising order, and each entry's rank is stored with its row's
    class folded in, `codes[f, row] = rank * label_count + label`."""

    codes: np.ndarray  # (dim, rows), in the smallest unsigned type that fits
    values: np.ndarray  # every column's distinct values, column after column
    starts: np.ndarray  # (dim + 1,) where each column's values start in `values`
    label_count: int

    def value_at(self, rows: np.ndarray, features: np.ndarray) -> np.ndarray:
        """The matrix entries at (rows, features)."""
        ranks = self.codes[features, rows] // self.label_count
        return self.values[self.starts[features] + ranks]


def _binned(matrix: FeatureMatrix, label_count: int) -> _Binned:
    """The matrix's rows by value rank, ranked a block of columns at a time."""
    n, dim, labels = matrix.n_rows, matrix.dim, matrix.row_labels
    codes = np.empty((dim, n), dtype=np.min_scalar_type(n * label_count))
    values, starts = [], np.zeros(dim + 1, dtype=np.int64)
    for columns, block in matrix.column_blocks(base._BLOCK_CELLS):
        distinct = []
        for feature, column in zip(range(columns.start, columns.stop), block.T):
            found, ranks = np.unique(column, return_inverse=True)
            codes[feature] = ranks * label_count + labels
            distinct.append(found)
        values.append(np.concatenate(distinct))  # one array per block, not per column
        starts[columns.start + 1:columns.stop + 1] = list(map(len, distinct))
    return _Binned(codes, np.concatenate(values), starts.cumsum(out=starts), label_count)


def _best_splits(binned: _Binned, rows: np.ndarray, sizes: np.ndarray, counts: list,
                 candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's split: the minimum weighted child impurity over the
    midpoint thresholds of its candidate features, for nodes whose rows
    follow one another in `rows`, `sizes[i]` of them for node i, whose
    class counts are `counts[i]` and whose sorted candidates are the row
    `candidates[i]`.

    Returns each node's feature, -1 where every candidate is constant on
    the node, and its threshold: the midpoint of the two values it lies
    between (each halved before adding where their sum overflows), or the
    lower value where the midpoint rounds onto the upper one, so that
    `value <= threshold` makes the partition that was scored.
    Zero-gain splits are still returned; they keep growth moving toward
    purity and each one strictly shrinks both children.

    Every (node, candidate) pair is searched at once, in chunks of nodes
    and blocks of candidates whose entries and class-count tables fit in
    about `_BLOCK_CELLS`: one `bincount` counts the classes at each value
    rank of each pair, a cumsum over the ranks a pair's rows hold gives each
    threshold's left counts (exact integers), and the Gini terms are summed
    over the contiguous class axis, so every score equals the one a
    per-feature scan computes.  Each node keeps its first minimum in
    candidate-then-threshold order (a strict `<` across blocks): lowest
    feature, then lowest threshold.
    """
    k, n_rows = binned.label_count, binned.codes.shape[1]
    candidates = np.asarray(candidates, dtype=np.int64)
    row_end = sizes.cumsum()
    node_counts = np.array(counts, dtype=np.int64)
    rank_counts = np.diff(binned.starts)
    score = np.full(sizes.size, np.inf)
    feature, low, high = np.full((3, sizes.size), -1)
    per_block = max(1, base._BLOCK_CELLS // int(sizes.max()))
    for first in range(0, candidates.shape[1], per_block):
        block = candidates[:, first:first + per_block]
        width = block.shape[1]
        block_ranks = rank_counts[block]
        cost = sizes * width + k * block_ranks.sum(axis=1)  # entries and table cells
        chunk = (cost.cumsum() - cost) // base._BLOCK_CELLS
        edges = np.flatnonzero(chunk[1:] != chunk[:-1]) + 1
        for a, b in zip(np.append(0, edges).tolist(), np.append(edges, sizes.size).tolist()):
            # Pair p is candidate p % width of node a + p // width; its
            # table rows are the ranks of its feature, from `cell[p]` on.
            pair_ranks = block_ranks[a:b].ravel()
            cell = pair_ranks.cumsum() - pair_ranks
            of_row = np.repeat(np.arange(b - a), sizes[a:b])
            index = (block[a:b] * n_rows)[of_row]  # (rows, candidates) into `codes`
            index += rows[row_end[a] - sizes[a]:row_end[b - 1], None]
            codes = binned.codes.ravel()[index]
            del index  # freed before `keys` is made, at the search's peak
            keys = (k * cell).reshape(b - a, -1)[of_row]
            keys += codes
            table = np.bincount(keys.ravel(), minlength=k * (cell[-1] + pair_ranks[-1]))
            table = table.reshape(-1, k)
            held = np.flatnonzero(table.any(axis=1))  # the ranks the pairs' rows hold
            pair = np.searchsorted(cell, held, side="right") - 1
            # A threshold lies between two successive held ranks of one pair.
            at = np.flatnonzero(pair[1:] == pair[:-1])
            if not at.size:
                continue
            pair_at = pair[at]
            node = a + pair_at // width
            totals = node_counts[a:b].repeat(width, axis=0)
            left = (table[held].cumsum(axis=0)[at] - (totals.cumsum(axis=0) - totals)[pair_at]
                    ).astype(np.float64)
            right = node_counts[node] - left
            size = sizes[node]
            n_left = left.sum(axis=1)
            n_right = size - n_left
            gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
            gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
            weighted = (n_left * gini_left + n_right * gini_right) / size
            # Each node's first minimum here, kept if it beats the last.
            firsts = np.flatnonzero(np.append(True, node[1:] != node[:-1]))
            lowest = np.minimum.reduceat(weighted, firsts)
            hits = np.flatnonzero(
                weighted == np.repeat(lowest, np.diff(np.append(firsts, node.size))))
            won = hits[np.append(True, node[hits[1:]] != node[hits[:-1]])]
            won = won[weighted[won] < score[node[won]]]
            score[node[won]] = weighted[won]
            feature[node[won]] = block[a:b].ravel()[pair_at[won]]
            low[node[won]] = held[at[won]] - cell[pair_at[won]]
            high[node[won]] = held[at[won] + 1] - cell[pair_at[won]]
    found = feature >= 0
    start = binned.starts[feature[found]]
    v_lo, v_hi = binned.values[start + low[found]], binned.values[start + high[found]]
    with np.errstate(over="ignore"):
        total = v_lo + v_hi
    # Halved first only where the sum overflows, so every other midpoint keeps its bits.
    midpoint = np.where(np.isfinite(total), total / 2.0, v_lo / 2.0 + v_hi / 2.0)
    threshold = np.zeros(sizes.size)
    threshold[found] = np.where(midpoint == v_hi, v_lo, midpoint)
    return feature, threshold


def _grow_trees(matrix: FeatureMatrix, label_count: int, params, trees: list) -> Nodes:
    """The trees grown together from `trees`, pairs of (row ids, feature
    picker), one after another in that order.

    Each tree splits its nodes in preorder, a node before its left subtree
    before its right, which is the order its `feature_picker` is asked for
    candidate features.  On each step the unfinished trees, in order, each
    take their next node that needs a split search, until those nodes' rows
    fill the step, and one `_best_splits` call serves them all; a tree's
    nodes do not depend on which other trees share its steps.  All
    trees' rows lie in one array, a node's rows in one slice of it, and a
    split reorders its slice to put its left child's rows first.
    """
    labels, k = matrix.row_labels, label_count
    binned = _binned(matrix, k)
    order = np.concatenate([rows for rows, _ in trees]).astype(np.min_scalar_type(matrix.n_rows))
    root_ends = np.cumsum([rows.size for rows, _ in trees]).tolist()
    stacks = [[(start, end, 0, -1, np.bincount(labels[order[start:end]], minlength=k).tolist())]
              for start, end in zip([0] + root_ends, root_ends)]
    records = [[] for _ in trees]  # each tree's, numbered from its root
    # A step takes trees' nodes, in tree order, until their rows times the
    # classes fill `_BLOCK_CELLS`, which bounds the step's temporaries.
    step_rows = max(1, base._BLOCK_CELLS // k)
    while True:
        batch, taken = [], 0
        for tree, stack in enumerate(stacks):
            while stack:
                start, end, depth, right_of, counts = node = stack.pop()
                if (max(counts) < end - start and end - start >= params.min_samples_split
                        and (params.max_depth is None or depth < params.max_depth)):
                    batch.append((tree, *node))
                    taken += end - start
                    break
                records[tree] += (right_of, -1, 0.0, counts)
            if taken >= step_rows:
                break
        if not batch:
            break
        tree_at, starts, ends, depths, right_ofs, counts = zip(*batch)
        starts = np.array(starts)
        sizes = np.array(ends) - starts
        slots = np.repeat(starts - (sizes.cumsum() - sizes), sizes) + np.arange(sizes.sum())
        features, thresholds = _best_splits(binned, order[slots], sizes, counts,
                                            [trees[tree][1]() for tree in tree_at])
        # Each split node's slice, its left child's rows first (a stable
        # partition), and the class counts of its children.
        split = features >= 0
        slots = slots[np.repeat(split, sizes)]
        rows, sizes = order[slots], sizes[split]
        goes_left = (binned.value_at(rows, np.repeat(features[split], sizes))
                     <= np.repeat(thresholds[split], sizes))
        side = np.repeat(np.arange(0, 2 * sizes.size, 2), sizes) + ~goes_left
        order[slots] = rows[side.argsort(kind="stable")]
        child_counts = np.bincount(side * k + labels[rows],
                                   minlength=2 * sizes.size * k).reshape(-1, k).tolist()
        children = iter(zip(np.bincount(side, minlength=2 * sizes.size)[0::2].tolist(),
                            child_counts[0::2], child_counts[1::2]))
        for tree, start, end, feature, threshold, node_counts, depth, right_of in zip(
                tree_at, starts.tolist(), ends, features.tolist(), thresholds.tolist(), counts,
                depths, right_ofs):
            if feature < 0:
                records[tree] += (right_of, -1, 0.0, node_counts)
                continue
            n_left, left_counts, right_counts = next(children)
            index = len(records[tree]) // 4
            records[tree] += (right_of, feature, threshold, _SPLIT)
            stacks[tree] += [(start + n_left, end, depth + 1, index, right_counts),
                             (start, start + n_left, depth + 1, -1, left_counts)]
    del binned, order
    flat = []
    for tree_records in records:
        offset = len(flat) // 4
        tree_records[0::4] = [r + offset if r >= 0 else -1 for r in tree_records[0::4]]
        flat += tree_records
        tree_records.clear()
    return _nodes(flat, k, matrix.dim)


def _feature_samples(rng: SplitMix64, dim: int, per_split: int):
    """Each node's sorted candidate features: successive
    `rng.sample_index_sets(dim, per_split, 1)` draws, made 64 nodes at a time.
    Drawing ahead only moves the tree's own stream past the tree's last use."""
    while True:
        # In the smallest type, as all of a forest's trees hold a block at once.
        yield from np.sort(rng.sample_index_sets(dim, per_split, 64), axis=1).astype(
            np.min_scalar_type(dim))


def _forest_trees(params: RandomForestParams, n: int, dim: int) -> list:
    """Each tree's (row ids, feature picker), from its own SplitMix64
    stream: first its bootstrap rows, then its nodes' candidate features."""
    per_split = params.features_per_split or max(1, int(np.sqrt(dim)))
    all_features = np.arange(dim)
    trees = []
    for tree_index in range(params.n_trees):
        rng = SplitMix64(derive_seed(params.seed, tree_index))
        if params.bootstrap:  # in the smallest type: all trees' rows wait to grow
            row_ids = rng.next_below_block(np.full(n, n)).astype(np.min_scalar_type(n))
        else:
            row_ids = np.arange(n)
        if per_split >= dim:
            # Full ordered scan: identical candidate order to a plain tree,
            # which is what makes the one-tree forest match it exactly.
            trees.append((row_ids, lambda: all_features))
        else:
            trees.append((row_ids, _feature_samples(rng, dim, per_split).__next__))
    return trees


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
        nodes = _grow_trees(matrix, label_count, params,
                            [(np.arange(matrix.n_rows), lambda: all_features)])
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
        nodes = _grow_trees(matrix, label_count, params,
                            _forest_trees(params, matrix.n_rows, matrix.dim))
        return cls(nodes, params, label_count, matrix.dim)

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
        if len(payload) != 1:
            raise DataError(f"random forest payload {sorted(payload)} holds an unknown key")
        if len(entries) != params.n_trees:
            raise DataError(
                f"random forest payload holds {len(entries)} trees, "
                f"expected n_trees = {params.n_trees}"
            )
        nodes = Nodes.from_payload(entries, label_count, feature_dimension)
        return cls(nodes, params, label_count, feature_dimension)
