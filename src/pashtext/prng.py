"""Deterministic pseudo-randomness for reproducible experiments.

Every random choice in this package (corpus splits, bootstrap resampling,
weight initialisation, per-epoch shuffles, corpus synthesis) is driven by
SplitMix64, a public-domain 64-bit generator with fixed, well-known
constants. Substreams are derived arithmetically from a root seed, so any
run is reproducible bit-for-bit across machines and even across independent
reimplementations of the same algorithm.

SplitMix64 reference behaviour: starting from state 0 the first outputs are
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F (checked in the
test suite).

Outputs are counter-based: the k-th after state s is mix64(s + k * GOLDEN_GAMMA),
so `next_uint64_block` computes n of them as one numpy uint64 expression.
Bounded block draws test the block against each bound's rejection threshold
and, at the first rejection, hand that bound to the scalar `next_below`, so
they give the values and end state of one `next_below` call per bound.
"""

from __future__ import annotations

import numpy as np

# The root seed of every command, generator and hyperparameter record given none.
DEFAULT_SEED = 42

_MASK64 = (1 << 64) - 1

# State increment ("golden gamma") and output-mixing multipliers of SplitMix64.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 output finaliser: avalanche a 64-bit value."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Derive the seed of an independent substream from a root seed.

    Defined as mix64(seed + (stream + 1) * GOLDEN_GAMMA), all mod 2**64.
    Distinct stream indices give decorrelated substreams; the mapping is
    part of the package's reproducibility contract.
    """
    if stream < 0:
        raise ValueError("stream index must be non-negative")
    return mix64((seed + (stream + 1) * GOLDEN_GAMMA) & _MASK64)


class SplitMix64:
    """Minimal SplitMix64 generator with unbiased bounded draws.

    Not a cryptographic RNG; used only for reproducible experiment
    randomness.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & _MASK64
        return mix64(self._state)

    def next_uint64_block(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array, in stream order."""
        z = np.arange(1, count + 1, dtype=np.uint64) * GOLDEN_GAMMA + np.uint64(self._state)
        self._state = (self._state + count * GOLDEN_GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * _MIX_MULT_1
        z = (z ^ (z >> 27)) * _MIX_MULT_2
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_uint64()
            if draw < threshold:
                return draw % bound

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_below_block(self, bounds) -> np.ndarray:
        """`next_below(b)` for each of `bounds` (in [1, 2**64)), in order, as uint64."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        out, done = np.empty_like(bounds), 0
        while done < bounds.size:
            start, rest = self._state, bounds[done:]
            draws = self.next_uint64_block(rest.size)
            # next_below's draw < 2**64 - 2**64 % b, where 2**64 % b == (2**64 - b) % b
            rejected = np.flatnonzero(draws > _MASK64 - (0 - rest) % rest)
            kept = int(rejected[0]) if rejected.size else rest.size
            out[done : done + kept] = draws[:kept] % rest[:kept]
            done += kept
            if done < bounds.size:  # redraw from the rejected draw on, one by one
                self._state = (start + kept * GOLDEN_GAMMA) & _MASK64
                out[done] = self.next_below(int(bounds[done]))
                done += 1
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the last index down."""
        n = len(items)
        picks = self.next_below_block(np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def sample_index_sets(self, population: int, count: int, sets: int) -> np.ndarray:
        """`sets` successive draws of `count` distinct indices from
        range(population), order randomised, as the rows of one (sets, count)
        int64 array: partial Fisher-Yates shuffles, which settle only the
        first `count` positions, of all sets run together, one swap per
        position."""
        if count > population:
            raise ValueError("cannot sample more indices than the population size")
        offsets = self.next_below_block(np.tile(population - np.arange(count), sets))
        offsets = offsets.astype(np.int64).reshape(sets, count)
        pool = np.tile(np.arange(population, dtype=np.int64), (sets, 1))
        each = np.arange(sets)
        for i in range(count):
            swapped = i + offsets[:, i]
            picked = pool[each, swapped]
            pool[each, swapped] = pool[:, i]
            pool[:, i] = picked
        return pool[:, :count].copy()
