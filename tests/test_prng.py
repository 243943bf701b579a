"""SplitMix64 generator tests, anchored to the published reference outputs."""

import random

import numpy as np
import pytest

from pashtext.prng import GOLDEN_GAMMA, SplitMix64, derive_seed, mix64
from scalar_prng import ScalarSplitMix64

# First three outputs of SplitMix64 from state 0, as published for the
# reference implementation.
REFERENCE_FROM_ZERO = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_reference_vector_from_seed_zero():
    rng = SplitMix64(0)
    outputs = tuple(rng.next_uint64() for _ in range(3))
    assert outputs == REFERENCE_FROM_ZERO


def test_mix64_is_a_bijection_probe():
    # Not a full bijectivity proof, just a collision sweep over a range
    # that would expose broken masking.
    seen = {mix64(i) for i in range(4096)}
    assert len(seen) == 4096
    assert all(0 <= v < 2**64 for v in seen)


def test_derive_seed_definition():
    for seed in (0, 1, 42, 2**63, 2**64 - 1):
        for stream in (0, 1, 7, 1000):
            expected = mix64((seed + (stream + 1) * GOLDEN_GAMMA) % 2**64)
            assert derive_seed(seed, stream) == expected


def test_derive_seed_rejects_negative_stream():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_derive_seed_streams_differ():
    seeds = [derive_seed(42, s) for s in range(200)]
    assert len(set(seeds)) == 200


def test_determinism_same_seed_same_sequence():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]


def test_next_below_bounds_and_rough_uniformity():
    rng = SplitMix64(7)
    counts = np.zeros(5, dtype=int)
    for _ in range(5000):
        value = rng.next_below(5)
        assert 0 <= value < 5
        counts[value] += 1
    # each bucket within 20% of the expected 1000
    assert counts.min() > 800 and counts.max() < 1200


def test_next_below_rejects_nonpositive_bound():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.next_below(0)


def test_next_float_range():
    rng = SplitMix64(3)
    values = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < float(np.mean(values)) < 0.6


def test_shuffle_is_a_permutation():
    for seed in range(10):
        items = list(range(40))
        SplitMix64(seed).shuffle(items)
        assert sorted(items) == list(range(40))


def test_shuffle_deterministic_and_seed_sensitive():
    a = list(range(30))
    b = list(range(30))
    c = list(range(30))
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    SplitMix64(6).shuffle(c)
    assert a == b
    assert a != c


def test_sample_indices_distinct_and_in_range():
    rng = SplitMix64(11)
    for _ in range(50):
        picked = rng.sample_index_sets(20, 7, 1)[0].tolist()
        assert len(picked) == 7
        assert len(set(picked)) == 7
        assert all(0 <= p < 20 for p in picked)


def test_sample_indices_full_population_is_permutation():
    picked = SplitMix64(2).sample_index_sets(10, 10, 1)[0].tolist()
    assert sorted(picked) == list(range(10))


def test_sample_indices_rejects_oversized_count():
    with pytest.raises(ValueError):
        SplitMix64(1).sample_index_sets(3, 4, 1)


# Draw outputs and end states pinned from the scalar implementation, so a
# change of draw order shows even where a test compares two new paths.


def test_pinned_bounded_draws():
    rng = SplitMix64(2024)
    bounds = (1, 2, 7, 100, 2**63 + 1, 2**64 - 1, 10**6)
    assert [rng.next_below(b) for b in bounds] == [
        0, 0, 3, 25, 2522659877027852951, 11000608607208515474, 587888,
    ]
    assert rng._state == 10372713005361030309


def test_pinned_shuffles():
    items = list(range(12))
    rng = SplitMix64(7)
    rng.shuffle(items)
    assert items == [10, 11, 5, 1, 7, 4, 8, 2, 9, 6, 0, 3]
    assert rng._state == 14727398570297873646
    items = list(range(1000))
    rng = SplitMix64(3)
    rng.shuffle(items)
    assert items[:10] == [738, 232, 493, 581, 172, 263, 83, 56, 917, 936]
    assert items[-5:] == [294, 838, 503, 687, 53]
    assert rng._state == 7673011025081939446


def test_pinned_samples():
    rng = SplitMix64(99)
    assert rng.sample_index_sets(50, 6, 1)[0].tolist() == [3, 18, 45, 29, 42, 9]
    assert rng._state == 13064056694810536161
    rng = SplitMix64(4)
    assert rng.sample_index_sets(224, 14, 1)[0].tolist() == [
        202, 16, 221, 100, 165, 108, 72, 156, 25, 18, 184, 143, 76, 0,
    ]
    assert rng.sample_index_sets(224, 14, 1)[0].tolist() == [
        201, 144, 89, 182, 222, 132, 30, 139, 66, 42, 200, 108, 157, 155,
    ]
    assert rng._state == 5625365687987180112


# Block draws against the scalar loops they replaced (tests/scalar_prng.py):
# equal outputs, item by item, and equal end states.


def draws_consumed(before: int, after: int) -> int:
    """Raw draws between two states of one stream (GOLDEN_GAMMA is odd)."""
    return (after - before) * pow(GOLDEN_GAMMA, -1, 2**64) % 2**64


@pytest.mark.parametrize("count", [0, 1, 2, 7, 640])
def test_uint64_block_equals_scalar_draws(count):
    for seed in (0, 5, 2**64 - 1):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        values = block.next_uint64_block(count)
        assert values.dtype == np.uint64
        assert values.tolist() == [scalar.next_uint64() for _ in range(count)]
        assert block._state == scalar._state


def check_bounded_block(seed, bounds):
    block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
    values = block.next_below_block(bounds)
    assert values.tolist() == [scalar.next_below(int(b)) for b in bounds]
    assert block._state == scalar._state
    return draws_consumed(seed, scalar._state)


def test_below_block_equals_scalar_draws():
    rng = random.Random(8)
    for seed in range(40):
        bounds = [rng.choice([1, 2, 3, 640, 2**32 + 1, 2**64 - 1]) for _ in range(50)]
        assert check_bounded_block(seed, bounds) >= 50
    assert check_bounded_block(3, []) == 0
    assert check_bounded_block(3, [1] * 9) == 9


def test_below_block_forced_rejections():
    # Above 2**63, about half of all raw draws fall in the rejected tail, so
    # the block falls back to the scalar path many times in one call.
    rng = random.Random(9)
    consumed = 0
    for seed in range(20):
        bounds = [2**63 + rng.randrange(1, 1000) for _ in range(30)]
        bounds[rng.randrange(30)] = rng.randrange(1, 50)
        consumed += check_bounded_block(seed, bounds)
    assert consumed > 1.5 * 20 * 30


def test_shuffle_equals_scalar_shuffle():
    for length in (0, 1, 2, 3, 17, 640):
        for seed in (1, 2, 3):
            block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
            ours, theirs = list(range(length)), list(range(length))
            block.shuffle(ours)
            scalar.shuffle(theirs)
            assert ours == theirs
            assert block._state == scalar._state


def test_sample_indices_equal_scalar_samples():
    # count = 0, count = 1 and count = population, population = 1 among them.
    for population, count in ((1, 0), (1, 1), (5, 0), (5, 1), (5, 5), (20, 7), (224, 14)):
        for seed in (1, 2, 3):
            block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
            for _ in range(3):
                assert block.sample_index_sets(population, count, 1)[0].tolist() == (
                    scalar.sample_indices(population, count)
                )
            assert block._state == scalar._state
            for sets in (1, 3, 64):
                block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
                drawn = block.sample_index_sets(population, count, sets)
                assert drawn.shape == (sets, count)
                assert drawn.tolist() == [
                    scalar.sample_indices(population, count) for _ in range(sets)
                ]
                assert block._state == scalar._state


def test_sample_index_sets_reject_oversized_count():
    with pytest.raises(ValueError):
        SplitMix64(1).sample_index_sets(3, 4, 2)
