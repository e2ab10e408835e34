"""Tests for exact stack distances, and validation of the working-set model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import LINE_SIZE, WorkingSetCache
from repro.mem.stack_distance import COLD, lru_hit_mask, miss_ratio_curve, stack_distances


def lines(*ids):
    return np.array(ids, dtype=np.int64) * LINE_SIZE


class TestStackDistances:
    def test_first_touch_is_cold(self):
        assert stack_distances(lines(1, 2, 3)).tolist() == [COLD] * 3

    def test_immediate_reuse_distance_zero(self):
        d = stack_distances(lines(1, 1))
        assert d[1] == 0

    def test_classic_example(self):
        # a b c b a : distances COLD COLD COLD 1 2
        d = stack_distances(lines(1, 2, 3, 2, 1))
        assert d.tolist() == [COLD, COLD, COLD, 1, 2]

    def test_repeated_access_does_not_grow_distance(self):
        # a b b b a : the b repeats count once.
        d = stack_distances(lines(1, 2, 2, 2, 1))
        assert d[-1] == 1

    def test_same_line_different_offsets(self):
        d = stack_distances(np.array([0, 8, 56], dtype=np.int64))
        assert d.tolist() == [COLD, 0, 0]

    def test_empty(self):
        assert stack_distances(np.empty(0, dtype=np.int64)).size == 0


def naive_lru_hits(addrs, capacity, line_size=LINE_SIZE):
    """Fully-associative LRU replayed on a plain list, most recent last."""
    stack: list[int] = []
    hits = []
    for addr in np.asarray(addrs, dtype=np.int64).tolist():
        line = addr // line_size
        hit = line in stack
        if hit:
            stack.remove(line)
        elif len(stack) == capacity:
            stack.pop(0)
        stack.append(line)
        hits.append(hit)
    return np.array(hits, dtype=bool)


class TestLruHitMask:
    """``lru_hit_mask`` against :func:`naive_lru_hits`, an LRU-list loop."""

    def test_lru_evicts_least_recent(self):
        # Two lines of capacity: the third distinct line evicts the
        # least recent.  a miss, b miss, a hit, c miss (evicts b),
        # b miss (evicts a), a miss.
        a, b, c = 0, LINE_SIZE, 2 * LINE_SIZE
        addrs = np.array([a, b, a, c, b, a], dtype=np.int64)
        expect = [False, False, True, False, False, False]
        assert lru_hit_mask(addrs, 2).tolist() == expect
        assert naive_lru_hits(addrs, 2).tolist() == expect

    def test_fully_associative_behaviour(self):
        addrs = lines(0, 1, 2, 3, 0)
        assert lru_hit_mask(addrs, 4).tolist() == [False] * 4 + [True]
        assert lru_hit_mask(addrs, 3).tolist() == [False] * 5

    def test_matches_fully_associative_simulator(self):
        rng = np.random.default_rng(3)
        addrs = (rng.zipf(1.4, size=3000) % 512).astype(np.int64) * LINE_SIZE
        for capacity in (16, 64, 256):
            expect = naive_lru_hits(addrs, capacity)
            got = lru_hit_mask(addrs, capacity)
            assert np.array_equal(expect, got)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            lru_hit_mask(lines(1), 0)

    @given(
        ids=st.lists(st.integers(0, 60), min_size=1, max_size=300),
        capacity=st.sampled_from([1, 4, 16, 64]),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_reference(self, ids, capacity):
        addrs = np.array(ids, dtype=np.int64) * LINE_SIZE
        assert np.array_equal(
            naive_lru_hits(addrs, capacity), lru_hit_mask(addrs, capacity)
        )


class TestMissRatioCurve:
    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(5)
        addrs = (rng.zipf(1.3, size=4000) % 1024).astype(np.int64) * LINE_SIZE
        curve = miss_ratio_curve(addrs, [8, 32, 128, 512])
        values = [curve[c] for c in (8, 32, 128, 512)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_huge_capacity_leaves_only_cold_misses(self):
        addrs = lines(1, 2, 3, 1, 2, 3)
        curve = miss_ratio_curve(addrs, [100])
        assert curve[100] == pytest.approx(0.5)  # 3 cold of 6


class TestWorkingSetModelValidation:
    """The WorkingSetCache approximation against exact LRU ground truth."""

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_zipf_miss_counts_close(self, alpha):
        rng = np.random.default_rng(11)
        addrs = (rng.zipf(alpha, size=6000) % 2048).astype(np.int64) * LINE_SIZE
        capacity = 128
        exact_misses = int(np.count_nonzero(~lru_hit_mask(addrs, capacity)))
        ws = WorkingSetCache(capacity * LINE_SIZE)
        ws_misses = int(np.count_nonzero(~ws.hit_mask(addrs)))
        assert ws_misses == pytest.approx(exact_misses, rel=0.30)

    def test_streaming_exact_match(self):
        # Pure streaming: both models agree exactly (cold misses only).
        addrs = np.arange(0, 4000 * LINE_SIZE, 8, dtype=np.int64)
        capacity = 64
        exact = lru_hit_mask(addrs, capacity)
        ws = WorkingSetCache(capacity * LINE_SIZE).hit_mask(addrs)
        assert np.array_equal(exact, ws)

    def test_hot_cold_mix_classification(self):
        """Hot lines classified as hits, cold stream as misses, both models."""
        rng = np.random.default_rng(13)
        hot = (rng.integers(0, 32, size=3000)).astype(np.int64) * LINE_SIZE
        cold = (np.arange(3000, dtype=np.int64) + 10_000) * LINE_SIZE
        # Interleave hot and cold.
        addrs = np.empty(6000, dtype=np.int64)
        addrs[0::2] = hot
        addrs[1::2] = cold
        capacity = 128
        exact = lru_hit_mask(addrs, capacity)
        ws = WorkingSetCache(capacity * LINE_SIZE).hit_mask(addrs)
        # Hot positions: both models give high hit rates.
        assert exact[0::2][10:].mean() > 0.9
        assert ws[0::2][10:].mean() > 0.9
        # Cold positions: both give ~0.
        assert exact[1::2].mean() < 0.05
        assert ws[1::2].mean() < 0.05
