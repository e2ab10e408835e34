"""Unit and property tests for the LLC simulators.

The key property: the vectorised DirectMappedCache must agree exactly with a
naive per-access reference simulation, because the profiler's sample stream
is derived from its miss mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem import cache as cache_module
from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    DirectMappedCache,
    SetAssociativeCache,
    dense_span_fits,
    reuse_time_gaps,
)


def reference_reuse_gaps(addrs, line_shift=6):
    """The reuse fold as one stable argsort of the line numbers."""
    lines = np.asarray(addrs, dtype=np.int64) >> line_shift
    n = lines.size
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted = np.full(n, GAP_COLD, dtype=np.int64)
    gaps_sorted[1:][same] = order[1:][same] - order[:-1][same]
    gaps = np.empty(n, dtype=np.int64)
    gaps[order] = gaps_sorted
    return gaps


def reference_last_seen(addrs, line_shift=6):
    """``(base, table)``: the latest position per line via ``np.maximum.at``."""
    lines = np.asarray(addrs, dtype=np.int64) >> line_shift
    base = int(lines.min())
    table = np.full(int(lines.max()) - base + 1, -1, dtype=np.int64)
    np.maximum.at(table, lines - base, np.arange(lines.size, dtype=np.int64))
    return base, table


def reference_direct_mapped(addrs, size_bytes, line_size=LINE_SIZE):
    """Naive per-access direct-mapped simulation."""
    n_sets = size_bytes // line_size
    resident = {}
    hits = []
    for addr in addrs:
        line = int(addr) // line_size
        s = line % n_sets
        hits.append(resident.get(s) == line)
        resident[s] = line
    return np.array(hits, dtype=bool)


class TestDirectMappedCache:
    def test_repeat_access_hits(self):
        cache = DirectMappedCache(1024)
        hits = cache.access(np.array([0, 0, 0]))
        assert hits.tolist() == [False, True, True]

    def test_same_line_different_offsets_hit(self):
        cache = DirectMappedCache(1024)
        hits = cache.access(np.array([0, 8, 63]))
        assert hits.tolist() == [False, True, True]

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024)  # 16 sets
        a, b = 0, 16 * LINE_SIZE  # same set, different lines
        hits = cache.access(np.array([a, b, a]))
        assert hits.tolist() == [False, False, False]

    def test_distinct_sets_no_conflict(self):
        cache = DirectMappedCache(1024)
        hits = cache.access(np.array([0, LINE_SIZE, 0, LINE_SIZE]))
        assert hits.tolist() == [False, False, True, True]

    def test_state_persists_across_calls(self):
        cache = DirectMappedCache(1024)
        cache.access(np.array([0]))
        hits = cache.access(np.array([0]))
        assert hits.tolist() == [True]

    def test_reset_clears_state(self):
        cache = DirectMappedCache(1024)
        cache.access(np.array([0]))
        cache.reset()
        assert cache.access(np.array([0])).tolist() == [False]

    def test_empty_stream(self):
        cache = DirectMappedCache(1024)
        assert cache.access(np.empty(0, dtype=np.int64)).size == 0

    def test_sequential_scan_miss_rate(self):
        # An 8-byte-stride scan misses once per 64 B line.
        cache = DirectMappedCache(1 << 16)
        addrs = np.arange(0, 8 * 1024, 8, dtype=np.int64)
        hits = cache.access(addrs)
        n_lines = 8 * 1024 // LINE_SIZE
        assert int(np.count_nonzero(~hits)) == n_lines

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(1000)
        with pytest.raises(ConfigurationError):
            DirectMappedCache(1024, line_size=48)
        with pytest.raises(ConfigurationError):
            DirectMappedCache(3 * LINE_SIZE)

    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
        size_kb=st.sampled_from([1, 4, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, addrs, size_kb):
        arr = np.array(addrs, dtype=np.int64)
        cache = DirectMappedCache(size_kb * 1024)
        assert cache.access(arr).tolist() == reference_direct_mapped(
            arr, size_kb * 1024
        ).tolist()

    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_split_stream_equals_whole_stream(self, addrs):
        arr = np.array(addrs, dtype=np.int64)
        whole = DirectMappedCache(2048)
        split = DirectMappedCache(2048)
        expect = whole.access(arr)
        mid = len(arr) // 2
        got = np.concatenate([split.access(arr[:mid]), split.access(arr[mid:])])
        assert expect.tolist() == got.tolist()


class TestSetAssociativeCache:
    def test_lru_within_set(self):
        # 2-way, 1 set: the third distinct line evicts the least recent.
        cache = SetAssociativeCache(2 * LINE_SIZE, ways=2)
        a, b, c = 0, LINE_SIZE, 2 * LINE_SIZE
        hits = cache.access(np.array([a, b, a, c, b, a]))
        # a miss, b miss, a hit, c miss (evicts b), b miss (evicts a), a miss
        assert hits.tolist() == [False, False, True, False, False, False]

    def test_fully_associative_behaviour(self):
        cache = SetAssociativeCache(4 * LINE_SIZE, ways=4)
        addrs = np.array([0, LINE_SIZE, 2 * LINE_SIZE, 3 * LINE_SIZE, 0])
        assert cache.access(addrs).tolist() == [False] * 4 + [True]

    def test_one_way_equals_direct_mapped(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 13, size=500)
        dm = DirectMappedCache(2048)
        sa = SetAssociativeCache(2048, ways=1)
        assert dm.access(addrs).tolist() == sa.access(addrs).tolist()

    def test_higher_associativity_reduces_conflicts(self):
        # Two lines aliasing in a direct-mapped cache coexist in a 2-way one.
        size = 1024
        n_sets = size // LINE_SIZE
        a, b = 0, n_sets * LINE_SIZE
        stream = np.array([a, b] * 10)
        dm_misses = int(np.count_nonzero(~DirectMappedCache(size).access(stream)))
        sa_misses = int(
            np.count_nonzero(~SetAssociativeCache(size, ways=2).access(stream))
        )
        assert sa_misses < dm_misses

    def test_bad_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, ways=3)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, ways=0)

    def test_reset(self):
        cache = SetAssociativeCache(1024, ways=2)
        cache.access(np.array([0]))
        cache.reset()
        assert cache.access(np.array([0])).tolist() == [False]

    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
        ways=st.sampled_from([1, 2, 4]),
        size_kb=st.sampled_from([1, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_access_matches_reference(self, addrs, ways, size_kb):
        arr = np.array(addrs, dtype=np.int64)
        fast = SetAssociativeCache(size_kb * 1024, ways=ways)
        slow = SetAssociativeCache(size_kb * 1024, ways=ways)
        assert fast.access(arr).tolist() == slow.access_reference(arr).tolist()

    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=2, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_grouped_access_state_continuity(self, addrs):
        # Splitting the stream across calls must not change anything: the
        # grouped path has to carry each set's LRU list between calls
        # exactly like the reference loop does.
        arr = np.array(addrs, dtype=np.int64)
        fast = SetAssociativeCache(2048, ways=2)
        slow = SetAssociativeCache(2048, ways=2)
        mid = len(arr) // 2
        got = np.concatenate([fast.access(arr[:mid]), fast.access(arr[mid:])])
        expect = np.concatenate(
            [slow.access_reference(arr[:mid]), slow.access_reference(arr[mid:])]
        )
        assert got.tolist() == expect.tolist()

    def test_random_long_stream_parity(self):
        rng = np.random.default_rng(42)
        addrs = rng.integers(0, 1 << 16, size=5000)
        fast = SetAssociativeCache(4096, ways=4)
        slow = SetAssociativeCache(4096, ways=4)
        assert fast.access(addrs).tolist() == slow.access_reference(addrs).tolist()


class TestReuseGapKernel:
    """The packed-key reuse fold must be bit-identical to a stable argsort.

    The fold sorts unique ``(line - base) << bits | position`` keys with
    the default unstable sort; :func:`reference_reuse_gaps` is the
    stable-argsort fold it replaces, and :func:`reference_last_seen` the
    ``np.maximum.at`` table its ``last_seen`` state replaces.
    """

    def test_first_touches_are_cold(self):
        addrs = np.array([0, LINE_SIZE, 2 * LINE_SIZE], dtype=np.int64)
        assert reuse_time_gaps(addrs).tolist() == [GAP_COLD] * 3

    def test_repeat_gap_counts_accesses(self):
        # a . . a  ->  the second touch of `a` has gap 3.
        addrs = np.array([0, 64, 128, 0], dtype=np.int64) * LINE_SIZE
        gaps = reuse_time_gaps(addrs)
        assert gaps.tolist() == [GAP_COLD, GAP_COLD, GAP_COLD, 3]

    def test_empty_and_single_access(self):
        assert reuse_time_gaps(np.empty(0, dtype=np.int64)).size == 0
        gaps, state = reuse_time_gaps(
            np.empty(0, dtype=np.int64), last_seen=True
        )
        assert gaps.size == 0 and state is None
        single = reuse_time_gaps(np.array([4096], dtype=np.int64))
        assert single.tolist() == [GAP_COLD]
        gaps, (base, table) = reuse_time_gaps(
            np.array([4096], dtype=np.int64), last_seen=True
        )
        assert gaps.tolist() == [GAP_COLD]
        assert base == 4096 >> 6 and table.tolist() == [0]

    @given(
        addrs=st.lists(
            st.one_of(st.integers(0, 1 << 14), st.integers(0, 1 << 40)),
            min_size=0,
            max_size=400,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_argsort_fold(self, addrs):
        arr = np.array(addrs, dtype=np.int64)
        assert np.array_equal(reuse_time_gaps(arr), reference_reuse_gaps(arr))

    @given(
        pool=st.lists(
            st.integers(0, (1 << 63) - 1), min_size=1, max_size=40
        ),
        picks=st.lists(st.integers(0, 1 << 10), min_size=40, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_stream_falls_back_to_argsort(self, pool, picks):
        # The stream spans 57 line bits and needs at least 6 position
        # bits: the packed keys cannot fit an int64, so the argsort fold
        # must run — and agree with the reference.
        ends = [0, (1 << 63) - 1]
        arr = np.array(
            ends + [pool[i % len(pool)] for i in picks], dtype=np.int64
        )
        calls = []
        fallback = cache_module._argsort_fold
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                cache_module,
                "_argsort_fold",
                lambda lines: calls.append(lines.size) or fallback(lines),
            )
            gaps, state = reuse_time_gaps(arr, last_seen=True)
        assert calls == [arr.size]
        assert state is None
        assert np.array_equal(gaps, reference_reuse_gaps(arr))

    @given(
        addrs=st.lists(
            st.one_of(st.integers(0, 1 << 16), st.integers(0, 1 << 30)),
            min_size=1,
            max_size=300,
        ),
        line_shift=st.sampled_from([0, 3, 6]),
    )
    @settings(max_examples=80, deadline=None)
    def test_last_seen_table_matches_maximum_at(self, addrs, line_shift):
        arr = np.array(addrs, dtype=np.int64)
        gaps, state = reuse_time_gaps(arr, line_shift, last_seen=True)
        assert np.array_equal(gaps, reference_reuse_gaps(arr, line_shift))
        lines = arr >> line_shift
        span = int(lines.max()) - int(lines.min()) + 1
        if not dense_span_fits(span, arr.size):
            assert state is None
            return
        base, table = reference_last_seen(arr, line_shift)
        assert state[0] == base
        assert np.array_equal(state[1], table)

    def test_dense_span_geometry(self):
        # Small spans are always dense (the 1024-slot floor) ...
        assert dense_span_fits(1024, 1)
        assert not dense_span_fits(1025, 1)
        # ... larger ones may cover up to 8 slots per access.
        assert dense_span_fits(8 * 4096, 4096)
        assert not dense_span_fits(8 * 4096 + 1, 4096)
        lines = np.array([7, 9], dtype=np.int64)
        _, (base, table) = reuse_time_gaps(lines, 0, last_seen=True)
        assert (base, table.tolist()) == (7, [0, -1, 1])
        _, state = reuse_time_gaps(
            np.array([0, 1 << 40], dtype=np.int64), 0, last_seen=True
        )
        assert state is None
