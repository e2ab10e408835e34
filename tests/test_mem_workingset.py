"""Tests for the working-set LRU approximation, validated against exact LRU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    GapFold,
    WorkingSetCache,
    reuse_time_gaps,
    window_threshold,
)
from repro.mem.stack_distance import lru_hit_mask
from repro.sim.reusepack import build_reuse_profile, fold_reuse_chunks
from repro.sim.tracestore import TraceStore
from tests.test_mem_cache import (
    BLOCK,
    assert_matches_global_fold,
    block_lengths,
    block_patterns,
    block_stream,
    sorted_row_threshold,
)


def float_window_mask(gaps: np.ndarray, capacity_lines: int) -> np.ndarray:
    """The float64 window solve the int solve replaced, as a reference.

    Casts the ascending gaps to float64, builds the prefix curve
    ``f(g_k)`` over all N, solves ``f(W*) = capacity * T`` in closed form
    and compares ``gaps <= W*`` as floats.
    """
    sorted_f = np.sort(gaps).astype(np.float64)
    t = sorted_f.size
    prefix = np.concatenate(([0.0], np.cumsum(sorted_f)))
    f_at_gap = prefix[1:] + sorted_f * (t - 1 - np.arange(t, dtype=np.float64))
    target = float(capacity_lines) * t
    k = int(np.searchsorted(f_at_gap, target, side="left"))
    if k >= t:
        return gaps < GAP_COLD
    return gaps <= (target - prefix[k]) / (t - k)


def histogram(gaps):
    """``(values, counts)`` of the finite gaps."""
    gaps = np.asarray(gaps, dtype=np.int64)
    return np.unique(gaps[gaps < GAP_COLD], return_counts=True)


def threshold_of(gaps, capacity_lines):
    """The histogram solve's threshold for a gap row."""
    return window_threshold(*histogram(gaps), np.size(gaps), capacity_lines)


def int_window_mask(gaps, capacity_lines):
    threshold = threshold_of(gaps, capacity_lines)
    assert type(threshold) is int
    return gaps <= threshold


class TestReuseGaps:
    def test_first_occurrences_are_max(self):
        cache = WorkingSetCache(1024)
        gaps = cache.reuse_gaps(np.array([0, 64, 128]))
        assert (gaps == np.iinfo(np.int64).max).all()

    def test_gap_counts_time_not_distinct(self):
        cache = WorkingSetCache(1024)
        gaps = cache.reuse_gaps(np.array([0, 64, 64, 0]))
        assert gaps[2] == 1  # immediate reuse
        assert gaps[3] == 3  # three accesses since the previous line-0 touch

    def test_same_line_different_offset(self):
        cache = WorkingSetCache(1024)
        gaps = cache.reuse_gaps(np.array([0, 8]))
        assert gaps[1] == 1


class TestSolveWindow:
    def test_footprint_fits_every_reuse_hits(self):
        cache = WorkingSetCache(64 * LINE_SIZE)
        addrs = np.array([0, 64, 0, 64] * 4)
        hits = cache.hit_mask(addrs)
        # Two cold misses, every later access is a reuse hit.
        assert hits.tolist() == [False, False] + [True] * 14

    def test_window_covers_all_finite_gaps_when_footprint_fits(self):
        cache = WorkingSetCache(64 * LINE_SIZE)
        gaps = cache.reuse_gaps(np.array([0, 64, 0, 64] * 4))
        threshold = threshold_of(gaps, cache.capacity_lines)
        finite = gaps[gaps < GAP_COLD]
        assert threshold >= finite.max()
        # Past the finite gaps the solve lands on the first cold gap.
        t, cold = gaps.size, gaps.size - finite.size
        assert threshold == (64 * t - int(finite.sum())) // cold

    def test_empty_stream(self):
        empty = np.empty(0, dtype=np.int64)
        assert window_threshold(empty, empty, 0, 16) == 0
        assert WorkingSetCache(16 * LINE_SIZE).hit_mask(empty).size == 0
        assert build_reuse_profile(empty).hit_mask(16).size == 0

    @given(
        lines=st.lists(st.integers(0, 40), min_size=1, max_size=400),
        extra=st.integers(0, 1 << 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_fit_threshold_covers_every_finite_gap(self, lines, extra):
        # A capacity of at least the stream length fits every window
        # (f(W) <= T * W and every gap is below T): the solve still
        # returns an int, at or past the largest finite gap, and every
        # reuse hits.
        addrs = np.array(lines, dtype=np.int64) * LINE_SIZE
        capacity = len(lines) + extra
        fold = reuse_time_gaps(addrs)
        threshold = window_threshold(fold.values, fold.counts, addrs.size, capacity)
        assert type(threshold) is int
        if fold.values.size:
            assert threshold >= int(fold.values[-1])
        np.testing.assert_array_equal(fold.gaps <= threshold, fold.gaps < GAP_COLD)
        np.testing.assert_array_equal(
            WorkingSetCache(capacity * LINE_SIZE).hit_mask(addrs),
            fold.gaps < GAP_COLD,
        )


class TestHitMask:
    def test_streaming_hits_within_line_only(self):
        """An 8 B-stride scan of a huge array hits 7 of 8 accesses per line."""
        cache = WorkingSetCache(64 * LINE_SIZE)
        addrs = np.arange(0, 64 * LINE_SIZE * 64, 8, dtype=np.int64)
        hits = cache.hit_mask(addrs)
        n_lines = addrs.size // 8
        assert int(np.count_nonzero(~hits)) == n_lines

    def test_hot_line_survives_streaming(self):
        """A line re-touched every few accesses hits despite a cold stream."""
        rng = np.random.default_rng(0)
        stream = np.arange(0, 8 * (1 << 20), 64, dtype=np.int64)  # cold scan
        addrs = stream.copy()
        hot_positions = np.arange(0, addrs.size, 10)
        addrs[hot_positions] = 0  # the hot line, touched every 10 accesses
        cache = WorkingSetCache(64 * LINE_SIZE)
        hits = cache.hit_mask(addrs)
        hot_hits = hits[hot_positions[1:]]
        assert hot_hits.mean() > 0.9

    def test_cold_reuse_misses(self):
        """Reuse after touching far more than C distinct lines misses."""
        cache = WorkingSetCache(16 * LINE_SIZE)
        scan = np.arange(0, 1024 * LINE_SIZE, 64, dtype=np.int64) + 4096 * LINE_SIZE
        addrs = np.concatenate(([0], scan, [0]))
        hits = cache.hit_mask(addrs)
        assert not hits[-1]

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkingSetCache(1000)
        with pytest.raises(ConfigurationError):
            WorkingSetCache(1024, line_size=48)
        with pytest.raises(ConfigurationError):
            WorkingSetCache(0)
        assert WorkingSetCache(3 * LINE_SIZE).capacity_lines == 3

    def test_empty(self):
        cache = WorkingSetCache(1024)
        assert cache.hit_mask(np.empty(0, dtype=np.int64)).size == 0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 16, size=5000)
        cache = WorkingSetCache(4096)
        a = cache.hit_mask(addrs)
        b = cache.hit_mask(addrs)
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 100), cap_lines=st.sampled_from([16, 64, 256]))
    @settings(max_examples=20, deadline=None)
    def test_tracks_exact_lru_miss_count(self, seed, cap_lines):
        """Aggregate miss counts stay close to an exact fully-assoc LRU."""
        rng = np.random.default_rng(seed)
        # Zipf-ish line popularity over 4x the cache capacity.
        lines = rng.zipf(1.3, size=4000) % (cap_lines * 4)
        addrs = lines.astype(np.int64) * LINE_SIZE
        ws = WorkingSetCache(cap_lines * LINE_SIZE)
        ws_misses = int(np.count_nonzero(~ws.hit_mask(addrs)))
        exact_misses = int(np.count_nonzero(~lru_hit_mask(addrs, cap_lines)))
        assert ws_misses == pytest.approx(exact_misses, rel=0.35)

    def test_miss_count_monotone_in_capacity(self):
        rng = np.random.default_rng(2)
        addrs = (rng.zipf(1.2, size=8000) % 2048).astype(np.int64) * LINE_SIZE
        misses = [
            int(np.count_nonzero(~WorkingSetCache(c * LINE_SIZE).hit_mask(addrs)))
            for c in (16, 64, 256, 1024)
        ]
        assert all(a >= b for a, b in zip(misses, misses[1:]))


#: Capacities of the int-vs-float comparisons, capacity 1 included.
CAPACITIES = (1, 2, 3, 5, 16, 64, 256, 4096)


class TestIntSolveMatchesFloat:
    """``window_threshold`` gives the float64 window solve's masks."""

    @staticmethod
    def assert_matches(gaps, capacities=CAPACITIES):
        gaps = np.asarray(gaps, dtype=np.int64)
        for capacity in capacities:
            np.testing.assert_array_equal(
                int_window_mask(gaps, capacity),
                float_window_mask(gaps, capacity),
                err_msg=f"capacity {capacity}",
            )

    @given(
        lines=st.lists(st.integers(0, 300), min_size=1, max_size=600),
        capacity=st.integers(1, 400),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_streams(self, lines, capacity):
        addrs = np.array(lines, dtype=np.int64) * LINE_SIZE
        self.assert_matches(WorkingSetCache(LINE_SIZE).reuse_gaps(addrs), (capacity,))

    @given(
        finite=st.lists(st.integers(1, 1 << 20), max_size=300),
        n_cold=st.integers(1, 50),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_gap_rows_with_ties(self, finite, n_cold, data):
        # Capacities drawn from the gap values themselves put gaps
        # exactly at the threshold.
        gaps = np.array(finite + [GAP_COLD] * n_cold, dtype=np.int64)
        capacities = st.integers(1, 1 << 21)
        if finite:
            capacities = capacities | st.sampled_from(finite)
        self.assert_matches(gaps, (data.draw(capacities),))

    def test_all_cold_stream(self):
        gaps = WorkingSetCache(LINE_SIZE).reuse_gaps(
            np.arange(500, dtype=np.int64) * LINE_SIZE
        )
        assert (gaps == GAP_COLD).all()
        self.assert_matches(gaps)
        assert threshold_of(gaps, 16) == 16  # k = 0: no hits

    def test_all_fit_lands_on_first_cold_gap(self):
        addrs = np.tile(np.arange(8, dtype=np.int64) * LINE_SIZE, 50)
        gaps = WorkingSetCache(LINE_SIZE).reuse_gaps(addrs)
        self.assert_matches(gaps)
        threshold = threshold_of(gaps, 64)
        assert threshold >= 8  # every reuse hits
        assert threshold == (64 * 400 - 8 * 392) // 8

    def test_gaps_tied_at_threshold_hit(self):
        # Period-g reuse: f(g_0) = g * T, so capacity g solves W* = g
        # exactly and every gap sits on the threshold.
        for period in (1, 3, 7, 16):
            addrs = np.tile(np.arange(period, dtype=np.int64) * LINE_SIZE, 40)
            gaps = WorkingSetCache(LINE_SIZE).reuse_gaps(addrs)
            assert threshold_of(gaps, period) == period
            mask = int_window_mask(gaps, period)
            assert int(np.count_nonzero(mask)) == addrs.size - period
            self.assert_matches(gaps, (period,))

    def test_capacity_one(self):
        rng = np.random.default_rng(4)
        gaps = WorkingSetCache(LINE_SIZE).reuse_gaps(
            rng.integers(0, 16, size=2_000) * LINE_SIZE
        )
        self.assert_matches(gaps, (1,))

    def test_extend_chain_profiles(self):
        rng = np.random.default_rng(5)
        parts = [rng.integers(0, 1 << 16, size=1_500) for _ in range(4)]
        profile = build_reuse_profile(parts[0])
        for part in parts[1:]:
            profile = profile.extend(part)
            for capacity in CAPACITIES:
                np.testing.assert_array_equal(
                    profile.hit_mask(capacity),
                    float_window_mask(profile.gaps, capacity),
                )

    def test_chunked_fold_profiles(self):
        rng = np.random.default_rng(6)
        addrs = rng.integers(0, 1 << 16, size=6_000)
        profile = fold_reuse_chunks(np.array_split(addrs, 5))
        for capacity in CAPACITIES:
            np.testing.assert_array_equal(
                profile.hit_mask(capacity),
                float_window_mask(profile.gaps, capacity),
            )

    def test_store_round_trip_profiles(self, tmp_path):
        rng = np.random.default_rng(7)
        profile = build_reuse_profile(rng.integers(0, 1 << 16, size=6_000))
        TraceStore(tmp_path).save_reuse("k", profile.line_size, profile)
        loaded = TraceStore(tmp_path).load_reuse("k", profile.line_size, profile.n)
        for capacity in CAPACITIES:
            np.testing.assert_array_equal(
                loaded.hit_mask(capacity),
                float_window_mask(profile.gaps, capacity),
            )
            assert loaded.miss_ratio(capacity) == profile.miss_ratio(capacity)


def reuse_fold_of(profile):
    """A profile's rows in the shape of :func:`reuse_time_gaps`' result."""
    return GapFold(profile.gaps, profile.values, profile.counts, profile._fold_state)


class TestHistogramSolveMatchesSortedRow:
    """The histogram solve against the N-long sorted-row solve it replaced,
    on one-shot, extended and chunked profiles."""

    @given(
        finite=st.lists(st.integers(1, 1 << 20), max_size=300),
        n_cold=st.integers(1, 50),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_gap_rows_with_ties(self, finite, n_cold, data):
        gaps = np.array(finite + [GAP_COLD] * n_cold, dtype=np.int64)
        capacities = st.integers(1, 1 << 21)
        if finite:
            capacities = capacities | st.sampled_from(finite)
        capacity = data.draw(capacities)
        assert threshold_of(gaps, capacity) == sorted_row_threshold(
            np.sort(gaps), capacity
        )

    @given(
        pattern=block_patterns.filter(lambda p: p != "sparse"),
        n=block_lengths,
        seed=st.integers(0, 2**16),
        cuts=st.lists(st.integers(1, 4 * BLOCK), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_extend_chains(self, pattern, n, seed, cuts):
        addrs = block_stream(pattern, n, seed)
        bounds = sorted({c for c in cuts if c < n})
        parts = np.split(addrs, bounds)
        profile = build_reuse_profile(parts[0])
        for part in parts[1:]:
            if profile.can_extend:
                profile = profile.extend(part)
            else:  # a prefix too sparse for a table: refold, as the cache does
                profile = build_reuse_profile(addrs[: profile.n + part.size])
        assert_matches_global_fold(
            reuse_fold_of(profile), addrs, (1, 64, 10**9)
        )

    @given(
        pattern=block_patterns,
        n=block_lengths,
        seed=st.integers(0, 2**16),
        chunk=st.integers(100, 2 * BLOCK).filter(lambda c: c % BLOCK),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunked_folds(self, pattern, n, seed, chunk):
        addrs = block_stream(pattern, n, seed)
        chunks = [addrs[i : i + chunk] for i in range(0, n, chunk)]
        profile = fold_reuse_chunks(iter(chunks))
        assert_matches_global_fold(reuse_fold_of(profile), addrs, (1, 64, 10**9))
