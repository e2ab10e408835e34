"""Compiled reuse profiles: parity, monotonicity, serialisation.

The contract under test is bit-exactness: a mask derived from a
:class:`ReuseProfile` must be indistinguishable from the direct
:meth:`WorkingSetCache.hit_mask` fold for *every* LLC geometry, because
the figure suite silently swaps one for the other.  The exact
stack-distance model anchors the approximation on small traces, and
capacity monotonicity pins the working-set model's one structural
guarantee: growing the cache never loses a hit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.mem.cache import GAP_COLD, LINE_SIZE, WorkingSetCache
from repro.mem.stack_distance import COLD, lru_hit_mask, stack_distances
from repro.sim.artifacts import REUSE
from repro.sim.reusepack import (
    REUSE_FORMAT,
    build_reuse_profile,
    reuse_from_columnar,
    reuse_to_columnar,
    validate_reuse,
)
from repro.sim.tracestore import TraceStore

#: Every working-set LLC size the figure suite instantiates
#: (mcdram_dram 16 KB, nvm_dram 32 KB, hbm_dram 64 KB) plus the
#: neighbouring powers of two a sensitivity sweep would add.
FIGURE_SUITE_BYTES = (16 << 10, 32 << 10, 64 << 10)
SWEEP_BYTES = tuple(1 << s for s in range(10, 21))


def mixed_trace(seed: int = 7, n: int = 20_000) -> np.ndarray:
    """Streaming + hot-set + random mix, like a graph app's access stream."""
    rng = np.random.default_rng(seed)
    stream = np.arange(0, (n // 3) * 8, 8, dtype=np.int64)
    hot = rng.integers(0, 1 << 12, size=n // 3)
    cold = rng.integers(0, 1 << 26, size=n - 2 * (n // 3))
    parts = [stream, hot, cold]
    rng.shuffle(parts)
    return np.concatenate(parts)


class TestDerivability:
    def test_line_size_mismatch_raises(self):
        profile = build_reuse_profile(mixed_trace(n=512), line_size=128)
        with pytest.raises(TraceError):
            profile.hit_mask_for(WorkingSetCache(1 << 14, line_size=64))

    def test_bad_line_size_rejected_at_build(self):
        with pytest.raises(TraceError):
            build_reuse_profile(mixed_trace(n=64), line_size=48)


class TestMaskParity:
    """Derived masks must be bit-exact with the direct simulation."""

    @pytest.mark.parametrize("size_bytes", FIGURE_SUITE_BYTES)
    def test_figure_suite_geometries_bit_exact(self, size_bytes):
        addrs = mixed_trace()
        profile = build_reuse_profile(addrs)
        llc = WorkingSetCache(size_bytes)
        np.testing.assert_array_equal(
            profile.hit_mask_for(llc), llc.hit_mask(addrs)
        )

    def test_power_of_two_sweep_bit_exact(self):
        addrs = mixed_trace(seed=11)
        profile = build_reuse_profile(addrs)
        for size in SWEEP_BYTES:
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                profile.hit_mask_for(llc), llc.hit_mask(addrs), err_msg=str(size)
            )

    @given(
        addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=400),
        size_shift=st.integers(10, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_parity(self, addrs, size_shift):
        arr = np.array(addrs, dtype=np.int64)
        llc = WorkingSetCache(1 << size_shift)
        profile = build_reuse_profile(arr)
        np.testing.assert_array_equal(
            profile.hit_mask_for(llc), llc.hit_mask(arr)
        )

    def test_empty_trace(self):
        profile = build_reuse_profile(np.empty(0, dtype=np.int64))
        assert profile.hit_mask(16).size == 0
        assert profile.miss_ratio(16) == 0.0

    def test_single_access(self):
        profile = build_reuse_profile(np.array([64], dtype=np.int64))
        llc = WorkingSetCache(1 << 14)
        np.testing.assert_array_equal(
            profile.hit_mask_for(llc),
            llc.hit_mask(np.array([64], dtype=np.int64)),
        )


class TestCapacityMonotonicity:
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_hits_grow_with_capacity(self, addrs):
        # hits(C1) ⊆ hits(C2) whenever C1 <= C2.
        profile = build_reuse_profile(np.array(addrs, dtype=np.int64))
        previous = None
        for size in SWEEP_BYTES:
            mask = profile.hit_mask_for(WorkingSetCache(size))
            if previous is not None:
                assert bool(np.all(mask[previous]))
            previous = mask

    def test_miss_ratio_is_non_increasing(self):
        profile = build_reuse_profile(mixed_trace(seed=5))
        curve = profile.miss_ratio_curve([s // LINE_SIZE for s in SWEEP_BYTES])
        assert np.all(np.diff(curve) <= 1e-12)


class TestExactModelAgreement:
    """The gaps line up with exact stack distances on small traces."""

    def test_cold_sets_identical(self):
        addrs = mixed_trace(seed=13, n=3_000)
        profile = build_reuse_profile(addrs)
        exact = stack_distances(addrs)
        np.testing.assert_array_equal(
            profile.gaps == GAP_COLD, exact == COLD
        )

    def test_footprint_fits_equals_exact_lru(self):
        # When every distinct line fits, both models hit on every reuse.
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 64 * LINE_SIZE, size=4_000)
        llc = WorkingSetCache(1 << 20)
        profile = build_reuse_profile(addrs)
        np.testing.assert_array_equal(
            profile.hit_mask_for(llc),
            lru_hit_mask(addrs, llc.capacity_lines),
        )

    def test_tracks_exact_lru_miss_count(self):
        # The working-set approximation; same tolerance the direct model
        # is held to in test_mem_workingset.
        addrs = mixed_trace(seed=17, n=4_000)
        capacity = (32 << 10) // LINE_SIZE
        profile = build_reuse_profile(addrs)
        approx = int(np.count_nonzero(~profile.hit_mask(capacity)))
        exact = int(np.count_nonzero(~lru_hit_mask(addrs, capacity)))
        assert approx == pytest.approx(exact, rel=0.35)


class TestMissRatio:
    def test_miss_ratio_matches_mask_counts(self):
        addrs = mixed_trace(seed=19)
        profile = build_reuse_profile(addrs)
        for size in SWEEP_BYTES:
            capacity = size // LINE_SIZE
            mask = profile.hit_mask(capacity)
            want = 1.0 - np.count_nonzero(mask) / mask.size
            assert profile.miss_ratio(capacity) == want, size


class TestColumnar:
    def test_roundtrip(self):
        profile = build_reuse_profile(mixed_trace(seed=23, n=2_000))
        stacked, record = reuse_to_columnar(profile)
        rebuilt = reuse_from_columnar(stacked, record)
        np.testing.assert_array_equal(rebuilt.gaps, profile.gaps)
        np.testing.assert_array_equal(rebuilt.values, profile.values)
        np.testing.assert_array_equal(rebuilt.counts, profile.counts)
        assert rebuilt.line_size == profile.line_size
        llc = WorkingSetCache(32 << 10)
        np.testing.assert_array_equal(
            rebuilt.hit_mask_for(llc), profile.hit_mask_for(llc)
        )

    def test_format_mismatch_rejected(self, tmp_path):
        # The layout version is part of the stored file name: a profile
        # saved under another version is never found, so never decoded.
        profile = build_reuse_profile(mixed_trace(n=64))
        store = TraceStore(tmp_path)
        store.save_reuse("k", profile.line_size, profile)
        other = dataclasses.replace(REUSE, version=REUSE_FORMAT + 1)
        assert store.load(other, "k", profile.line_size, profile.n) is None
        assert store.load_reuse("k", profile.line_size, profile.n) is not None
        assert store.stats.rejects == 0

    def test_shape_mismatch_rejected(self):
        stacked, record = reuse_to_columnar(build_reuse_profile(mixed_trace(n=64)))
        with pytest.raises(TraceError):
            reuse_from_columnar(stacked[:-1], record)

    def test_swapped_rows_rejected(self):
        profile = build_reuse_profile(mixed_trace(n=512))
        stacked, record = reuse_to_columnar(profile)
        with pytest.raises(TraceError):
            reuse_from_columnar(stacked[::-1], record)

    def test_zero_gap_rejected(self):
        profile = build_reuse_profile(mixed_trace(n=512))
        stacked, record = reuse_to_columnar(profile)
        bad = stacked.copy()
        bad[int(np.argmin(profile.gaps))] = 0
        with pytest.raises(TraceError):
            reuse_from_columnar(bad, record)
        bad = stacked.copy()
        bad[profile.n] = 0  # the smallest histogram value
        with pytest.raises(TraceError):
            reuse_from_columnar(bad, record)

    def test_validate_accepts_built_profiles(self):
        validate_reuse(build_reuse_profile(mixed_trace(n=1_000)))
        validate_reuse(build_reuse_profile(np.empty(0, dtype=np.int64)))

    def test_loaded_profile_is_int_row_views_without_fold_state(self):
        profile = build_reuse_profile(mixed_trace(seed=11, n=1_500))
        stacked, record = reuse_to_columnar(profile)
        m = profile.values.size
        assert stacked.dtype == np.int64 and stacked.shape == (profile.n + 2 * m,)
        rebuilt = reuse_from_columnar(stacked, record)
        # The rows are views of the stored array, not copies.
        for row in (rebuilt.gaps, rebuilt.values, rebuilt.counts):
            assert np.shares_memory(row, stacked)
        np.testing.assert_array_equal(rebuilt.hit_mask(256), profile.hit_mask(256))
        # Fold state is in-process only; loaded profiles cannot extend.
        assert not rebuilt.can_extend
        with pytest.raises(TraceError, match="no fold state"):
            rebuilt.extend(np.array([0], dtype=np.int64))

    def test_empty_profile_roundtrip(self):
        profile = build_reuse_profile(np.empty(0, dtype=np.int64))
        rebuilt = reuse_from_columnar(*reuse_to_columnar(profile))
        assert rebuilt.n == 0
        assert rebuilt.hit_mask(64).size == 0

    def test_float_v2_layout_rejected(self):
        # The v2 layout: gap bit patterns plus a float64 window curve,
        # float64 [4, n + 1].
        profile = build_reuse_profile(mixed_trace(n=512))
        stacked, record = reuse_to_columnar(profile)
        v2 = np.zeros((4, profile.n + 1), dtype=np.float64)
        v2[0, :-1] = profile.gaps.view(np.float64)
        with pytest.raises(TraceError, match="expected int64"):
            reuse_from_columnar(v2, record)

    def test_sorted_row_v3_layout_rejected(self):
        # The v3 layout: gaps and the N-long sorted row, int64 [2, n].
        profile = build_reuse_profile(mixed_trace(n=512))
        _, record = reuse_to_columnar(profile)
        v3 = np.stack((profile.gaps, np.sort(profile.gaps)))
        with pytest.raises(TraceError, match="expected int64"):
            reuse_from_columnar(v3, record)

    def test_histogram_defects_rejected(self):
        profile = build_reuse_profile(mixed_trace(n=2_000))
        stacked, record = reuse_to_columnar(profile)
        n, m = profile.n, profile.values.size
        assert m >= 3
        defects = {
            "values not ascending": (n + 1, int(stacked[n])),
            "zero count": (n + m, 0),
            "counts off by one": (n + m, int(stacked[n + m]) + 1),
            "largest value not the largest gap": (
                n + m - 1,
                int(stacked[n + m - 1]) + 1,
            ),
        }
        for index, value in defects.values():
            bad = stacked.copy()
            bad[index] = value
            with pytest.raises(TraceError):
                reuse_from_columnar(bad, record)
        # Every gap finite: no cold miss left.
        bad = stacked.copy()
        bad[:n][bad[:n] == GAP_COLD] = 1
        with pytest.raises(TraceError):
            reuse_from_columnar(bad, record)


class TestExtend:
    """Incremental phase extension: fold only the delta, bit-exact.

    Streams stay within a dense footprint (unlike :func:`mixed_trace`,
    whose 64 MiB cold region is deliberately too sparse for a last-seen
    table) so the built profiles carry fold state.
    """

    @staticmethod
    def _dense(seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 1 << 18, size=n, dtype=np.int64)

    def _assert_equal(self, got, want):
        np.testing.assert_array_equal(got.gaps, want.gaps)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.counts, want.counts)
        for size in FIGURE_SUITE_BYTES:
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                got.hit_mask_for(llc), want.hit_mask_for(llc)
            )

    def test_extend_matches_full_refold(self):
        base = self._dense(3, 6_000)
        delta = self._dense(4, 2_000)
        extended = build_reuse_profile(base).extend(delta)
        self._assert_equal(
            extended, build_reuse_profile(np.concatenate([base, delta]))
        )

    def test_cross_phase_reuse_is_patched(self):
        # Every delta line was already touched in the base stream: all
        # delta gaps must come out finite, patched from the carried
        # last-seen table.
        base = np.arange(0, 64 * LINE_SIZE, LINE_SIZE, dtype=np.int64)
        delta = base[::-1].copy()
        extended = build_reuse_profile(base).extend(delta)
        assert int(np.count_nonzero(extended.gaps == GAP_COLD)) == base.size
        self._assert_equal(
            extended, build_reuse_profile(np.concatenate([base, delta]))
        )

    def test_extensions_chain(self):
        parts = [self._dense(s, 1_500) for s in (5, 6, 7)]
        chained = build_reuse_profile(parts[0])
        for part in parts[1:]:
            chained = chained.extend(part)
            assert chained.can_extend
        self._assert_equal(
            chained, build_reuse_profile(np.concatenate(parts))
        )

    def test_empty_delta_is_a_copy(self):
        profile = build_reuse_profile(self._dense(9, 1_000))
        same = profile.extend(np.empty(0, dtype=np.int64))
        assert same.can_extend
        self._assert_equal(same, profile)

    def test_base_profile_never_mutated(self):
        base = self._dense(13, 2_000)
        profile = build_reuse_profile(base)
        gaps_before = profile.gaps.copy()
        state_before = profile._fold_state[1].copy()
        profile.extend(self._dense(14, 1_000))
        np.testing.assert_array_equal(profile.gaps, gaps_before)
        np.testing.assert_array_equal(profile._fold_state[1], state_before)

    def test_sparse_delta_drops_state_but_stays_exact(self):
        base = self._dense(15, 2_000)
        # One access ~2^44 bytes away blows the dense-span budget.
        delta = np.array([1 << 44], dtype=np.int64)
        extended = build_reuse_profile(base).extend(delta)
        assert not extended.can_extend
        self._assert_equal(
            extended, build_reuse_profile(np.concatenate([base, delta]))
        )

    def test_without_state_raises(self):
        profile = build_reuse_profile(
            self._dense(17, 500), with_state=False
        )
        assert not profile.can_extend
        with pytest.raises(TraceError, match="no fold state"):
            profile.extend(np.array([0], dtype=np.int64))

    @given(
        base=st.lists(st.integers(0, 1 << 13), min_size=1, max_size=200),
        delta=st.lists(st.integers(0, 1 << 13), min_size=0, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_extend_equals_refold(self, base, delta):
        base_arr = np.array(base, dtype=np.int64)
        delta_arr = np.array(delta, dtype=np.int64)
        extended = build_reuse_profile(base_arr).extend(delta_arr)
        full = build_reuse_profile(np.concatenate([base_arr, delta_arr]))
        np.testing.assert_array_equal(extended.gaps, full.gaps)
        np.testing.assert_array_equal(extended.values, full.values)
        np.testing.assert_array_equal(extended.counts, full.counts)
