"""TraceCache: hit/miss accounting, eviction, and cached-run parity."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.config import nvm_dram_testbed
from repro.errors import TraceError
from repro.graph.generators import chung_lu_graph
from repro.mem.cache import GAP_COLD, VERIFY_ENV, WorkingSetCache
from repro.obs.metrics import process_metrics
from repro.sim.experiment import run_atmem, run_static
from repro.sim.reusepack import build_reuse_profile
from repro.sim.tracecache import (
    DEFAULT_MAX_TRACES,
    TraceCache,
    configured_max_traces,
    process_trace_cache,
)


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(2_000, 30_000, seed=3, name="tc-test")


def bfs_factory(graph):
    return lambda: make_app("BFS", graph)


class _FakeTrace:
    def __init__(self, payload):
        self.payload = payload

    def all_addresses(self):
        return np.asarray(self.payload, dtype=np.int64)


class _FakeLLC:
    """Counts hit_mask calls; geometry drives the cache's mask key."""

    def __init__(self, size_bytes=4096, line_size=64):
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.calls = 0

    def hit_mask(self, addrs):
        self.calls += 1
        return addrs % 2 == 0


class TestTraceAccounting:
    def test_trace_built_once_per_key(self):
        cache = TraceCache(max_traces=4)
        built = []

        def builder():
            built.append(1)
            return _FakeTrace([1, 2, 3])

        first = cache.trace("k", builder)
        second = cache.trace("k", builder)
        assert first is second
        assert len(built) == 1
        assert cache.stats.trace_misses == 1
        assert cache.stats.trace_hits == 1

    def test_lru_eviction_drops_oldest_and_its_masks(self):
        cache = TraceCache(max_traces=2)
        llc = _FakeLLC()
        t_a = cache.trace("a", lambda: _FakeTrace([1]))
        cache.hit_mask("a", llc, t_a)
        cache.trace("b", lambda: _FakeTrace([2]))
        cache.trace("c", lambda: _FakeTrace([3]))  # evicts "a"
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # "a" is gone: re-requesting rebuilds trace and mask.
        t_a2 = cache.trace("a", lambda: _FakeTrace([1]))
        cache.hit_mask("a", llc, t_a2)
        assert cache.stats.trace_misses == 4
        assert llc.calls == 2

    def test_zero_capacity_disables_caching(self):
        cache = TraceCache(max_traces=0)
        llc = _FakeLLC()
        for _ in range(3):
            t = cache.trace("k", lambda: _FakeTrace([1, 2]))
            cache.hit_mask("k", llc, t)
        assert len(cache) == 0
        assert cache.stats.trace_hits == 0
        assert cache.stats.mask_hits == 0
        assert llc.calls == 3

    def test_mask_keyed_by_llc_geometry(self):
        cache = TraceCache(max_traces=4)
        small, big = _FakeLLC(size_bytes=1024), _FakeLLC(size_bytes=1 << 20)
        t = cache.trace("k", lambda: _FakeTrace([2, 4, 6]))
        cache.hit_mask("k", small, t)
        cache.hit_mask("k", big, t)  # different geometry: fresh compute
        cache.hit_mask("k", small, t)  # same geometry: served from cache
        assert small.calls == 1
        assert big.calls == 1
        assert cache.stats.mask_hits == 1
        assert cache.stats.mask_misses == 2

    def test_clear_keeps_counters(self):
        cache = TraceCache(max_traces=4)
        cache.trace("k", lambda: _FakeTrace([1]))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.trace_misses == 1


class _ReuseTrace:
    """A trace rich enough for the reuse-derivation path."""

    def __init__(self, seed=29, n=4_000):
        rng = np.random.default_rng(seed)
        self.payload = rng.integers(0, 1 << 20, size=n)

    @property
    def total_accesses(self):
        return self.payload.size

    def all_addresses(self):
        return np.asarray(self.payload, dtype=np.int64)


class TestReuseDerivation:
    """Working-set masks derive from one reuse profile per trace."""

    SWEEP = (16 << 10, 32 << 10, 64 << 10, 128 << 10)

    def test_derived_masks_match_direct_simulation(self):
        cache = TraceCache(max_traces=4)
        trace = cache.trace("k", _ReuseTrace)
        addrs = trace.all_addresses()
        for size in self.SWEEP:
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                cache.hit_mask("k", llc, trace), llc.hit_mask(addrs)
            )

    def test_profile_folded_once_per_capacity_sweep(self):
        cache = TraceCache(max_traces=4)
        trace = cache.trace("k", _ReuseTrace)
        for size in self.SWEEP:
            cache.hit_mask("k", WorkingSetCache(size), trace)
        assert cache.stats.reuse_misses == 1
        assert cache.stats.reuse_hits == len(self.SWEEP) - 1

    def test_non_workingset_llc_takes_direct_path(self):
        cache = TraceCache(max_traces=4)
        llc = _FakeLLC()
        trace = cache.trace("k", lambda: _FakeTrace([2, 4, 6]))
        cache.hit_mask("k", llc, trace)
        assert llc.calls == 1
        assert cache.stats.reuse_misses == 0

    def test_parity_oracle_passes_on_honest_masks(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "1")
        counters = process_metrics().counters
        checks = counters.get("mask.parity_checks", 0.0)
        failures = counters.get("mask.parity_failures", 0.0)
        cache = TraceCache(max_traces=4)
        trace = cache.trace("k", _ReuseTrace)
        for size in self.SWEEP:
            cache.hit_mask("k", WorkingSetCache(size), trace)
        assert counters["mask.parity_checks"] == checks + len(self.SWEEP)
        assert counters.get("mask.parity_failures", 0.0) == failures

    def test_parity_oracle_raises_on_divergence(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "1")
        counters = process_metrics().counters
        failures = counters.get("mask.parity_failures", 0.0)
        cache = TraceCache(max_traces=4)
        trace = cache.trace("k", _ReuseTrace)
        profile = cache.reuse_profile("k", trace)
        # Sabotage the cached profile: pretend the hottest reuse is cold.
        profile.gaps[int(np.argmin(profile.gaps))] = GAP_COLD
        with pytest.raises(TraceError, match="diverged"):
            cache.hit_mask("k", WorkingSetCache(32 << 10), trace)
        assert counters["mask.parity_failures"] == failures + 1

    def test_stale_profile_discarded_and_rebuilt(self):
        cache = TraceCache(max_traces=4)
        trace = cache.trace("k", _ReuseTrace)
        cache.reuse_profile("k", trace)
        grown = _ReuseTrace(seed=29, n=5_000)
        profile = cache.reuse_profile("k", grown)
        assert profile.n == grown.total_accesses
        assert cache.stats.corruption_discards == 1
        assert cache.stats.reuse_misses == 2


class TestConfiguration:
    def test_default_bound(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert configured_max_traces() == DEFAULT_MAX_TRACES

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "3")
        assert configured_max_traces() == 3
        monkeypatch.setenv("REPRO_TRACE_CACHE", "-1")
        with pytest.raises(ValueError):
            configured_max_traces()

    def test_process_cache_is_a_singleton(self):
        assert process_trace_cache() is process_trace_cache()


class TestCachedRunParity:
    """Cached flows must be bit-identical to uncached ones."""

    def test_run_static_with_cache_matches_uncached(self, graph):
        platform = nvm_dram_testbed()
        factory = bfs_factory(graph)
        plain = run_static(factory, platform, "slow")
        cache = TraceCache()
        cached = run_static(
            factory, platform, "slow", trace_cache=cache, trace_key="bfs"
        )
        assert cached.seconds == plain.seconds
        assert cached.first_iteration.seconds == plain.first_iteration.seconds
        assert cache.stats.trace_misses == 1

    def test_run_atmem_with_warm_cache_matches_uncached(self, graph):
        platform = nvm_dram_testbed()
        factory = bfs_factory(graph)
        plain = run_atmem(factory, platform)
        cache = TraceCache()
        # Warm the cache through a different placement first: the ATMem
        # run below then reuses the trace across both its iterations.
        run_static(factory, platform, "fast", trace_cache=cache, trace_key="bfs")
        cached = run_atmem(factory, platform, trace_cache=cache, trace_key="bfs")
        assert cached.seconds == plain.seconds
        assert cached.data_ratio == plain.data_ratio
        assert cached.migration.bytes_moved == plain.migration.bytes_moved
        assert cache.stats.trace_hits >= 2


class _GrownTrace:
    """A trace whose address stream is a prefix-extension of another."""

    def __init__(self, base: "_ReuseTrace", seed: int = 31, extra: int = 1_000):
        rng = np.random.default_rng(seed)
        self.payload = np.concatenate(
            [base.payload, rng.integers(0, 1 << 20, size=extra)]
        )

    @property
    def total_accesses(self):
        return self.payload.size

    def all_addresses(self):
        return np.asarray(self.payload, dtype=np.int64)


class TestIncrementalExtend:
    """Phase-delta folds: extend a cached prefix profile, never refold."""

    def test_extend_from_prefix_matches_full_refold(self):
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        cache.reuse_profile("p0", base)
        grown = cache.trace("p1", lambda: _GrownTrace(base))
        profile = cache.reuse_profile("p1", grown, extend_from="p0")
        assert cache.stats.reuse_extends == 1
        want = build_reuse_profile(grown.all_addresses())
        np.testing.assert_array_equal(profile.gaps, want.gaps)
        np.testing.assert_array_equal(profile.sorted_gaps, want.sorted_gaps)
        # The extended profile is cached under its own key like any other.
        assert cache.reuse_profile("p1", grown) is profile

    def test_extend_counter_mirrored_to_process_metrics(self):
        counters = process_metrics().counters
        before = counters.get("cache.reuse_extends", 0.0)
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        cache.reuse_profile("p0", base)
        cache.reuse_profile("p1", _GrownTrace(base), extend_from="p0")
        assert counters["cache.reuse_extends"] == before + 1

    def test_missing_base_falls_back_to_full_refold(self):
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        grown = _GrownTrace(base)
        profile = cache.reuse_profile("p1", grown, extend_from="absent")
        assert cache.stats.reuse_extends == 0
        want = build_reuse_profile(grown.all_addresses())
        np.testing.assert_array_equal(profile.gaps, want.gaps)

    def test_longer_base_falls_back_to_full_refold(self):
        # extend_from names a key whose stream is LONGER than the target:
        # no prefix relationship, so the extend path must not engage.
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        grown = _GrownTrace(base)
        cache.reuse_profile("p1", grown)
        profile = cache.reuse_profile("p0", base, extend_from="p1")
        assert cache.stats.reuse_extends == 0
        assert profile.n == base.total_accesses

    def test_parity_oracle_passes_on_honest_extension(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "1")
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        failures = counters.get("reuse.parity_failures", 0.0)
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        cache.reuse_profile("p0", base)
        cache.reuse_profile("p1", _GrownTrace(base), extend_from="p0")
        assert counters["reuse.parity_checks"] == checks + 1
        assert counters.get("reuse.parity_failures", 0.0) == failures

    def test_parity_oracle_raises_on_sabotaged_base(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "1")
        counters = process_metrics().counters
        failures = counters.get("reuse.parity_failures", 0.0)
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        sabotaged = cache.reuse_profile("p0", base)
        sabotaged.gaps[0] = 12_345  # an extension would inherit the lie
        with pytest.raises(TraceError, match="diverged"):
            cache.reuse_profile("p1", _GrownTrace(base), extend_from="p0")
        assert counters["reuse.parity_failures"] == failures + 1

    def test_extended_profile_serves_masks_bit_exact(self):
        cache = TraceCache(max_traces=4)
        base = cache.trace("p0", _ReuseTrace)
        cache.reuse_profile("p0", base)
        grown = _GrownTrace(base)
        cache.reuse_profile("p1", grown, extend_from="p0")
        addrs = grown.all_addresses()
        for size in (16 << 10, 64 << 10):
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                cache.hit_mask("p1", llc, grown), llc.hit_mask(addrs)
            )
        assert cache.stats.reuse_extends == 1  # masks reused the profile
