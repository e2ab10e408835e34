"""Compiled trace profiles: build, parity with replay, persistence.

The contract under test (DESIGN.md section 9): pricing a run from its
compiled per-(phase, page) miss histogram is **bit-exact** with replay
for every static-placement run, falls back to replay whenever replay
still has a job (miss observers, TLB counting),
and survives the store boundary (CRC rejection, rebuild) without ever
perturbing committed figures.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import APP_CLASSES, EXTRA_APP_CLASSES
from repro.config import nvm_dram_testbed
from repro.core.runtime import AtMemRuntime
from repro.errors import TraceError
from repro.graph.datasets import dataset_by_name
from repro.mem.cache import VERIFY_ENV
from repro.mem.trace import AccessTrace
from repro.obs.metrics import process_metrics
from repro.sim.executor import TraceExecutor
from repro.sim.experiment import run_atmem, run_static
from repro.sim.parallel import AppSpec
from repro.sim.profilepack import (
    PROFILE_FORMAT,
    TraceProfile,
    build_profile,
    profile_from_columnar,
    profile_to_columnar,
    validate_profile,
)
from repro.sim.artifacts import PROFILE
from repro.sim.tracecache import TraceCache
from repro.sim.tracestore import TraceStore

#: Every shipped kernel: the paper's five plus the extensions.
ALL_APPS = {**APP_CLASSES, **EXTRA_APP_CLASSES}

SCALE = 2048


def make_app(name: str):
    cls = ALL_APPS[name]
    if name == "HashJoin":
        # Not graph-based; shrink the synthetic relations for test speed.
        return cls(build_rows=1 << 10, probe_rows=1 << 12)
    return cls(dataset_by_name("pokec", scale=SCALE))


class AlternatingRegistry:
    """Registers arrays on alternating tiers so both tiers see misses."""

    def __init__(self, runtime, system):
        self.runtime = runtime
        self.system = system
        self.count = 0

    def register_array(self, name, array):
        tier = (
            self.system.fast_tier
            if self.count % 2 == 0
            else self.system.slow_tier
        )
        self.count += 1
        return self.runtime.register_array(name, array, tier=tier)


def priced_setup(*, concurrent_tiers=False):
    platform = dataclasses.replace(
        nvm_dram_testbed(), concurrent_tiers=concurrent_tiers
    )
    system = platform.build_system()
    runtime = AtMemRuntime(system, platform=platform)
    return platform, system, runtime


def run_costs_equal(a, b):
    assert a.seconds == b.seconds
    assert a.n_accesses == b.n_accesses
    assert a.n_misses == b.n_misses
    assert a.tlb_misses == b.tlb_misses
    assert a.miss_by_tier == b.miss_by_tier
    assert a.seconds_by_label == b.seconds_by_label


def counter(name: str) -> float:
    return float(process_metrics().snapshot()["counters"].get(name, 0.0))


# ----------------------------------------------------------------------
# parity: every app, both prefetch modes, both tier concurrency models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("concurrent_tiers", [False, True])
@pytest.mark.parametrize("prefetch_mode", ["hint", "model"])
@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
def test_profile_pricing_is_bit_exact_with_replay(
    app_name, prefetch_mode, concurrent_tiers
):
    _, system, runtime = priced_setup(concurrent_tiers=concurrent_tiers)
    app = make_app(app_name)
    app.register(AlternatingRegistry(runtime, system))
    trace = app.run_once()
    hits = system.llc.hit_mask(trace.all_addresses())
    profile = build_profile(trace, hits)
    executor = TraceExecutor(system, prefetch_mode=prefetch_mode)
    replayed = executor.run(trace, hits=hits)
    profiled = executor.run(trace, hits=hits, profile=profile)
    assert replayed.n_misses > 0, "setup produced no misses; parity vacuous"
    run_costs_equal(profiled, replayed)


def test_profile_covers_both_tiers():
    """The parity matrix must exercise a genuinely mixed placement."""
    _, system, runtime = priced_setup()
    app = make_app("PR")
    app.register(AlternatingRegistry(runtime, system))
    trace = app.run_once()
    hits = system.llc.hit_mask(trace.all_addresses())
    profile = build_profile(trace, hits)
    cost = TraceExecutor(system).run(trace, hits=hits, profile=profile)
    assert set(cost.miss_by_tier) == {system.fast_tier, system.slow_tier}


# ----------------------------------------------------------------------
# eligibility gates: when replay must still run
# ----------------------------------------------------------------------
def eligibility_fixture():
    _, system, runtime = priced_setup()
    app = make_app("PR")
    app.register(runtime)
    trace = app.run_once()
    hits = system.llc.hit_mask(trace.all_addresses())
    return system, runtime, trace, hits, build_profile(trace, hits)


def test_profile_path_increments_profile_counter():
    system, _, trace, hits, profile = eligibility_fixture()
    before = counter("pricing.profile_cells")
    TraceExecutor(system).run(trace, hits=hits, profile=profile)
    assert counter("pricing.profile_cells") == before + 1


def test_miss_observer_forces_replay():
    """Mid-run migration is driven through the observer: must replay."""
    system, runtime, trace, hits, profile = eligibility_fixture()
    runtime.atmem_profiling_start()
    replay_before = counter("pricing.replay_cells")
    profile_before = counter("pricing.profile_cells")
    TraceExecutor(system).run(
        trace, miss_observer=runtime, hits=hits, profile=profile
    )
    runtime.atmem_profiling_stop()
    assert counter("pricing.replay_cells") == replay_before + 1
    assert counter("pricing.profile_cells") == profile_before


def test_count_tlb_forces_replay():
    system, _, trace, hits, profile = eligibility_fixture()
    before = counter("pricing.replay_cells")
    cost = TraceExecutor(system, count_tlb=True).run(
        trace, hits=hits, profile=profile
    )
    assert counter("pricing.replay_cells") == before + 1
    assert cost.tlb_misses > 0


def test_mismatched_profile_falls_back_to_replay():
    system, _, trace, hits, profile = eligibility_fixture()
    stale = dataclasses.replace(
        profile, phase_n=profile.phase_n[:-1], row_ptr=profile.row_ptr[:-1]
    )
    assert not stale.matches(trace)
    before = counter("pricing.replay_cells")
    TraceExecutor(system).run(trace, hits=hits, profile=stale)
    assert counter("pricing.replay_cells") == before + 1


# ----------------------------------------------------------------------
# the parity oracle
# ----------------------------------------------------------------------
def test_parity_oracle_passes_on_honest_profile(monkeypatch):
    system, _, trace, hits, profile = eligibility_fixture()
    monkeypatch.setenv(VERIFY_ENV, "1")
    checks_before = counter("pricing.parity_checks")
    failures_before = counter("pricing.parity_failures")
    TraceExecutor(system).run(trace, hits=hits, profile=profile)
    assert counter("pricing.parity_checks") == checks_before + 1
    assert counter("pricing.parity_failures") == failures_before


def test_parity_oracle_catches_doctored_counts(monkeypatch):
    system, _, trace, hits, profile = eligibility_fixture()
    doctored = dataclasses.replace(profile, counts=profile.counts + 1)
    assert doctored.matches(trace)  # shape-level check cannot see this
    monkeypatch.setenv(VERIFY_ENV, "1")
    before = counter("pricing.parity_failures")
    with pytest.raises(TraceError, match="diverged from replay"):
        TraceExecutor(system).run(trace, hits=hits, profile=doctored)
    assert counter("pricing.parity_failures") == before + 1


# ----------------------------------------------------------------------
# experiment flows
# ----------------------------------------------------------------------
def test_run_static_prices_measure_segments_from_profile():
    platform = nvm_dram_testbed()
    spec = AppSpec.make("PR", "pokec", scale=SCALE)
    plain = run_static(spec, platform, "slow")
    before = counter("pricing.profile_cells")
    cached = run_static(
        spec, platform, "slow",
        trace_cache=TraceCache(), trace_key=spec.trace_key(),
    )
    assert counter("pricing.profile_cells") == before + 2  # both iterations
    run_costs_equal(cached.second_iteration, plain.second_iteration)


def test_run_atmem_replays_profiling_window_only():
    platform = nvm_dram_testbed()
    spec = AppSpec.make("PR", "pokec", scale=SCALE)
    plain = run_atmem(spec, platform)
    replay_before = counter("pricing.replay_cells")
    profile_before = counter("pricing.profile_cells")
    cached = run_atmem(
        spec, platform, trace_cache=TraceCache(), trace_key=spec.trace_key()
    )
    # Iteration 1 holds the PEBS profiling window open: replay.  The
    # measured iteration runs on a placement static since migration:
    # profile.
    assert counter("pricing.replay_cells") == replay_before + 1
    assert counter("pricing.profile_cells") == profile_before + 1
    run_costs_equal(cached.second_iteration, plain.second_iteration)
    run_costs_equal(cached.first_iteration, plain.first_iteration)


# ----------------------------------------------------------------------
# the profile artifact itself
# ----------------------------------------------------------------------
def test_build_profile_rejects_wrong_mask_length():
    _, _, trace, hits, _ = eligibility_fixture()
    with pytest.raises(TraceError, match="does not match trace"):
        build_profile(trace, hits[:-1])


def test_profile_totals_match_trace():
    _, _, trace, hits, profile = eligibility_fixture()
    assert profile.total_accesses == trace.total_accesses
    assert profile.total_misses == int(np.count_nonzero(~hits))
    assert profile.n_phases == len(trace.phases)
    assert int(profile.phase_misses.sum()) == profile.total_misses
    assert profile.labels == tuple(p.label for p in trace.phases)


def test_empty_trace_profile():
    profile = build_profile(AccessTrace(), np.zeros(0, dtype=bool))
    validate_profile(profile)
    assert profile.nnz == 0
    assert profile.n_phases == 0
    assert profile.total_misses == 0


def test_validate_profile_rejects_structural_defects():
    _, _, _, _, profile = eligibility_fixture()
    validate_profile(profile)  # the honest profile passes
    bad_row_ptr = dataclasses.replace(
        profile, row_ptr=profile.row_ptr[:-1]
    )
    with pytest.raises(TraceError, match="row_ptr"):
        validate_profile(bad_row_ptr)
    bad_counts = dataclasses.replace(
        profile, counts=profile.counts - profile.counts.max()
    )
    with pytest.raises(TraceError, match="positive"):
        validate_profile(bad_counts)
    bad_labels = dataclasses.replace(profile, labels=())
    with pytest.raises(TraceError, match="labels"):
        validate_profile(bad_labels)


def test_columnar_round_trip_is_lossless():
    _, _, _, _, profile = eligibility_fixture()
    stacked, record = profile_to_columnar(profile)
    rebuilt = profile_from_columnar(stacked, record)
    np.testing.assert_array_equal(rebuilt.pages, profile.pages)
    np.testing.assert_array_equal(rebuilt.counts, profile.counts)
    np.testing.assert_array_equal(rebuilt.row_ptr, profile.row_ptr)
    np.testing.assert_array_equal(rebuilt.phase_n, profile.phase_n)
    np.testing.assert_array_equal(
        rebuilt.phase_is_write, profile.phase_is_write
    )
    np.testing.assert_array_equal(
        rebuilt.phase_is_random, profile.phase_is_random
    )
    assert rebuilt.labels == profile.labels


def test_columnar_rejects_version_and_shape_mismatch():
    _, _, _, _, profile = eligibility_fixture()
    stacked, record = profile_to_columnar(profile)
    # The layout version is part of the stored file name: an entry
    # written under another version is never found, so never decoded.
    assert PROFILE.stem(("llc",)).startswith(f"profile-v{PROFILE_FORMAT}-")
    with pytest.raises(TraceError, match="dtype/shape"):
        profile_from_columnar(stacked[:, :-1], record)
    with pytest.raises(TraceError, match="malformed"):
        profile_from_columnar(stacked, {"nnz": "??"})


# ----------------------------------------------------------------------
# cache plumbing
# ----------------------------------------------------------------------
def cache_fixture():
    platform = nvm_dram_testbed()
    system = platform.build_system()
    runtime = AtMemRuntime(system, platform=platform)
    app = make_app("PR")
    app.register(runtime)
    trace = app.run_once()
    hits = system.llc.hit_mask(trace.all_addresses())
    return system, trace, hits


def test_cache_memoises_profiles():
    system, trace, hits = cache_fixture()
    cache = TraceCache()
    cache.trace("k", lambda: trace)  # profiles are memoised per held trace
    first = cache.profile("k", system.llc, trace, hits)
    second = cache.profile("k", system.llc, trace, hits)
    assert first is second
    assert cache.stats.profile_misses == 1
    assert cache.stats.profile_hits == 1


def test_cache_rebuilds_profile_that_stopped_matching():
    system, trace, hits = cache_fixture()
    cache = TraceCache()
    cache.trace("k", lambda: trace)
    built = cache.profile("k", system.llc, trace, hits)
    # Simulate a corrupted memoisation: swap in a profile of the wrong
    # shape under the same key.
    memo = cache._traces["k"].artifacts
    [slot] = [slot for slot in memo if slot[0] == "profile"]
    memo[slot] = dataclasses.replace(
        built, phase_n=built.phase_n[:-1], row_ptr=built.row_ptr[:-1]
    )
    again = cache.profile("k", system.llc, trace, hits)
    assert again.matches(trace)
    assert cache.stats.corruption_discards == 1


def test_store_round_trip_and_crc_rejection(tmp_path):
    system, trace, hits = cache_fixture()
    writer = TraceCache(store=TraceStore(tmp_path))
    writer.trace("k", lambda: trace)  # store the trace so profiles persist
    built = writer.profile("k", system.llc, trace, hits)
    assert writer.store.stats.profile_saves == 1

    reader = TraceCache(store=TraceStore(tmp_path))
    reader.trace("k", lambda: trace)
    loaded = reader.profile("k", system.llc, trace, hits)
    assert reader.stats.store_profile_hits == 1
    np.testing.assert_array_equal(loaded.pages, built.pages)
    np.testing.assert_array_equal(loaded.counts, built.counts)

    # Flip one byte of the stored array: the next fresh view must
    # reject on CRC, rebuild, and re-save.
    [array_path] = list(tmp_path.rglob("profile-*.npy"))
    blob = bytearray(array_path.read_bytes())
    blob[-1] ^= 0xFF
    array_path.write_bytes(bytes(blob))
    third = TraceCache(store=TraceStore(tmp_path))
    third.trace("k", lambda: trace)
    rebuilt = third.profile("k", system.llc, trace, hits)
    assert third.store.stats.rejects >= 1
    assert third.stats.store_profile_hits == 0
    np.testing.assert_array_equal(rebuilt.pages, built.pages)
    np.testing.assert_array_equal(rebuilt.counts, built.counts)


class _HalvedLLC:
    """Same hit behaviour, different geometry signature."""

    def __init__(self, llc):
        self._llc = llc
        self.size_bytes = llc.size_bytes // 2
        self.line_size = llc.line_size

    def hit_mask(self, addrs):
        return self._llc.hit_mask(addrs)


def test_store_profile_is_llc_scoped(tmp_path):
    """A profile stored under one LLC geometry never serves another."""
    system, trace, hits = cache_fixture()
    cache = TraceCache(store=TraceStore(tmp_path))
    cache.trace("k", lambda: trace)
    cache.profile("k", system.llc, trace, hits)

    fresh = TraceCache(store=TraceStore(tmp_path))
    fresh.trace("k", lambda: trace)
    fresh.profile("k", _HalvedLLC(system.llc), trace, hits)
    assert fresh.stats.store_profile_hits == 0


def test_cache_eviction_drops_profiles():
    system, trace, hits = cache_fixture()
    cache = TraceCache(max_traces=1)
    cache.trace("k1", lambda: trace)
    cache.profile("k1", system.llc, trace, hits)
    cache.trace("k2", lambda: trace)  # evicts k1
    assert "k1" not in cache._traces  # its profiles went with it
