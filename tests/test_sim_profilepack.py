"""Compiled trace profiles: build, parity with replay, persistence.

The contract under test (DESIGN.md section 9): every run the executor
prices — profiling windows, TLB-counting runs and uncached runs included
— is priced from its compiled per-(phase, page) miss histogram, and the
result is **bit-exact** with replaying the access stream.  The miss
observer and the TLB see exactly what the interleaved replay loop
(:func:`replay_reference`, kept here as the reference) gave them.  A
profile that does not describe its trace is an error, and profiles
survive the store boundary (CRC rejection, rebuild) without ever
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
from repro.sim.metrics import RunCost
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


def replay_reference(executor, trace, hits, miss_observer=None):
    """Price ``trace`` by replaying its access stream, phase by phase.

    The interleaved loop every pricing path is checked against: per
    phase it feeds the observer the (prefetch-thinned) miss addresses,
    counts TLB misses when the executor asks for them, and prices the
    phase from its per-access miss tiers.  Returns the cost and the
    per-phase TLB misses.
    """
    system = executor.system
    cost = RunCost()
    tlb_by_phase = []
    offset = 0
    for phase in trace:
        n = len(phase)
        miss_mask = ~hits[offset : offset + n]
        offset += n
        miss_addrs = phase.addrs[miss_mask]
        miss_tiers = system.address_space.tiers_of(miss_addrs)
        if miss_observer is not None:
            if executor._prefetcher is not None:
                miss_observer.observe_misses(
                    executor._prefetcher.residual_misses(miss_addrs)
                )
            elif phase.prefetchable:
                miss_observer.observe_misses(
                    miss_addrs[:: executor._prefetch_stride]
                )
            else:
                miss_observer.observe_misses(miss_addrs)
        tlb_misses = 0
        if executor.count_tlb:
            shifts = system.address_space.map_shifts_of(phase.addrs)
            tlb_misses = system.tlb.count_misses(phase.addrs, shifts)
            tlb_misses += int(system.tlb_background_miss_rate * n)
        tlb_by_phase.append(tlb_misses)
        phase_cost = system.cost_model.phase_cost(phase, miss_mask, miss_tiers)
        cost.add_phase(
            seconds=phase_cost.seconds,
            n_accesses=phase_cost.n_accesses,
            n_misses=phase_cost.n_misses,
            miss_by_tier=phase_cost.miss_by_tier,
            tlb_misses=tlb_misses,
            label=phase.label,
        )
    return cost, tlb_by_phase


@pytest.fixture
def no_replay(monkeypatch):
    """Fail the test if any run is priced by replay (oracle disarmed)."""
    monkeypatch.delenv(VERIFY_ENV, raising=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a run was priced by replay")

    monkeypatch.setattr(TraceExecutor, "_replay", refuse)


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
    replayed, _ = replay_reference(executor, trace, hits)
    profiled = executor.run(trace, hits=hits, profile=profile)
    assert replayed.n_misses > 0, "setup produced no misses; parity vacuous"
    run_costs_equal(profiled, replayed)
    run_costs_equal(executor.run(trace), replayed)  # uncached: built here


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
# one pricing path: observer, TLB and uncached runs are profile-priced
# ----------------------------------------------------------------------
def pr_fixture():
    """A fresh system running PR on the slow tier, with its mask and profile."""
    _, system, runtime = priced_setup()
    app = make_app("PR")
    app.register(runtime)
    trace = app.run_once()
    hits = system.llc.hit_mask(trace.all_addresses())
    return system, runtime, trace, hits, build_profile(trace, hits)


def test_profile_path_increments_profile_counter(no_replay):
    """Every priced run is profile-priced, so ``executor.runs`` counts them."""
    system, _, trace, hits, profile = pr_fixture()
    before = counter("executor.runs")
    TraceExecutor(system).run(trace, hits=hits, profile=profile)
    assert counter("executor.runs") == before + 1


def test_miss_observer_run_is_profile_priced(no_replay):
    """A profiling-window run prices from the profile, bit-equal to uncached."""
    system, runtime, trace, hits, profile = pr_fixture()
    runtime.atmem_profiling_start()
    observed = TraceExecutor(system).run(
        trace, miss_observer=runtime, hits=hits, profile=profile
    )
    runtime.atmem_profiling_stop()
    assert runtime.profiler.estimated_miss_counts()
    run_costs_equal(observed, TraceExecutor(system).run(trace))


@pytest.mark.parametrize("prefetch_mode", ["hint", "model"])
def test_observer_sees_the_replay_reference_stream(prefetch_mode, no_replay):
    """The profiler's counts equal what the interleaved replay loop fed it."""
    system, runtime, trace, hits, profile = pr_fixture()
    executor = TraceExecutor(system, prefetch_mode=prefetch_mode)
    runtime.atmem_profiling_start()
    cost = executor.run(trace, miss_observer=runtime, hits=hits, profile=profile)
    runtime.atmem_profiling_stop()

    ref_system, ref_runtime, ref_trace, ref_hits, _ = pr_fixture()
    ref_executor = TraceExecutor(ref_system, prefetch_mode=prefetch_mode)
    ref_runtime.atmem_profiling_start()
    ref_cost, _ = replay_reference(
        ref_executor, ref_trace, ref_hits, miss_observer=ref_runtime
    )
    ref_runtime.atmem_profiling_stop()

    counts = runtime.profiler.estimated_miss_counts()
    ref_counts = ref_runtime.profiler.estimated_miss_counts()
    assert counts.keys() == ref_counts.keys()
    assert any(c.sum() for c in ref_counts.values()), "no samples; vacuous"
    for name, ref in ref_counts.items():
        np.testing.assert_array_equal(counts[name], ref)
    run_costs_equal(cost, ref_cost)


def test_count_tlb_keeps_tlb_counts(no_replay):
    """TLB misses per phase, across runs, match the replay reference."""
    system, _, trace, hits, profile = pr_fixture()
    ref_system, _, ref_trace, ref_hits, _ = pr_fixture()
    tlb_system, _, tlb_trace, _, _ = pr_fixture()
    executor = TraceExecutor(system, count_tlb=True)
    ref_executor = TraceExecutor(ref_system, count_tlb=True)
    tlb_executor = TraceExecutor(tlb_system, count_tlb=True)
    for _ in range(2):  # the second run sees the TLB state the first left
        cost = executor.run(trace, hits=hits, profile=profile)
        ref_cost, ref_by_phase = replay_reference(ref_executor, ref_trace, ref_hits)
        assert tlb_executor._tlb_misses(tlb_trace) == ref_by_phase
        assert cost.tlb_misses > 0
        run_costs_equal(cost, ref_cost)


def test_mismatched_profile_raises():
    system, _, trace, hits, profile = pr_fixture()
    stale = dataclasses.replace(
        profile, phase_n=profile.phase_n[:-1], row_ptr=profile.row_ptr[:-1]
    )
    assert not stale.matches(trace)
    before = counter("executor.runs")
    with pytest.raises(TraceError, match="does not describe the trace"):
        TraceExecutor(system).run(trace, hits=hits, profile=stale)
    assert counter("executor.runs") == before


# ----------------------------------------------------------------------
# the parity oracle
# ----------------------------------------------------------------------
def test_parity_oracle_passes_on_honest_profile(monkeypatch):
    system, _, trace, hits, profile = pr_fixture()
    monkeypatch.setenv(VERIFY_ENV, "1")
    checks_before = counter("pricing.parity_checks")
    failures_before = counter("pricing.parity_failures")
    TraceExecutor(system).run(trace, hits=hits, profile=profile)
    assert counter("pricing.parity_checks") == checks_before + 1
    assert counter("pricing.parity_failures") == failures_before


def test_parity_oracle_catches_doctored_counts(monkeypatch):
    system, _, trace, hits, profile = pr_fixture()
    doctored = dataclasses.replace(profile, counts=profile.counts + 1)
    assert doctored.matches(trace)  # shape-level check cannot see this
    monkeypatch.setenv(VERIFY_ENV, "1")
    before = counter("pricing.parity_failures")
    with pytest.raises(TraceError, match="diverged from replay"):
        TraceExecutor(system).run(trace, hits=hits, profile=doctored)
    assert counter("pricing.parity_failures") == before + 1


def test_parity_oracle_catches_permuted_labels(monkeypatch):
    """Totals agree, but the per-label breakdown does not: must raise."""
    system, _, trace, hits, profile = pr_fixture()
    permuted = dataclasses.replace(profile, labels=profile.labels[::-1])
    assert permuted.labels != profile.labels
    assert permuted.matches(trace)
    monkeypatch.setenv(VERIFY_ENV, "1")
    before = counter("pricing.parity_failures")
    with pytest.raises(TraceError, match="diverged from replay"):
        TraceExecutor(system).run(trace, hits=hits, profile=permuted)
    assert counter("pricing.parity_failures") == before + 1


def test_parity_oracle_leaves_tlb_state_alone(monkeypatch):
    """The oracle's replay never touches the TLB, whose state spans runs."""
    def two_runs():
        system, _, trace, hits, profile = pr_fixture()
        executor = TraceExecutor(system, count_tlb=True)
        return [
            executor.run(trace, hits=hits, profile=profile).tlb_misses
            for _ in range(2)
        ]

    expected = two_runs()
    monkeypatch.setenv(VERIFY_ENV, "1")
    assert two_runs() == expected


# ----------------------------------------------------------------------
# experiment flows
# ----------------------------------------------------------------------
def test_run_static_prices_measure_segments_from_profile():
    platform = nvm_dram_testbed()
    spec = AppSpec.make("PR", "pokec", scale=SCALE)
    plain = run_static(spec, platform, "slow")
    before = counter("executor.runs")
    cached = run_static(
        spec, platform, "slow",
        trace_cache=TraceCache(), trace_key=spec.trace_key(),
    )
    assert counter("executor.runs") == before + 2  # both iterations
    run_costs_equal(cached.second_iteration, plain.second_iteration)


def test_run_atmem_prices_both_iterations_from_profile(no_replay):
    platform = nvm_dram_testbed()
    spec = AppSpec.make("PR", "pokec", scale=SCALE)
    plain = run_atmem(spec, platform)
    cache = TraceCache()
    before = counter("executor.runs")
    cached = run_atmem(spec, platform, trace_cache=cache, trace_key=spec.trace_key())
    # The profiling window and the measured iteration both take the
    # cached profile: built once, served once.
    assert counter("executor.runs") == before + 2
    assert cache.stats.profile_misses == 1
    assert cache.stats.profile_hits == 1
    run_costs_equal(cached.second_iteration, plain.second_iteration)
    run_costs_equal(cached.first_iteration, plain.first_iteration)


def test_verified_run_atmem_checks_every_run(monkeypatch):
    """Under ``REPRO_VERIFY=1`` the oracle replays every priced run."""
    monkeypatch.setenv(VERIFY_ENV, "1")
    platform = nvm_dram_testbed()
    spec = AppSpec.make("PR", "pokec", scale=SCALE)
    runs = counter("executor.runs")
    checks = counter("pricing.parity_checks")
    failures = counter("pricing.parity_failures")
    run_atmem(spec, platform, trace_cache=TraceCache(), trace_key=spec.trace_key())
    assert counter("executor.runs") - runs == 2
    assert counter("pricing.parity_checks") - checks == 2
    assert counter("pricing.parity_failures") == failures


# ----------------------------------------------------------------------
# the profile artifact itself
# ----------------------------------------------------------------------
def test_build_profile_rejects_wrong_mask_length():
    _, _, trace, hits, _ = pr_fixture()
    with pytest.raises(TraceError, match="does not match trace"):
        build_profile(trace, hits[:-1])


def test_profile_totals_match_trace():
    _, _, trace, hits, profile = pr_fixture()
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
    _, _, _, _, profile = pr_fixture()
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
    _, _, _, _, profile = pr_fixture()
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
    _, _, _, _, profile = pr_fixture()
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
