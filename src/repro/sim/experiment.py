"""The paper's experiment flows.

Three kinds of runs, all following the paper's methodology (Section 6):
profile/warm on the first iteration, measure the second iteration.

- :func:`run_static` — a fixed placement for the whole run:
  ``"slow"`` (the baseline: everything on NVM / on KNL DRAM),
  ``"fast"`` (the all-DRAM ideal on the NVM testbed),
  ``"preferred"`` (``numactl -p``: spill to the slow tier when the fast
  tier fills, the MCDRAM-p reference of Figure 6).
- :func:`run_atmem` — the full ATMem flow: register on the slow tier,
  profile iteration 1, analyze + migrate, measure iteration 2.
- :func:`run_coarse_grained` — the whole-data-structure placement baseline
  (Tahoe-style, Section 8 "data placement" related work): same profiling,
  but placement decisions at object granularity.

All flows take their deterministic traces and LLC hit masks through a
:class:`repro.sim.tracecache.TraceCache`, which (when ``REPRO_TRACE_STORE``
is set) is backed by the persistent on-disk store in
:mod:`repro.sim.tracestore` — so repeated runs of the same (app, dataset,
scale) pay the trace/mask cost once per store lifetime, not once per
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.base import GraphApp
from repro.config import PlatformConfig
from repro.core.analyzer import AnalyzerConfig, AtMemAnalyzer, PlacementDecision
from repro.core.migration import MigrationStats, MultiStageMigrator
from repro.core.runtime import AtMemRuntime, RuntimeConfig
from repro.errors import ConfigurationError
from repro.mem.address_space import PAGE_SIZE
from repro.mem.trace import AccessTrace
from repro.obs.tracer import span
from repro.sim.executor import TraceExecutor
from repro.sim.metrics import RunCost
from repro.sim.profilepack import TraceProfile
from repro.sim.tracecache import TraceCache

PLACEMENTS = ("slow", "fast", "preferred", "interleave")


class _RunPlan:
    """Trace, hit-mask and compiled-profile supplier for one flow's runs.

    Without a cache this regenerates the trace per iteration (correct for
    any app) and leaves the mask and profile to the executor.  With a
    cache, the trace, its LLC hit mask and its compiled profile are built
    once per content key and shared across iterations, placements, and
    sweep points — valid because ``run_once`` is contractually idempotent
    and virtual addresses are assigned deterministically in registration
    order (verified by ``tests/test_sim_tracecache.py``).  Profiling and
    measure iterations take the same triple: every run is profile-priced.
    """

    def __init__(self, app: GraphApp, system, cache: TraceCache | None, key) -> None:
        self._app = app
        self._system = system
        self._cache = cache if key is not None else None
        self._key = key

    def next_run(
        self,
    ) -> tuple[AccessTrace, np.ndarray | None, TraceProfile | None]:
        """The (trace, hits, profile) triple for the next iteration."""
        if self._cache is None:
            return self._app.run_once(), None, None
        llc = self._system.llc
        trace = self._cache.trace(self._key, self._app.run_once)
        hits = self._cache.hit_mask(self._key, llc, trace)
        profile = self._cache.profile(self._key, llc, trace, hits)
        return trace, hits, profile


@dataclass
class StaticRunResult:
    """Outcome of a fixed-placement run."""

    placement: str
    first_iteration: RunCost
    second_iteration: RunCost
    fast_ratio: float

    @property
    def seconds(self) -> float:
        """The paper's reported metric: second-iteration time."""
        return self.second_iteration.seconds


@dataclass
class AtMemRunResult:
    """Outcome of the full ATMem flow."""

    first_iteration: RunCost  # baseline placement, profiling on
    second_iteration: RunCost  # after migration
    decision: PlacementDecision
    migration: MigrationStats
    profiling_overhead_seconds: float
    data_ratio: float

    @property
    def seconds(self) -> float:
        return self.second_iteration.seconds

    @property
    def one_time_overhead_seconds(self) -> float:
        """Costs paid once, amortised over later iterations (Section 7.4)."""
        return self.profiling_overhead_seconds + self.migration.seconds


def _register_static(
    app: GraphApp, runtime: AtMemRuntime, placement: str
) -> None:
    """Register the app's arrays under a fixed placement policy."""
    system = runtime.system
    if placement == "slow":
        runtime.default_tier = system.slow_tier
        app.register(runtime)
        return
    if placement == "fast":
        runtime.default_tier = system.fast_tier
        app.register(runtime)
        return
    if placement == "preferred":
        # numactl -p: pages go to the fast node until it is full, then
        # silently spill — in allocation order, at page granularity.
        class _PreferredRegistry:
            def register_array(self, name: str, array: np.ndarray):
                return runtime.register_array_preferred(name, array)

        app.register(_PreferredRegistry())
        return
    if placement == "interleave":
        # numactl -i: round-robin pages across the nodes.
        class _InterleaveRegistry:
            def register_array(self, name: str, array: np.ndarray):
                return runtime.register_array_interleaved(name, array)

        app.register(_InterleaveRegistry())
        return
    raise ConfigurationError(
        f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
    )


def run_static(
    app_factory: Callable[[], GraphApp],
    platform: PlatformConfig,
    placement: str,
    *,
    count_tlb: bool = False,
    trace_cache: TraceCache | None = None,
    trace_key=None,
) -> StaticRunResult:
    """Run an app twice under a fixed placement; report the second iteration."""
    system = platform.build_system()
    runtime = AtMemRuntime(system, platform=platform)
    app = app_factory()
    _register_static(app, runtime, placement)
    executor = TraceExecutor(system, count_tlb=count_tlb)
    plan = _RunPlan(app, system, trace_cache, trace_key)
    trace, hits, profile = plan.next_run()
    first = executor.run(trace, hits=hits, profile=profile)
    trace, hits, profile = plan.next_run()
    second = executor.run(trace, hits=hits, profile=profile)
    return StaticRunResult(
        placement=placement,
        first_iteration=first,
        second_iteration=second,
        fast_ratio=runtime.fast_tier_ratio(),
    )


def run_atmem(
    app_factory: Callable[[], GraphApp],
    platform: PlatformConfig,
    *,
    runtime_config: RuntimeConfig | None = None,
    count_tlb: bool = False,
    trace_cache: TraceCache | None = None,
    trace_key=None,
) -> AtMemRunResult:
    """The full ATMem flow (paper Section 6 methodology).

    Iteration 1 runs on the baseline placement with hardware profiling on;
    data migrates before iteration 2; iteration 2 is the reported time.
    """
    system = platform.build_system()
    runtime = AtMemRuntime(system, config=runtime_config or RuntimeConfig(), platform=platform)
    app = app_factory()
    with span("phase.register", cat="runtime", app=type(app).__name__):
        app.register(runtime)
    executor = TraceExecutor(system, count_tlb=count_tlb)
    plan = _RunPlan(app, system, trace_cache, trace_key)

    with span("phase.profile", cat="runtime"):
        runtime.atmem_profiling_start()
        trace, hits, profile = plan.next_run()
        first = executor.run(
            trace, miss_observer=runtime, hits=hits, profile=profile
        )
        runtime.atmem_profiling_stop()
    decision, migration = runtime.atmem_optimize()
    with span("phase.measure", cat="runtime"):
        trace, hits, profile = plan.next_run()
        second = executor.run(trace, hits=hits, profile=profile)
    return AtMemRunResult(
        first_iteration=first,
        second_iteration=second,
        decision=decision,
        migration=migration,
        profiling_overhead_seconds=runtime.profiling_overhead_seconds(),
        data_ratio=runtime.fast_tier_ratio(),
    )


def run_coarse_grained(
    app_factory: Callable[[], GraphApp],
    platform: PlatformConfig,
    *,
    trace_cache: TraceCache | None = None,
    trace_key=None,
) -> AtMemRunResult:
    """Whole-data-structure placement baseline (Tahoe-style).

    Uses the same profiler, but ranks whole objects by miss density and
    moves entire objects (highest density first) until the fast tier is
    full — the state of the art the paper improves on (Sections 1-2).
    """
    system = platform.build_system()
    runtime = AtMemRuntime(system, platform=platform)
    app = app_factory()
    app.register(runtime)
    executor = TraceExecutor(system)
    plan = _RunPlan(app, system, trace_cache, trace_key)

    runtime.atmem_profiling_start()
    trace, hits, profile = plan.next_run()
    first = executor.run(trace, miss_observer=runtime, hits=hits, profile=profile)
    runtime.atmem_profiling_stop()

    profiler = runtime.profiler
    assert profiler is not None
    counts = profiler.estimated_miss_counts()
    density = {
        name: float(chunk_counts.sum()) / runtime.objects[name].nbytes
        for name, chunk_counts in counts.items()
    }
    migrator = MultiStageMigrator(
        system,
        migration_threads=platform.migration_threads,
        region_overhead_ns=platform.atmem_region_overhead_ns,
    )
    stats = MigrationStats(mechanism="coarse")
    for name in sorted(density, key=density.get, reverse=True):
        obj = runtime.objects[name]
        n_pages = -(-obj.nbytes // PAGE_SIZE)
        if density[name] <= 0.0:
            break
        if not system.allocators[system.fast_tier].can_allocate(n_pages):
            continue
        stats.merge(migrator.migrate(obj, [(0, obj.nbytes)], system.fast_tier))
    # Synthesise an all-or-nothing decision for reporting symmetry.
    analyzer = AtMemAnalyzer(AnalyzerConfig())
    decision = analyzer.analyze(
        counts, runtime.geometries, sampling_period=profiler.period
    )
    trace, hits, profile = plan.next_run()
    second = executor.run(trace, hits=hits, profile=profile)
    return AtMemRunResult(
        first_iteration=first,
        second_iteration=second,
        decision=decision,
        migration=stats,
        profiling_overhead_seconds=runtime.profiling_overhead_seconds(),
        data_ratio=runtime.fast_tier_ratio(),
    )
