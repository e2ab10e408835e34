"""Multi-tenant fast memory (the paper's Section 1 server scenario).

"Applications running on servers need to share all resources, resulting
in even smaller high-performance memory available to an application."
ATMem's per-byte efficiency argument (Objective I) is strongest exactly
there: a tenant that grabs whole structures starves its neighbours, while
a tenant that takes only its critical chunks leaves room for everyone.

:class:`MultiTenantHost` runs several applications against **one**
memory system (shared fast-tier allocator).  Each tenant gets its own
ATMem runtime and its own profile/optimize cycle; placement decisions
compete for whatever fast capacity is left when they run.  The host
reports per-tenant speedups and the fast-memory footprint each one took.

**Recipe keys, relative frames.**  A tenant's objects are consecutive,
page-aligned bump reservations, so two admits of one recipe lay their
objects out identically relative to the first one and differ by a single
page-aligned shift.  Through a :attr:`MultiTenantHost.trace_cache` a
tenant's trace is therefore keyed by its recipe and that relative layout
(plus its phase) and cached *relative to the tenant's base* — every
admit of the recipe, behind any neighbours, shares one trace and one
reuse fold.  The shift moves every line by the same whole number of
lines, so reuse gaps and hit masks are bit-identical; it only renames
pages.  So only what reads absolute addresses is relocated: the miss
profile (``pages + (base >> PAGE_SHIFT)``) and the miss-observer feed.

**Phase chains, one row each.**  After a :meth:`MultiTenantHost.phase_change`
the tenant's stream is cumulative, so phase k's trace is phase k−1's
plus one run.  Phases 1, 2, ... of a chain are read-only prefix views of
one append-only address row, and their reuse profiles' gaps of one gap
row (:func:`repro.mem.trace.append_to_row`): building phase k from the
cached phase k−1 writes only the new run and its gaps.  A phase rebuilt
from an older link (its cached copy was evicted while a plan still holds
it) copies into a fresh row, so no view that is handed out ever changes;
``chain.appends`` and ``chain.copies`` count the two cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.apps.base import GraphApp
from repro.config import PlatformConfig
from repro.core.runtime import AtMemRuntime, RuntimeConfig
from repro.errors import ConfigurationError, ConsistencyError
from repro.mem.address_space import PAGE_SHIFT, PAGE_SIZE
from repro.mem.cache import verify_armed
from repro.mem.trace import AccessTrace
from repro.obs.bus import emit
from repro.obs.metrics import process_metrics
from repro.sim.executor import MissObserver, TraceExecutor
from repro.sim.metrics import RunCost
from repro.sim.profilepack import TraceProfile, build_profile
from repro.sim.tracecache import TraceCache


class _PrefixedRegistry:
    """The *full* runtime registry surface under one tenant's prefix.

    Tenants must not collide on object names within the shared address
    space, so every registration method the runtime offers — plain,
    NUMA-preferred, NUMA-interleaved, ``atmem_malloc``, ``atmem_free`` —
    is forwarded with the tenant name prepended.  An app written against
    any :class:`~repro.core.runtime.AtMemRuntime` entry point therefore
    works unchanged under multitenancy.
    """

    def __init__(self, runtime: AtMemRuntime, prefix: str) -> None:
        self._runtime = runtime
        self._prefix = prefix

    def _name(self, obj_name: str) -> str:
        return f"{self._prefix}/{obj_name}"

    def register_array(self, obj_name, array, *, tier=None):
        return self._runtime.register_array(self._name(obj_name), array, tier=tier)

    def register_array_preferred(self, obj_name, array):
        return self._runtime.register_array_preferred(self._name(obj_name), array)

    def register_array_interleaved(self, obj_name, array):
        return self._runtime.register_array_interleaved(self._name(obj_name), array)

    def atmem_malloc(self, obj_name, size, dtype=np.int64):
        return self._runtime.atmem_malloc(self._name(obj_name), size, dtype=dtype)

    def atmem_free(self, obj) -> None:
        if isinstance(obj, str):
            obj = self._name(obj)
        self._runtime.atmem_free(obj)


class _RelocatedObserver:
    """Hands a runtime the misses of a relative trace at absolute addresses."""

    def __init__(self, observer: MissObserver, base: int) -> None:
        self._observer = observer
        self._base = base

    def observe_misses(self, miss_addrs: np.ndarray) -> None:
        self._observer.observe_misses(miss_addrs + self._base)


@dataclass(frozen=True)
class TenantPlan:
    """What one tenant's profile leaves for its measure.

    ``trace`` and ``hits`` are in the tenant's frame: relative to
    ``base`` (its first reservation) when they came through the trace
    cache, absolute with ``base`` 0 otherwise.  ``profile`` always has
    absolute pages — a cached one is relocated by ``base`` once, here.
    """

    trace: AccessTrace
    hits: np.ndarray
    profile: TraceProfile
    base: int = 0


@dataclass
class TenantResult:
    """Outcome for one tenant on the shared host."""

    name: str
    baseline: RunCost
    optimized: RunCost
    fast_bytes: int
    data_ratio: float

    @property
    def speedup(self) -> float:
        return self.baseline.seconds / self.optimized.seconds


@dataclass
class MultiTenantHost:
    """Several applications sharing one simulated memory system."""

    platform: PlatformConfig
    runtime_config: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: Optional shared cache for tenant traces and their artifacts.  Keys
    #: name a tenant's recipe and relative object layout, not its
    #: addresses (see :meth:`_tenant_frame`): one recipe admitted behind
    #: any neighbours shares one trace, cached relative to its base.  A
    #: tenant whose factory has no ``trace_key`` runs uncached.
    trace_cache: TraceCache | None = None

    def __post_init__(self) -> None:
        self.system = self.platform.build_system()
        self.executor = TraceExecutor(self.system)
        self._tenants: list[tuple[str, GraphApp, AtMemRuntime, tuple | None]] = []
        #: Per-tenant phase counter; absent = phase 0 (the admit-time
        #: behaviour).  Bumped by :meth:`phase_change`, restored by the
        #: serving layer's recovery via :meth:`set_phase`.
        self._phases: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _tenant_frame(self, name: str) -> tuple[tuple, int] | None:
        """The tenant's trace key and base address; ``None`` if unkeyable.

        The key is ``("mt", platform, recipe, layout)``: ``layout`` holds
        each object's ``(name, offset from base, nbytes)``, which with
        the recipe covers everything the trace depends on once it is
        taken relative to ``base``, the tenant's first (page-aligned)
        reservation.
        """
        _, _, runtime, recipe = self.tenant(name)
        objects = list(runtime.objects.values())
        if recipe is None or not objects:
            return None
        base = min(obj.base_va for obj in objects)
        prefix = len(name) + 1
        layout = tuple(
            (obj.name[prefix:], obj.base_va - base, obj.nbytes) for obj in objects
        )
        return ("mt", self.platform.name, recipe, layout), base

    def admit(self, name: str, app_factory: Callable[[], GraphApp]) -> GraphApp:
        """Register a tenant's application on the shared system."""
        if any(t[0] == name for t in self._tenants):
            raise ConfigurationError(f"tenant {name!r} already admitted")
        key_fn = getattr(app_factory, "trace_key", None)
        recipe = key_fn() if callable(key_fn) else None
        runtime = AtMemRuntime(
            self.system, config=self.runtime_config, platform=self.platform
        )
        app = app_factory()
        app.register(_PrefixedRegistry(runtime, name))
        self._tenants.append((name, app, runtime, recipe))
        return app

    def depart(self, name: str) -> None:
        """Release a tenant: unmap its pages and drop its objects.

        Every page the tenant's objects mapped goes back to its tier's
        allocator (``atmem_free`` unmaps the whole range regardless of
        which tier each page migrated to), and the tenant leaves the
        admission order.  A :meth:`check_consistency` audit
        runs afterwards so a buggy release cannot silently leak frames
        into later placements.
        """
        for i, (t_name, _, runtime, _) in enumerate(self._tenants):
            if t_name == name:
                break
        else:
            raise ConfigurationError(f"tenant {name!r} not admitted")
        for obj in list(runtime.objects.values()):
            runtime.atmem_free(obj)
        del self._tenants[i]
        self._phases.pop(name, None)
        emit("tenant.depart", detail=name, source="multitenant")
        violations = self.system.check_consistency()
        if violations:
            raise ConsistencyError(
                f"departure of {name!r} left inconsistent state: "
                + "; ".join(violations[:3])
            )

    # ------------------------------------------------------------------
    def run(self) -> dict[str, TenantResult]:
        """Profile, optimize, and measure every tenant, in admission order.

        Earlier tenants optimize first and get first pick of the fast
        tier; later tenants see whatever capacity is left — the shared-
        server dynamics the paper describes.  The three phases are public
        so harnesses (the chaos matrix's mid-run capacity squeeze in
        particular) can install faults between them.
        """
        plans, baselines = self.profile()
        self.optimize()
        return self.measure(plans, baselines)

    def profile(self) -> tuple[dict[str, TenantPlan], dict[str, RunCost]]:
        """Phase 1: everyone profiles on the baseline placement.

        Each tenant's trace, LLC hit mask and miss profile are kept for
        the measure phase (:class:`TenantPlan`): ``run_once`` is
        contractually idempotent and neither artifact depends on
        placement, so the measured iteration reuses all three.  With a
        :attr:`trace_cache` they are fetched through it under the
        tenant's recipe key (see :meth:`profile_tenant`).
        """
        baselines: dict[str, RunCost] = {}
        plans: dict[str, TenantPlan] = {}
        for name, _, _, _ in self._tenants:
            plans[name], baselines[name] = self.profile_tenant(name)
        return plans, baselines

    def optimize(self) -> None:
        """Phase 2: optimize in admission order (first come, first placed)."""
        for name, _, _, _ in self._tenants:
            self.optimize_tenant(name)

    def measure(
        self, plans: dict[str, TenantPlan], baselines: dict[str, RunCost]
    ) -> dict[str, TenantResult]:
        """Phase 3: everyone measures on the final shared placement."""
        results: dict[str, TenantResult] = {}
        for name, _, _, _ in self._tenants:
            results[name] = self.measure_tenant(
                name, plans[name], baselines[name]
            )
        return results

    # -- per-tenant phases (the serving layer drives these one at a time)
    def tenant(self, name: str) -> tuple[str, GraphApp, AtMemRuntime, tuple | None]:
        """Look up one admitted tenant's record by name."""
        for entry in self._tenants:
            if entry[0] == name:
                return entry
        raise ConfigurationError(f"tenant {name!r} not admitted")

    # -- execution phases ------------------------------------------------
    def phase_of(self, name: str) -> int:
        """The tenant's current execution phase (0 = admit-time)."""
        self.tenant(name)
        return self._phases.get(name, 0)

    def phase_change(self, name: str) -> int:
        """Record that a tenant entered a new execution phase.

        Returns the new phase number.  The tenant's profiled stream is
        *cumulative*: phase *k* covers the original run plus *k* further
        runs of the idempotent ``run_once`` (the deterministic stand-in
        for "the application kept executing"), so each phase's trace is
        a strict prefix of the next — exactly the property the
        incremental reuse extension (:meth:`TraceCache.reuse_profile`
        with ``extend_from``) relies on.
        """
        self.tenant(name)
        k = self._phases.get(name, 0) + 1
        self._phases[name] = k
        emit("tenant.phase", detail=f"{name}:{k}", source="multitenant")
        return k

    def set_phase(self, name: str, phase: int) -> None:
        """Restore a tenant's phase counter (the recovery path)."""
        phase = int(phase)
        if phase < 0:
            raise ConfigurationError(f"phase must be >= 0, got {phase}")
        self.tenant(name)
        if phase == 0:
            self._phases.pop(name, None)
        else:
            self._phases[name] = phase

    @staticmethod
    def _phase_key(key: tuple | None, phase: int) -> tuple | None:
        """The content key of one phase's cumulative trace."""
        if key is None or phase == 0:
            return key
        return key + (("phase", phase),)

    @staticmethod
    def _phase_trace(
        app: GraphApp,
        phase: int,
        *,
        origin: int = 0,
        prev: AccessTrace | None = None,
    ) -> AccessTrace:
        """The cumulative stream through ``phase`` runs past the first.

        Addresses are taken relative to ``origin``.  ``prev``, phase
        ``phase - 1``'s trace in the same frame, saves all but one run.
        Each run is added with :meth:`AccessTrace.appended`, so the
        phases of a chain from 1 on are prefix views of one append-only
        row: phase k built from the row's tip, phase k−1, writes only its
        own run, and phase k−1 keeps its view.
        """

        def run() -> AccessTrace:
            trace = app.run_once()
            return trace.shifted(-origin) if origin else trace

        trace = prev if prev is not None else run()
        for _ in range(1 if prev is not None else phase):
            trace = trace.appended(run())
        return trace

    def profile_tenant(self, name: str) -> tuple[TenantPlan, RunCost]:
        """Profile one tenant on its current placement; returns (plan, baseline).

        With a :attr:`trace_cache` the trace, hit mask and miss profile
        are cached under the tenant's recipe key in its relative frame
        (:meth:`_tenant_frame`), and only the miss profile and the
        observer feed are relocated to this tenant's base.  After a
        :meth:`phase_change` the stream is the phase's cumulative trace
        under a phase-suffixed key: it is built from the cached previous
        phase plus one run, and that phase's reuse profile (if still
        cached) is extended over the delta only — ``stage.reuse_extend``
        instead of a whole-stream ``stage.reuse_build``.
        """
        _, app, runtime, _ = self.tenant(name)
        phase = self._phases.get(name, 0)
        frame = self._tenant_frame(name) if self.trace_cache is not None else None
        runtime.atmem_profiling_start()
        if frame is None:
            trace = self._phase_trace(app, phase)
            hits = self.system.llc.hit_mask(trace.all_addresses())
            plan = TenantPlan(trace, hits, build_profile(trace, hits))
        else:
            plan = self._cached_plan(app, phase, *frame)
        baseline = self._execute(plan, runtime)
        runtime.atmem_profiling_stop()
        return plan, baseline

    def _cached_plan(
        self, app: GraphApp, phase: int, key: tuple, base: int
    ) -> TenantPlan:
        """A plan from the trace cache, relocated to ``base``."""
        cache = self.trace_cache
        llc = self.system.llc
        pkey = self._phase_key(key, phase)
        prev_key = self._phase_key(key, phase - 1) if phase else None
        trace = cache.trace(
            pkey,
            lambda: self._phase_trace(
                app, phase, origin=base, prev=cache.peek(prev_key)
            ),
        )
        if phase:
            # Prime the reuse profile with the previous phase named as
            # the extension base; hit_mask then derives from it.
            cache.reuse_profile(pkey, trace, llc.line_size, extend_from=prev_key)
        hits = cache.hit_mask(pkey, llc, trace)
        profile = cache.profile(pkey, llc, trace, hits)
        process_metrics().inc("tenant.relocations")
        return TenantPlan(trace, hits, profile.relocated(base >> PAGE_SHIFT), base)

    def _execute(
        self, plan: TenantPlan, observer: MissObserver | None = None
    ) -> RunCost:
        """Price one run of ``plan``, feeding ``observer`` absolute misses.

        The host's executor counts no TLB misses, so only the observer
        reads the trace's addresses — except the ``REPRO_VERIFY`` replay
        oracle, which gets an absolute copy of a relative trace.
        """
        trace, base = plan.trace, plan.base
        if base and verify_armed():
            trace, base = trace.shifted(base), 0
        if observer is not None and base:
            observer = _RelocatedObserver(observer, base)
        return self.executor.run(
            trace, miss_observer=observer, hits=plan.hits, profile=plan.profile
        )

    def optimize_tenant(self, name: str) -> None:
        """Run one tenant's analyze-and-migrate pass against shared capacity."""
        _, _, runtime, _ = self.tenant(name)
        runtime.atmem_optimize()

    def measure_tenant(
        self, name: str, plan: TenantPlan, baseline: RunCost
    ) -> TenantResult:
        """Measure one tenant on the current shared placement."""
        _, _, runtime, _ = self.tenant(name)
        return TenantResult(
            name=name,
            baseline=baseline,
            optimized=self._execute(plan),
            fast_bytes=self._tenant_fast_bytes(runtime),
            data_ratio=runtime.fast_tier_ratio(),
        )

    @property
    def tenants(self) -> list[tuple[str, GraphApp, AtMemRuntime, tuple | None]]:
        """The admitted tenants: ``(name, app, runtime, recipe)``.

        ``recipe`` is the factory's ``trace_key()`` (``None``: uncached).
        """
        return list(self._tenants)

    def _tenant_fast_bytes(self, runtime: AtMemRuntime) -> int:
        total = 0
        space = self.system.address_space
        for obj in runtime.objects.values():
            n_pages = -(-obj.nbytes // PAGE_SIZE)
            tiers = space.range_tiers(obj.base_va, n_pages * PAGE_SIZE)
            total += int(np.count_nonzero(tiers == self.system.fast_tier)) * PAGE_SIZE
        return total

    def fast_tier_used_bytes(self) -> int:
        """Fast memory in use across all tenants."""
        return self.system.allocators[self.system.fast_tier].used_bytes


def run_scenarios(
    scenarios,
    platform: PlatformConfig,
    *,
    runtime_config: RuntimeConfig | None = None,
    jobs: int | None = None,
    pool=None,
) -> list[dict[str, TenantResult]]:
    """Run independent shared-host scenarios, fanned out across workers.

    Each scenario is a sequence of ``(tenant_name, AppSpec)`` pairs; every
    scenario gets its own host (its own memory system), so scenarios are
    independent cells and parallelise through
    :class:`repro.sim.parallel.ExperimentPool` behind the ``jobs`` /
    ``REPRO_JOBS`` knob.  Results come back in scenario order.  Pass a
    ``pool`` to reuse one (and read its health afterwards); jobs are
    tagged ``mt/<tenant>+<tenant>`` so fault plans can target a scenario.
    """
    from repro.sim.parallel import ExperimentPool, JobSpec

    specs = [
        JobSpec(
            app=None,
            platform=platform,
            flow="multitenant",
            runtime_config=runtime_config,
            tenants=tuple(scenario),
            tag="mt/" + "+".join(name for name, _ in scenario),
        )
        for scenario in scenarios
    ]
    if pool is None:
        pool = ExperimentPool(jobs)
    return pool.run(specs)
