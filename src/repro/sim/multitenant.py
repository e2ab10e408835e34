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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.apps.base import GraphApp
from repro.config import PlatformConfig
from repro.core.runtime import AtMemRuntime, RuntimeConfig
from repro.errors import ConfigurationError, ConsistencyError
from repro.mem.address_space import PAGE_SIZE
from repro.mem.trace import AccessTrace
from repro.obs.bus import emit
from repro.sim.executor import TraceExecutor
from repro.sim.metrics import RunCost
from repro.sim.reusepack import derivable
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
    #: Optional shared cache for tenant traces / LLC hit masks.  Keys
    #: cover the *whole admission chain* (see :meth:`_tenant_key`): a
    #: tenant's virtual addresses depend on every registration before it,
    #: so the same app admitted behind different neighbours gets a
    #: different key and never shares a trace it shouldn't.
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
    def _tenant_key(self, name: str, app_factory) -> tuple | None:
        """Content key for this tenant's trace, or ``None`` if unkeyable."""
        key_fn = getattr(app_factory, "trace_key", None)
        if not callable(key_fn):
            return None
        chain = tuple((t_name, t_key) for t_name, _, _, t_key in self._tenants)
        if any(t_key is None for _, t_key in chain):
            return None  # an unkeyable neighbour makes the layout unkeyable
        return ("mt", self.platform.name, chain, (name, key_fn()))

    def admit(self, name: str, app_factory: Callable[[], GraphApp]) -> GraphApp:
        """Register a tenant's application on the shared system."""
        if any(t[0] == name for t in self._tenants):
            raise ConfigurationError(f"tenant {name!r} already admitted")
        key = self._tenant_key(name, app_factory)
        runtime = AtMemRuntime(
            self.system, config=self.runtime_config, platform=self.platform
        )
        app = app_factory()
        app.register(_PrefixedRegistry(runtime, name))
        self._tenants.append((name, app, runtime, key))
        return app

    def depart(self, name: str) -> None:
        """Release a tenant: unmap its pages and drop its objects.

        Every page the tenant's objects mapped goes back to its tier's
        allocator (``atmem_free`` unmaps the whole range regardless of
        which tier each page migrated to), and the tenant disappears
        from the admission chain.  A :meth:`check_consistency` audit
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

    def profile(self) -> tuple[dict[str, tuple], dict[str, RunCost]]:
        """Phase 1: everyone profiles on the baseline placement.

        Each tenant's trace and LLC hit mask are kept for the measure
        phase: ``run_once`` is contractually idempotent and the hit mask
        depends only on the address stream, so the measured iteration
        reuses both instead of recomputing them.  With a
        :attr:`trace_cache` both artifacts are fetched through it under
        the tenant's admission-chain key.
        """
        baselines: dict[str, RunCost] = {}
        plans: dict[str, tuple] = {}
        for name, _, _, _ in self._tenants:
            plans[name], baselines[name] = self.profile_tenant(name)
        return plans, baselines

    def optimize(self) -> None:
        """Phase 2: optimize in admission order (first come, first placed)."""
        for name, _, _, _ in self._tenants:
            self.optimize_tenant(name)

    def measure(
        self, plans: dict[str, tuple], baselines: dict[str, RunCost]
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
    def _phase_trace(app: GraphApp, phase: int) -> AccessTrace:
        """The cumulative stream through ``phase`` runs past the first."""
        trace = app.run_once()
        if phase == 0:
            return trace
        full = AccessTrace()
        full.extend(trace)
        for _ in range(phase):
            full.extend(app.run_once())
        return full

    def profile_tenant(self, name: str) -> tuple[tuple, RunCost]:
        """Profile one tenant on its current placement; returns (plan, baseline).

        After a :meth:`phase_change` the profiled stream is the phase's
        cumulative trace under a phase-suffixed key; when the LLC's masks
        are reuse-derivable, the previous phase's profile (if still
        cached) is extended over the delta only — ``stage.reuse_extend``
        instead of a whole-stream ``stage.reuse_build``.
        """
        _, app, runtime, key = self.tenant(name)
        phase = self._phases.get(name, 0)
        pkey = self._phase_key(key, phase)
        runtime.atmem_profiling_start()
        if self.trace_cache is not None and pkey is not None:
            trace = self.trace_cache.trace(
                pkey, lambda: self._phase_trace(app, phase)
            )
            if phase > 0 and derivable(self.system.llc):
                # Prime the reuse profile with the previous phase named
                # as the extension base; hit_mask then derives from it.
                self.trace_cache.reuse_profile(
                    pkey,
                    trace,
                    self.system.llc.line_size,
                    extend_from=self._phase_key(key, phase - 1),
                )
            hits = self.trace_cache.hit_mask(pkey, self.system.llc, trace)
            profile = self.trace_cache.profile(pkey, self.system.llc, trace, hits)
        else:
            trace = self._phase_trace(app, phase)
            hits = self.system.llc.hit_mask(trace.all_addresses())
            profile = None
        baseline = self.executor.run(
            trace, miss_observer=runtime, hits=hits, profile=profile
        )
        runtime.atmem_profiling_stop()
        return (trace, hits), baseline

    def optimize_tenant(self, name: str) -> None:
        """Run one tenant's analyze-and-migrate pass against shared capacity."""
        _, _, runtime, _ = self.tenant(name)
        runtime.atmem_optimize()

    def measure_tenant(
        self, name: str, plan: tuple, baseline: RunCost
    ) -> TenantResult:
        """Measure one tenant on the current shared placement."""
        _, _, runtime, key = self.tenant(name)
        pkey = self._phase_key(key, self._phases.get(name, 0))
        trace, hits = plan
        profile = None
        if self.trace_cache is not None and pkey is not None:
            profile = self.trace_cache.profile(pkey, self.system.llc, trace, hits)
        optimized = self.executor.run(trace, hits=hits, profile=profile)
        return TenantResult(
            name=name,
            baseline=baseline,
            optimized=optimized,
            fast_bytes=self._tenant_fast_bytes(runtime),
            data_ratio=runtime.fast_tier_ratio(),
        )

    @property
    def tenants(self) -> list[tuple[str, GraphApp, AtMemRuntime, tuple | None]]:
        """The admitted tenants: ``(name, app, runtime, trace_key)``."""
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
