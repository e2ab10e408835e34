"""The chaos seed matrix and the harness that proves recovery works.

Every entry of :func:`seed_matrix` is a named, fixed-seed
:class:`~repro.faults.plan.FaultPlan` exercising one injection site.
:func:`run_case` executes the matching experiment flow twice — once
fault-free, once under the plan — and checks the recovery contract:

- the chaos run **completes** (no fault escapes the recovery paths);
- for transient faults its committed figures are **bit-identical** to
  the fault-free run (an aborted migration pass rolls back and retries,
  a crashed worker is resubmitted, a corrupted cache entry is recomputed
  — none of it may leak into reported numbers);
- for the in-process flows the memory system passes the allocator /
  page-table **consistency audit** afterwards (no leaked or double-freed
  frames survive a rollback);
- the plan actually **fired** (a chaos case that injects nothing proves
  nothing).

The persistent ``capacity.squeeze`` plan is the one deliberate
exception to bit-identity: it models a smaller fast tier, so the run
must *degrade* — complete, stay consistent, and place no more fast-tier
bytes than the fault-free run — rather than reproduce it.

``make chaos`` and ``repro chaos`` run the whole matrix; the
``chaos``-marked tests in ``tests/test_chaos_matrix.py`` do the same
under pytest.  Import note: this module pulls in the experiment stack,
which is why ``repro.faults`` does not import it eagerly.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import PlatformConfig, nvm_dram_testbed
from repro.core.analyzer import AtMemAnalyzer
from repro.core.runtime import AtMemRuntime, RuntimeConfig
from repro.mem.address_space import PAGE_SIZE
from repro.faults.injector import InjectedWorkerCrash, injected
from repro.faults.plan import (
    FAULT_PLAN_ENV,
    SITE_ALLOC,
    SITE_CACHE_CORRUPT,
    SITE_CAPACITY_SQUEEZE,
    SITE_MIGRATE_STAGE1,
    SITE_MIGRATE_STAGE2,
    SITE_MIGRATE_STAGE3,
    SITE_POOL_CRASH,
    SITE_POOL_EXIT,
    SITE_POOL_HANG,
    SITE_STORE_LEASE_CRASH,
    SITE_STORE_TORN,
    FaultPlan,
    FaultSpec,
)
from repro.sim.executor import TraceExecutor
from repro.sim.multitenant import MultiTenantHost, run_scenarios
from repro.sim.parallel import (
    JOB_BACKOFF_ENV,
    JOB_TIMEOUT_ENV,
    AppSpec,
    ExperimentPool,
    JobSpec,
    execute_job,
)
from repro.obs.bus import Event, process_bus
from repro.sim.tracecache import TraceCache
from repro.sim.tracestore import TraceStore

#: Huge scale divisor — datasets collapse to their floor size (fast jobs).
TINY_SCALE = 1 << 20

#: Injected hangs sleep this long; the harness timeout is far below it.
HANG_SECONDS = 5.0

#: Job timeout the harness applies while a hang plan is armed.
HARNESS_TIMEOUT = 1.0


@dataclass(frozen=True)
class ChaosCase:
    """One named plan of the seed matrix plus its recovery contract."""

    name: str
    plan: FaultPlan
    #: Which harness flow exercises the site: runtime / cache / pool.
    kind: str = "runtime"
    #: Transient faults must reproduce fault-free figures exactly;
    #: persistent capacity loss is only required to degrade gracefully.
    expect_identical: bool = True


@dataclass
class ChaosOutcome:
    """What one chaos case actually did."""

    case: str
    completed: bool = False
    fired: int = 0
    identical: bool | None = None
    consistent: bool | None = None
    detail: str = ""
    figures: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        """The case's full contract: completed, fired, matched, consistent."""
        return (
            self.completed
            and self.fired > 0
            and self.identical is not False
            and self.consistent is not False
        )


def seed_matrix() -> tuple[ChaosCase, ...]:
    """The fixed seed matrix: one plan per injection site."""
    return (
        ChaosCase(
            "alloc-transient",
            FaultPlan((FaultSpec(SITE_ALLOC, times=2),), seed=101),
        ),
        ChaosCase(
            "migrate-stage1-abort",
            FaultPlan((FaultSpec(SITE_MIGRATE_STAGE1),), seed=102),
        ),
        ChaosCase(
            "migrate-stage2-abort",
            FaultPlan((FaultSpec(SITE_MIGRATE_STAGE2),), seed=103),
        ),
        ChaosCase(
            "migrate-stage3-abort",
            FaultPlan((FaultSpec(SITE_MIGRATE_STAGE3),), seed=104),
        ),
        ChaosCase(
            "capacity-squeeze",
            FaultPlan(
                (FaultSpec(SITE_CAPACITY_SQUEEZE, match="DRAM", param=0.99999),),
                seed=105,
            ),
            kind="squeeze",
            expect_identical=False,
        ),
        ChaosCase(
            "cache-corruption",
            FaultPlan((FaultSpec(SITE_CACHE_CORRUPT),), seed=106),
            kind="cache",
        ),
        ChaosCase(
            "worker-crash",
            FaultPlan((FaultSpec(SITE_POOL_CRASH),), seed=107),
            kind="pool",
        ),
        ChaosCase(
            "worker-exit",
            FaultPlan((FaultSpec(SITE_POOL_EXIT),), seed=108),
            kind="pool",
        ),
        ChaosCase(
            "worker-hang",
            FaultPlan(
                (FaultSpec(SITE_POOL_HANG, param=HANG_SECONDS),), seed=109
            ),
            kind="pool",
        ),
        ChaosCase(
            "store-torn-write",
            FaultPlan((FaultSpec(SITE_STORE_TORN),), seed=110),
            kind="store",
        ),
        ChaosCase(
            "store-lease-crash",
            FaultPlan((FaultSpec(SITE_STORE_LEASE_CRASH),), seed=121),
            kind="store-lease",
        ),
        ChaosCase(
            "profile-stale-crc",
            FaultPlan(seed=114),
            kind="profile-crc",
        ),
        ChaosCase(
            "multitenant-worker-crash",
            FaultPlan((FaultSpec(SITE_POOL_CRASH, match="mt/alice"),), seed=111),
            kind="mt-pool",
        ),
        ChaosCase(
            "multitenant-migrate-abort",
            FaultPlan((FaultSpec(SITE_MIGRATE_STAGE2, match="alice/"),), seed=112),
            kind="mt",
        ),
        ChaosCase(
            "multitenant-squeeze",
            FaultPlan(
                (FaultSpec(SITE_CAPACITY_SQUEEZE, match="DRAM", param=0.99999),),
                seed=113,
            ),
            kind="mt-squeeze",
            expect_identical=False,
        ),
        ChaosCase(
            "serve-admit-crash",
            # times=4: migrate_decision retries 3 rolled-back passes, so
            # the 4th abort exhausts the retry budget and fails the admit
            # — and spends the plan, so the breaker-gated re-admit runs
            # fault-free.
            FaultPlan(
                (FaultSpec(SITE_MIGRATE_STAGE2, match="victim/", times=4),),
                seed=116,
            ),
            kind="serve-crash",
        ),
        ChaosCase(
            "serve-deadline-storm",
            FaultPlan(seed=117),
            kind="serve-deadline",
        ),
        ChaosCase(
            "serve-overload-shed",
            FaultPlan(seed=118),
            kind="serve-shed",
        ),
        ChaosCase(
            "serve-kill-recover",
            FaultPlan(seed=119),
            kind="serve-kill",
        ),
    )


def case_by_name(name: str) -> ChaosCase:
    """Look a seed-matrix case up by name."""
    for case in seed_matrix():
        if case.name == name:
            return case
    known = ", ".join(c.name for c in seed_matrix())
    raise KeyError(f"unknown chaos case {name!r}; known cases: {known}")


# ----------------------------------------------------------------------
# committed figures — what must survive recovery bit-identically
# ----------------------------------------------------------------------
def committed_figures(result) -> dict:
    """The reported numbers of a run result, flattened for comparison.

    Only *committed* work appears here — wasted/rolled-back accounting
    (``aborts``, ``wasted_seconds``) is deliberately excluded, because a
    chaos run earns those while producing the same committed outputs.
    """
    from repro.sim.experiment import AtMemRunResult, StaticRunResult
    from repro.sim.parallel import CellResult

    if isinstance(result, CellResult):
        figures = {}
        for label, part in (
            ("baseline", result.baseline),
            ("reference", result.reference),
            ("atmem", result.atmem),
        ):
            for key, value in committed_figures(part).items():
                figures[f"{label}.{key}"] = value
        return figures
    if isinstance(result, AtMemRunResult):
        return {
            "seconds": result.seconds,
            "first_seconds": result.first_iteration.seconds,
            "data_ratio": result.data_ratio,
            "migration_bytes": result.migration.bytes_moved,
            "migration_seconds": result.migration.seconds,
            "pages_touched": result.migration.pages_touched,
        }
    if isinstance(result, StaticRunResult):
        return {
            "seconds": result.seconds,
            "first_seconds": result.first_iteration.seconds,
            "fast_ratio": result.fast_ratio,
        }
    return {"value": result}


def figures_identical(a: dict, b: dict) -> bool:
    """Exact equality — recovery must not perturb a single bit."""
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a)


# ----------------------------------------------------------------------
# harness flows
# ----------------------------------------------------------------------
@contextmanager
def _watching(*prefixes: str, source: str = ""):
    """Collect matching bus events for the duration of a chaos case.

    ``fired`` evidence is counted straight off the event bus instead of
    reaching into injector logs, runtime event lists, or pool-health
    counters: in-process firings publish directly, and worker-side
    firings arrive through the pool's drain/absorb contract, so both
    look identical here.
    """
    events: list[Event] = []

    def _collect(event: Event) -> None:
        if source and event.source != source:
            return
        if prefixes and not any(event.kind.startswith(p) for p in prefixes):
            return
        events.append(event)

    unsubscribe = process_bus().subscribe(_collect)
    try:
        yield events
    finally:
        unsubscribe()


#: Parent-side recovery actions — the pool cases' proof a fault landed
#: (a crashed or hung worker never ships its own ``fault.fired`` home).
_RECOVERY_KINDS = ("pool.retry", "pool.timeout", "pool.crash", "pool.restart")


def _default_app() -> AppSpec:
    return AppSpec.make("PR", "twitter", scale=TINY_SCALE)


def _atmem_insitu(
    platform: PlatformConfig, app_spec: AppSpec
) -> tuple[dict, "HeterogeneousMemorySystem", AtMemRuntime]:
    """The full ATMem flow, keeping the system in hand for the audit."""
    system = platform.build_system()
    runtime = AtMemRuntime(system, config=RuntimeConfig(), platform=platform)
    app = app_spec()
    app.register(runtime)
    executor = TraceExecutor(system)
    runtime.atmem_profiling_start()
    first = executor.run(app.run_once(), miss_observer=runtime)
    runtime.atmem_profiling_stop()
    _, migration = runtime.atmem_optimize()
    second = executor.run(app.run_once())
    figures = {
        "seconds": second.seconds,
        "first_seconds": first.seconds,
        "data_ratio": runtime.fast_tier_ratio(),
        "migration_bytes": migration.bytes_moved,
        "migration_seconds": migration.seconds,
        "pages_touched": migration.pages_touched,
    }
    return figures, system, runtime


def _run_runtime_case(case: ChaosCase, platform: PlatformConfig) -> ChaosOutcome:
    outcome = ChaosOutcome(case=case.name)
    reference, ref_system, _ = _atmem_insitu(platform, _default_app())
    outcome.reference = reference
    ref_violations = ref_system.check_consistency()
    with _watching("fault.") as firings, injected(case.plan):
        figures, system, _ = _atmem_insitu(platform, _default_app())
        violations = system.check_consistency()
    outcome.completed = True
    outcome.fired = len(firings)
    outcome.figures = figures
    outcome.consistent = not violations and not ref_violations
    outcome.identical = figures_identical(figures, reference)
    outcome.detail = (
        "consistency audit clean"
        if outcome.consistent
        else "; ".join(violations or ref_violations)
    )
    return outcome


def _run_squeeze_case(case: ChaosCase, platform: PlatformConfig) -> ChaosOutcome:
    """Capacity drops *after* analysis — the mid-run competing tenant.

    The decision is computed at full capacity; the squeeze is installed
    only around migration and the second iteration, so the runtime's
    pressure path (demote cold residents, truncate by marginal benefit)
    has to absorb it — the analyzer cannot.
    """
    outcome = ChaosOutcome(case=case.name)
    reference, ref_system, _ = _atmem_insitu(platform, _default_app())
    outcome.reference = reference
    ref_violations = ref_system.check_consistency()
    system = platform.build_system()
    runtime = AtMemRuntime(system, config=RuntimeConfig(), platform=platform)
    app = _default_app()()
    app.register(runtime)
    executor = TraceExecutor(system)
    runtime.atmem_profiling_start()
    first = executor.run(app.run_once(), miss_observer=runtime)
    runtime.atmem_profiling_stop()
    analyzer = AtMemAnalyzer(runtime.config.analyzer)
    fast_free = system.fast_free_bytes()
    if fast_free is not None:
        fast_free = max(0, fast_free - PAGE_SIZE * (len(runtime.objects) + 1))
    decision = analyzer.analyze(
        runtime.profiler.estimated_miss_counts(),
        runtime.geometries,
        sampling_period=runtime.profiler.period,
        capacity_bytes=fast_free,
    )
    with _watching(source="runtime") as degradations, injected(case.plan):
        migration = runtime.migrate_decision(decision)
        second = executor.run(app.run_once())
        violations = system.check_consistency()
    outcome.completed = True
    outcome.figures = {
        "seconds": second.seconds,
        "first_seconds": first.seconds,
        "data_ratio": runtime.fast_tier_ratio(),
        "migration_bytes": migration.bytes_moved,
        "migration_seconds": migration.seconds,
        "pages_touched": migration.pages_touched,
    }
    outcome.fired = len(degradations)
    outcome.consistent = not violations and not ref_violations
    outcome.identical = None
    if outcome.figures["data_ratio"] > reference["data_ratio"]:
        outcome.consistent = False
        outcome.detail = "squeeze placed more fast-tier data than fault-free"
    else:
        degraded = migration.degraded_bytes + migration.demoted_bytes
        outcome.detail = (
            f"degraded {degraded} B "
            f"(ratio {outcome.figures['data_ratio']:.3f} vs "
            f"{reference['data_ratio']:.3f}); "
            + ("audit clean" if outcome.consistent else "; ".join(violations))
        )
    return outcome


def _run_cache_case(case: ChaosCase, platform: PlatformConfig) -> ChaosOutcome:
    outcome = ChaosOutcome(case=case.name)
    spec = JobSpec(
        app=_default_app(), platform=platform, flow="cell", placement="fast"
    )
    reference = committed_figures(execute_job(spec, trace_cache=TraceCache()))
    outcome.reference = reference
    with _watching("fault.") as firings, injected(case.plan):
        cache = TraceCache()
        result = execute_job(spec, trace_cache=cache)
    outcome.fired = len(firings)
    outcome.completed = True
    outcome.figures = committed_figures(result)
    outcome.identical = figures_identical(outcome.figures, reference)
    outcome.consistent = None  # per-job systems; audited by runtime cases
    outcome.detail = (
        f"{cache.stats.corruption_discards} corrupted entr"
        f"{'y' if cache.stats.corruption_discards == 1 else 'ies'} recomputed"
    )
    return outcome


def _run_pool_case(
    case: ChaosCase, platform: PlatformConfig, jobs: int
) -> ChaosOutcome:
    outcome = ChaosOutcome(case=case.name)
    specs = [
        JobSpec(
            app=AppSpec.make(app, dataset, scale=TINY_SCALE),
            platform=platform,
            flow="atmem",
            tag=f"chaos/{app}/{dataset}",
        )
        for app, dataset in (("PR", "twitter"), ("BFS", "twitter"), ("PR", "rmat24"))
    ]
    reference = [committed_figures(r) for r in ExperimentPool(jobs).run(specs)]
    outcome.reference = {"jobs": reference}
    overrides = {JOB_TIMEOUT_ENV: str(HARNESS_TIMEOUT), JOB_BACKOFF_ENV: "0"}
    saved = {key: os.environ.get(key) for key in overrides}
    saved[FAULT_PLAN_ENV] = os.environ.get(FAULT_PLAN_ENV)
    os.environ.update(overrides)
    os.environ[FAULT_PLAN_ENV] = case.plan.to_json()
    try:
        with _watching(*_RECOVERY_KINDS) as recoveries, injected(case.plan):
            pool = ExperimentPool(jobs)
            results = pool.run(specs)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    outcome.completed = True
    figures = [committed_figures(r) for r in results]
    outcome.figures = {"jobs": figures}
    outcome.identical = len(figures) == len(reference) and all(
        figures_identical(a, b) for a, b in zip(figures, reference)
    )
    outcome.consistent = None  # per-worker systems; audited by runtime cases
    outcome.fired = len(recoveries)
    health = pool.health
    outcome.detail = (
        f"mode={pool.last_mode} timeouts={health.timeouts} "
        f"crashes={health.crashes} retries={health.retries} "
        f"restarts={health.pool_restarts}"
    )
    return outcome


def _run_store_case(case: ChaosCase, platform: PlatformConfig) -> ChaosOutcome:
    """Torn store write: the next reader must reject and recompute.

    The injected fault truncates a trace array mid-commit (after the
    manifest's checksum was taken), so the entry lands on disk corrupt.
    The writer itself is unaffected — it holds the trace in memory — but
    a *fresh* store view (a sibling worker, the next session) must fail
    the CRC check, discard the entry, and rebuild identical figures.
    """
    outcome = ChaosOutcome(case=case.name)
    spec = JobSpec(
        app=_default_app(), platform=platform, flow="cell", placement="fast"
    )
    reference = committed_figures(execute_job(spec, trace_cache=TraceCache(store=None)))
    outcome.reference = reference
    with tempfile.TemporaryDirectory(prefix="chaos-store-") as root:
        with _watching("fault.") as firings, injected(case.plan):
            writer = TraceCache(store=TraceStore(Path(root)))
            torn_result = execute_job(spec, trace_cache=writer)
        outcome.fired = len(firings)
        reader_store = TraceStore(Path(root))
        reader = TraceCache(store=reader_store)
        reread_result = execute_job(spec, trace_cache=reader)
    outcome.completed = True
    outcome.figures = committed_figures(reread_result)
    outcome.identical = figures_identical(
        outcome.figures, reference
    ) and figures_identical(committed_figures(torn_result), reference)
    outcome.consistent = reader_store.stats.rejects >= 1
    outcome.detail = (
        f"{reader_store.stats.rejects} torn entr"
        f"{'y' if reader_store.stats.rejects == 1 else 'ies'} rejected and rebuilt"
        if outcome.consistent
        else "torn store entry was not detected on re-read"
    )
    return outcome


def _run_store_lease_case(
    case: ChaosCase, platform: PlatformConfig
) -> ChaosOutcome:
    """A primer dies right after winning a single-flight lease.

    The injected fault kills the writer inside ``acquire_lease`` — the
    lease file stays on disk naming a holder that will never release it.
    The recovery contract: the next contender must observe the lease as
    *stale* (the holder pid is not actually holding it), reclaim it,
    rebuild the artifact exactly once, and release cleanly — no waiter
    may block until the lease timeout on a corpse, and the rebuilt
    figures must be bit-identical to the fault-free run.
    """
    outcome = ChaosOutcome(case=case.name)
    spec = JobSpec(
        app=_default_app(), platform=platform, flow="cell", placement="fast"
    )
    reference = committed_figures(
        execute_job(spec, trace_cache=TraceCache(store=None))
    )
    outcome.reference = reference
    crashed = False
    with tempfile.TemporaryDirectory(prefix="chaos-lease-") as root:
        with _watching("fault.", "store.") as events, injected(case.plan):
            writer_store = TraceStore(Path(root))
            try:
                execute_job(spec, trace_cache=TraceCache(store=writer_store))
            except InjectedWorkerCrash:
                crashed = True
        outcome.fired = sum(
            1 for e in events if e.kind.startswith("fault.")
        )
        orphans = list(Path(root).rglob(".lease-*"))
        recovery_store = TraceStore(Path(root))
        with _watching("store.lease_reclaim") as reclaims:
            result = execute_job(
                spec, trace_cache=TraceCache(store=recovery_store)
            )
        leftovers = list(Path(root).rglob(".lease-*"))
    outcome.completed = True
    outcome.figures = committed_figures(result)
    outcome.identical = figures_identical(outcome.figures, reference)
    recovered_cleanly = (
        crashed
        and len(orphans) >= 1
        and recovery_store.stats.lease_reclaims >= 1
        and len(reclaims) >= 1
        and recovery_store.stats.trace_saves >= 1
        and not leftovers
    )
    outcome.consistent = recovered_cleanly
    outcome.detail = (
        f"{len(orphans)} orphaned lease(s) reclaimed, artifact rebuilt once, "
        "no leases left behind"
        if recovered_cleanly
        else (
            f"crashed={crashed} orphans={len(orphans)} "
            f"reclaims={recovery_store.stats.lease_reclaims} "
            f"trace_saves={recovery_store.stats.trace_saves} "
            f"leftovers={len(leftovers)}"
        )
    )
    return outcome


def _run_profile_crc_case(case: ChaosCase, platform: PlatformConfig) -> ChaosOutcome:
    """A stored miss ``profile`` artifact rots on disk.

    Unlike the torn-write case (which injects during the commit), this
    flips bytes in the committed ``profile-*.npy`` files directly — the
    bit-rot scenario where the sidecar still parses but the CRC no
    longer matches.  A fresh store view must reject the artifact,
    rebuild it from the (intact) trace and hit mask, re-save it, and
    produce identical figures; a second fresh view then proves the
    re-saved artifact loads clean.  ``fired`` counts the files
    corrupted, since no injector site is involved.
    """
    outcome = ChaosOutcome(case=case.name)
    spec = JobSpec(
        app=_default_app(), platform=platform, flow="cell", placement="fast"
    )
    reference = committed_figures(execute_job(spec, trace_cache=TraceCache()))
    outcome.reference = reference

    def fresh_read(root: Path) -> tuple[TraceStore, dict]:
        store = TraceStore(root)
        result = execute_job(spec, trace_cache=TraceCache(store=store))
        return store, committed_figures(result)

    with tempfile.TemporaryDirectory(prefix="chaos-profile-") as tmp:
        root = Path(tmp)
        execute_job(spec, trace_cache=TraceCache(store=TraceStore(root)))
        corrupted = 0
        for path in sorted(root.rglob("profile-*.npy")):
            blob = bytearray(path.read_bytes())
            if not blob:
                continue
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
            corrupted += 1
        reader, outcome.figures = fresh_read(root)
        second, second_figures = fresh_read(root)
    outcome.completed = True
    outcome.fired = corrupted
    outcome.identical = figures_identical(
        outcome.figures, reference
    ) and figures_identical(second_figures, reference)
    saves = reader.stats.profile_saves
    loads = second.stats.profile_loads
    outcome.consistent = (
        reader.stats.rejects >= 1
        and saves >= 1
        and second.stats.rejects == 0
        and loads >= 1
    )
    outcome.detail = (
        f"{reader.stats.rejects} stale profile artifact(s) rejected, "
        "rebuilt, and re-served from the store"
        if outcome.consistent
        else (
            f"rejects={reader.stats.rejects} saves={saves} "
            f"second-view rejects={second.stats.rejects} loads={loads}"
        )
    )
    return outcome


def _mt_scenario() -> tuple[tuple[str, AppSpec], ...]:
    return (
        ("alice", AppSpec.make("PR", "twitter", scale=TINY_SCALE)),
        ("bob", AppSpec.make("BFS", "rmat24", scale=TINY_SCALE)),
    )


def _mt_scenarios() -> list[tuple[tuple[str, AppSpec], ...]]:
    return [
        _mt_scenario(),
        (
            ("carol", AppSpec.make("CC", "pokec", scale=TINY_SCALE)),
            ("dave", AppSpec.make("PR", "rmat24", scale=TINY_SCALE)),
        ),
    ]


def _mt_figures(results) -> dict:
    """Per-tenant committed figures of one shared-host run, flattened."""
    figures = {}
    for name in sorted(results):
        tenant = results[name]
        figures[f"{name}.baseline_seconds"] = tenant.baseline.seconds
        figures[f"{name}.optimized_seconds"] = tenant.optimized.seconds
        figures[f"{name}.fast_bytes"] = tenant.fast_bytes
        figures[f"{name}.data_ratio"] = tenant.data_ratio
    return figures


def _mt_host(platform: PlatformConfig) -> MultiTenantHost:
    host = MultiTenantHost(platform, runtime_config=RuntimeConfig())
    for name, app_spec in _mt_scenario():
        host.admit(name, app_spec)
    return host


def _run_mt_case(case: ChaosCase, platform: PlatformConfig) -> ChaosOutcome:
    """A fault scoped to one tenant must not perturb its neighbours.

    The plan's ``match`` pins the fault to alice's prefixed objects; the
    contract is full bit-identity — alice recovers, and bob (sharing the
    same fast tier and allocator) never sees a ripple.
    """
    outcome = ChaosOutcome(case=case.name)
    ref_host = _mt_host(platform)
    reference = _mt_figures(ref_host.run())
    outcome.reference = reference
    ref_violations = ref_host.system.check_consistency()
    with _watching("fault.") as firings, injected(case.plan):
        host = _mt_host(platform)
        figures = _mt_figures(host.run())
        violations = host.system.check_consistency()
    outcome.fired = len(firings)
    outcome.completed = True
    outcome.figures = figures
    outcome.consistent = not violations and not ref_violations
    outcome.identical = figures_identical(figures, reference)
    bystanders = [
        key
        for key in figures
        if not key.startswith("alice.") and figures[key] != reference.get(key)
    ]
    if bystanders:
        outcome.consistent = False
        outcome.detail = f"fault on alice perturbed bystander figures: {bystanders}"
    else:
        outcome.detail = (
            "audit clean; bystander tenants untouched"
            if outcome.consistent
            else "; ".join(violations or ref_violations)
        )
    return outcome


def _run_mt_squeeze_case(
    case: ChaosCase, platform: PlatformConfig
) -> ChaosOutcome:
    """Capacity squeezed mid-run while two tenants share the fast tier.

    Decisions are computed at full capacity (as in the single-tenant
    squeeze case); the squeeze lands around migration and measurement.
    Every tenant must degrade gracefully — complete, audit clean, and
    place no more fast-tier data than the fault-free run.
    """
    outcome = ChaosOutcome(case=case.name)
    ref_host = _mt_host(platform)
    reference = _mt_figures(ref_host.run())
    outcome.reference = reference
    ref_violations = ref_host.system.check_consistency()
    host = _mt_host(platform)
    plans, baselines = host.profile()
    with _watching(source="runtime") as degradations, injected(case.plan):
        for _, _, runtime, _ in host.tenants:
            fast = host.system.allocators[host.system.fast_tier]
            free_full = None
            if fast.tier.capacity_bytes is not None:
                # Full (unsqueezed) free capacity, minus the same page
                # headroom the single-tenant squeeze case reserves.
                free_full = max(
                    0,
                    fast.tier.capacity_bytes
                    - fast.used_bytes
                    - PAGE_SIZE * (len(runtime.objects) + 1),
                )
            analyzer = AtMemAnalyzer(runtime.config.analyzer)
            decision = analyzer.analyze(
                runtime.profiler.estimated_miss_counts(),
                runtime.geometries,
                sampling_period=runtime.profiler.period,
                capacity_bytes=free_full,
            )
            runtime.migrate_decision(decision)
        results = host.measure(plans, baselines)
        violations = host.system.check_consistency()
    outcome.completed = True
    outcome.figures = _mt_figures(results)
    outcome.fired = len(degradations)
    outcome.consistent = not violations and not ref_violations
    outcome.identical = None
    over = [
        name
        for name in ("alice", "bob")
        if outcome.figures[f"{name}.data_ratio"] > reference[f"{name}.data_ratio"]
    ]
    if over:
        outcome.consistent = False
        outcome.detail = f"squeeze placed more fast-tier data than fault-free: {over}"
    else:
        ratios = ", ".join(
            f"{name} {outcome.figures[f'{name}.data_ratio']:.3f}"
            f"<={reference[f'{name}.data_ratio']:.3f}"
            for name in ("alice", "bob")
        )
        outcome.detail = f"degraded per tenant ({ratios}); " + (
            "audit clean" if outcome.consistent else "; ".join(violations)
        )
    return outcome


def _run_mt_pool_case(
    case: ChaosCase, platform: PlatformConfig, jobs: int
) -> ChaosOutcome:
    """A worker crash on one shared-host scenario: both must still commit.

    The plan matches the job tagged ``mt/alice...`` only; the pool
    retries that scenario while the other proceeds untouched, and every
    scenario's per-tenant figures must come out bit-identical to the
    fault-free fan-out.
    """
    outcome = ChaosOutcome(case=case.name)
    scenarios = _mt_scenarios()
    reference = [_mt_figures(r) for r in run_scenarios(scenarios, platform)]
    outcome.reference = {"scenarios": reference}
    overrides = {JOB_TIMEOUT_ENV: str(HARNESS_TIMEOUT), JOB_BACKOFF_ENV: "0"}
    saved = {key: os.environ.get(key) for key in overrides}
    saved[FAULT_PLAN_ENV] = os.environ.get(FAULT_PLAN_ENV)
    os.environ.update(overrides)
    os.environ[FAULT_PLAN_ENV] = case.plan.to_json()
    try:
        with _watching(*_RECOVERY_KINDS) as recoveries, injected(case.plan):
            pool = ExperimentPool(jobs)
            results = run_scenarios(scenarios, platform, pool=pool)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    outcome.completed = True
    figures = [_mt_figures(r) for r in results]
    outcome.figures = {"scenarios": figures}
    outcome.identical = len(figures) == len(reference) and all(
        figures_identical(a, b) for a, b in zip(figures, reference)
    )
    outcome.consistent = None  # per-worker systems; audited by runtime cases
    outcome.fired = len(recoveries)
    health = pool.health
    outcome.detail = (
        f"mode={pool.last_mode} timeouts={health.timeouts} "
        f"crashes={health.crashes} retries={health.retries} "
        f"restarts={health.pool_restarts}"
    )
    return outcome


# ----------------------------------------------------------------------
# serving-layer cases (repro.serve)
# ----------------------------------------------------------------------
class _StepClock:
    """A manually advanced monotonic clock: serve cases stay deterministic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _serve_config(platform: PlatformConfig, root: Path | None = None, **kw):
    from repro.serve import ServiceConfig

    return ServiceConfig(platform=platform, journal_root=root, **kw)


def _serve_apps() -> dict[str, AppSpec]:
    return {
        "steady": AppSpec.make("PR", "twitter", scale=TINY_SCALE),
        "victim": AppSpec.make("BFS", "rmat24", scale=TINY_SCALE),
    }


def _serve_figures(service, results: dict[str, dict]) -> dict:
    """Measured payloads plus canonical placements, flattened."""
    figures: dict = {}
    for name, payload in sorted(results.items()):
        for key in (
            "baseline_seconds", "optimized_seconds", "fast_bytes", "data_ratio"
        ):
            figures[f"{name}.{key}"] = payload[key]
    for tenant in service.tenant_table():
        figures[f"{tenant['name']}.placements"] = json.dumps(
            tenant["placements"], sort_keys=True
        )
    return figures


def _serve_pair_reference(platform: PlatformConfig) -> dict:
    """Fault-free reference: admit both tenants, measure both."""
    from repro.serve import OP_ADMIT, OP_MEASURE, PlacementService, TenantJob

    apps = _serve_apps()

    async def _script() -> dict:
        service = PlacementService(_serve_config(platform), clock=_StepClock())
        await service.start()
        results = {}
        for name in ("steady", "victim"):
            await service.submit(TenantJob(OP_ADMIT, name, app=apps[name]))
        for name in ("steady", "victim"):
            outcome = await service.submit(TenantJob(OP_MEASURE, name))
            results[name] = outcome.result
        figures = _serve_figures(service, results)
        await service.stop()
        return figures

    return asyncio.run(_script())


def _run_serve_crash_case(
    case: ChaosCase, platform: PlatformConfig
) -> ChaosOutcome:
    """Worker crash mid-admit: rollback, breaker, fault-free re-admit.

    The armed plan aborts every migration pass touching the victim's
    objects until the admit fails outright.  The contract: the half-
    admitted victim rolls back (audit green, bystander untouched), the
    victim's breaker opens and rejects typed, and once the backoff
    elapses the re-admitted victim produces figures bit-identical to a
    run that never crashed — despite its objects now living at different
    virtual addresses (placement figures are canonical, and the LLC's
    reuse-distance hit masks are invariant under per-object page shifts).
    """
    from repro.serve import (
        OP_ADMIT,
        OP_MEASURE,
        AdmissionRejected,
        BreakerPolicy,
        PlacementService,
        TenantJob,
    )

    outcome = ChaosOutcome(case=case.name)
    reference = _serve_pair_reference(platform)
    outcome.reference = reference
    apps = _serve_apps()
    clock = _StepClock()
    config = _serve_config(
        platform, breaker=BreakerPolicy(failure_threshold=1)
    )

    async def _script() -> tuple[dict, list[str], str]:
        service = PlacementService(config, clock=clock)
        await service.start()
        notes = []
        await service.submit(TenantJob(OP_ADMIT, "steady", app=apps["steady"]))
        crashed = await service.submit(
            TenantJob(OP_ADMIT, "victim", app=apps["victim"])
        )
        notes.append(f"admit status={crashed.status}")
        if crashed.status != "failed":
            notes.append("expected the faulted admit to fail")
        try:
            await service.submit(
                TenantJob(OP_ADMIT, "victim", app=apps["victim"])
            )
            notes.append("breaker never opened")
        except AdmissionRejected as exc:
            notes.append(f"breaker reject reason={exc.reason}")
            if exc.reason != "breaker-open":
                notes.append("expected breaker-open")
        clock.advance(60.0)  # past any jittered backoff
        readmit = await service.submit(
            TenantJob(OP_ADMIT, "victim", app=apps["victim"])
        )
        notes.append(f"re-admit status={readmit.status}")
        results = {}
        for name in ("steady", "victim"):
            measured = await service.submit(TenantJob(OP_MEASURE, name))
            results[name] = measured.result
        figures = _serve_figures(service, results)
        violations = service.host.system.check_consistency()
        await service.stop()
        return figures, violations, "; ".join(notes)

    with _watching("fault.") as firings, injected(case.plan):
        figures, violations, notes = asyncio.run(_script())
    outcome.completed = True
    outcome.figures = figures
    outcome.fired = len(firings)
    outcome.consistent = not violations
    outcome.identical = figures_identical(figures, reference)
    bystanders = [
        key
        for key in figures
        if key.startswith("steady.") and figures[key] != reference.get(key)
    ]
    if bystanders:
        outcome.consistent = False
        outcome.detail = f"crash on victim perturbed bystander: {bystanders}"
    else:
        outcome.detail = notes + (
            "; audit clean" if outcome.consistent else f"; {violations}"
        )
    return outcome


def _run_serve_deadline_case(
    case: ChaosCase, platform: PlatformConfig
) -> ChaosOutcome:
    """A storm of already-expired jobs must leave zero fingerprints.

    Every storm job carries ``deadline_s=0`` — expired the instant it is
    dispatched.  Measures, phase changes, and a whole admission must all
    cancel cleanly: the ghost tenant never becomes resident, and the
    resident tenants' figures and placements match a storm-free run bit
    for bit.  ``fired`` counts the ``serve.expire`` events.
    """
    from repro.serve import (
        OP_ADMIT,
        OP_MEASURE,
        OP_PHASE_CHANGE,
        PlacementService,
        QoS,
        TenantJob,
    )

    outcome = ChaosOutcome(case=case.name)
    reference = _serve_pair_reference(platform)
    outcome.reference = reference
    apps = _serve_apps()
    expired_qos = QoS(deadline_s=0.0)

    async def _script() -> tuple[dict, list[str], str]:
        service = PlacementService(
            _serve_config(platform), clock=_StepClock()
        )
        await service.start()
        for name in ("steady", "victim"):
            await service.submit(TenantJob(OP_ADMIT, name, app=apps[name]))
        storm = [
            TenantJob(OP_MEASURE, "steady", qos=expired_qos),
            TenantJob(OP_PHASE_CHANGE, "victim", qos=expired_qos),
            TenantJob(
                OP_ADMIT, "ghost", app=apps["steady"], qos=expired_qos
            ),
            TenantJob(OP_MEASURE, "victim", qos=expired_qos),
            TenantJob(OP_PHASE_CHANGE, "steady", qos=expired_qos),
        ]
        statuses = [(await service.submit(job)).status for job in storm]
        resident = {t["name"] for t in service.tenant_table()}
        results = {}
        for name in ("steady", "victim"):
            measured = await service.submit(TenantJob(OP_MEASURE, name))
            results[name] = measured.result
        figures = _serve_figures(service, results)
        violations = service.host.system.check_consistency()
        await service.stop()
        notes = f"storm statuses={statuses}; resident={sorted(resident)}"
        if set(statuses) != {"expired"}:
            notes += "; expected every storm job to expire"
            violations = list(violations) + ["storm jobs did not all expire"]
        if "ghost" in resident:
            violations = list(violations) + ["expired admit left ghost resident"]
        return figures, violations, notes

    with _watching("serve.expire") as expirations, injected(case.plan):
        figures, violations, notes = asyncio.run(_script())
    outcome.completed = True
    outcome.figures = figures
    outcome.fired = len(expirations)
    outcome.consistent = not violations
    outcome.identical = figures_identical(figures, reference)
    outcome.detail = notes + (
        "; audit clean" if outcome.consistent else f"; {violations}"
    )
    return outcome


def _run_serve_shed_case(
    case: ChaosCase, platform: PlatformConfig
) -> ChaosOutcome:
    """Overload must shed in tiers without touching bystander placement.

    A burst of measure requests overfills a deliberately tiny queue:
    early ones are served fresh, the deeper ones degrade to the stale
    committed result, and past the reject tier submissions get a typed
    refusal.  The bystander tenant's placements and final figures must
    come through bit-identical to the quiet reference run.
    """
    from repro.serve import (
        OP_ADMIT,
        OP_MEASURE,
        AdmissionRejected,
        PlacementService,
        ShedPolicy,
        TenantJob,
    )

    outcome = ChaosOutcome(case=case.name)
    reference = _serve_pair_reference(platform)
    outcome.reference = reference
    apps = _serve_apps()
    config = _serve_config(
        platform,
        shed=ShedPolicy(
            queue_limit=8, skip_optimize_at=0.25, stale_at=0.4, reject_at=0.8
        ),
    )

    async def _script() -> tuple[dict, list[str], str, int, int]:
        service = PlacementService(config, clock=_StepClock())
        await service.start()
        for name in ("steady", "victim"):
            await service.submit(TenantJob(OP_ADMIT, name, app=apps[name]))

        async def _try(job):
            try:
                return await service.submit(job)
            except AdmissionRejected as exc:
                return exc

        burst = await asyncio.gather(
            *[_try(TenantJob(OP_MEASURE, "victim")) for _ in range(10)]
        )
        stale = sum(
            1
            for r in burst
            if not isinstance(r, AdmissionRejected) and r.degraded == "stale"
        )
        rejected = sum(1 for r in burst if isinstance(r, AdmissionRejected))
        results = {}
        for name in ("steady", "victim"):
            measured = await service.submit(TenantJob(OP_MEASURE, name))
            results[name] = measured.result
        figures = _serve_figures(service, results)
        violations = service.host.system.check_consistency()
        notes = (
            f"burst of 10: stale={stale} rejected={rejected} "
            f"fresh={10 - stale - rejected}"
        )
        if not stale:
            violations = list(violations) + ["no request was served stale"]
        if not rejected:
            violations = list(violations) + ["no request was rejected"]
        await service.stop()
        return figures, violations, notes, stale, rejected

    with _watching("serve.shed") as sheds, injected(case.plan):
        figures, violations, notes, _, rejected = asyncio.run(_script())
    outcome.completed = True
    outcome.figures = figures
    outcome.fired = len(sheds) + rejected
    outcome.consistent = not violations
    outcome.identical = figures_identical(figures, reference)
    outcome.detail = notes + (
        "; audit clean" if outcome.consistent else f"; {violations}"
    )
    return outcome


def _run_serve_kill_case(
    case: ChaosCase, platform: PlatformConfig
) -> ChaosOutcome:
    """Kill the service mid-trace; the recovered one must resume exactly.

    The same generated arrival trace runs twice: once uninterrupted, and
    once killed (no drain, no checkpoint) halfway through, recovered
    from the CRC journal, and resumed.  The two final tenant tables —
    names, app recipes, canonical placements — must be bit-identical.
    """
    from repro.serve import generate_arrivals, serve_trace

    outcome = ChaosOutcome(case=case.name)
    jobs = generate_arrivals(14, seed=case.plan.seed)
    kill_at = 8

    def _canonical(table: list[dict]) -> dict:
        return {
            t["name"]: {
                "app": json.dumps(t["app"], sort_keys=True),
                "placements": json.dumps(t["placements"], sort_keys=True),
            }
            for t in table
        }

    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") as tmp:
        quiet = serve_trace(
            jobs, _serve_config(platform, Path(tmp) / "quiet")
        )
        reference = _canonical(quiet["tenant_table"])
        outcome.reference = reference
        with _watching("serve.") as events, injected(case.plan):
            partial = serve_trace(
                jobs,
                _serve_config(platform, Path(tmp) / "chaos"),
                kill_after=kill_at,
            )
            resumed = serve_trace(
                jobs[kill_at:], _serve_config(platform, Path(tmp) / "chaos")
            )
    figures = _canonical(resumed["tenant_table"])
    outcome.completed = True
    outcome.figures = figures
    outcome.fired = sum(1 for e in events if e.kind == "serve.recover")
    recovered = resumed["health"]["counters"].get("recoveries", 0)
    outcome.consistent = bool(partial["killed"]) and recovered > 0
    outcome.identical = figures == reference
    outcome.detail = (
        f"killed after {kill_at}/{len(jobs)} jobs; recovered "
        f"{resumed['health']['counters'].get('recoveries', 0)} time(s), "
        f"resumed {resumed['jobs']} job(s); tables "
        + ("identical" if outcome.identical else "DIVERGED")
    )
    return outcome


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_case(
    case: ChaosCase | str,
    *,
    platform: PlatformConfig | None = None,
    jobs: int = 2,
) -> ChaosOutcome:
    """Run one seed-matrix case against its fault-free reference."""
    if isinstance(case, str):
        case = case_by_name(case)
    platform = platform or nvm_dram_testbed(scale=512)
    if case.kind == "pool":
        return _run_pool_case(case, platform, jobs)
    if case.kind == "cache":
        return _run_cache_case(case, platform)
    if case.kind == "squeeze":
        return _run_squeeze_case(case, platform)
    if case.kind == "store":
        return _run_store_case(case, platform)
    if case.kind == "store-lease":
        return _run_store_lease_case(case, platform)
    if case.kind == "profile-crc":
        return _run_profile_crc_case(case, platform)
    if case.kind == "mt":
        return _run_mt_case(case, platform)
    if case.kind == "mt-squeeze":
        return _run_mt_squeeze_case(case, platform)
    if case.kind == "mt-pool":
        return _run_mt_pool_case(case, platform, jobs)
    if case.kind == "serve-crash":
        return _run_serve_crash_case(case, platform)
    if case.kind == "serve-deadline":
        return _run_serve_deadline_case(case, platform)
    if case.kind == "serve-shed":
        return _run_serve_shed_case(case, platform)
    if case.kind == "serve-kill":
        return _run_serve_kill_case(case, platform)
    return _run_runtime_case(case, platform)


def run_seed_matrix(
    *,
    platform: PlatformConfig | None = None,
    jobs: int = 2,
    names: list[str] | None = None,
) -> list[ChaosOutcome]:
    """Run the whole matrix (or a named subset); outcomes in matrix order."""
    outcomes = []
    for case in seed_matrix():
        if names and case.name not in names:
            continue
        outcomes.append(run_case(case, platform=platform, jobs=jobs))
    return outcomes


def render_outcomes(outcomes: list[ChaosOutcome]) -> str:
    """A fixed-width report of a matrix run, one line per case."""
    lines = [
        f"{'case':<22} {'ok':<4} {'fired':>5} {'identical':>9} "
        f"{'consistent':>10}  detail",
        "-" * 78,
    ]
    for outcome in outcomes:
        lines.append(
            f"{outcome.case:<22} "
            f"{'yes' if outcome.recovered else 'NO':<4} "
            f"{outcome.fired:>5} "
            f"{_tri(outcome.identical):>9} "
            f"{_tri(outcome.consistent):>10}  "
            f"{outcome.detail}"
        )
    return "\n".join(lines)


def _tri(value: bool | None) -> str:
    return "n/a" if value is None else ("yes" if value else "NO")
