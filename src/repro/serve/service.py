"""The resident placement service: admission, deadlines, shedding, recovery.

:class:`PlacementService` turns the batch :class:`~repro.sim.multitenant.
MultiTenantHost` into a long-lived asyncio service that admits a *stream*
of tenant jobs against one warm memory system.  Robustness is layered
end to end:

1. **Admission control** — the request queue is bounded, per-tenant
   fast-tier reservations are checked before any allocation happens, and
   refusals are typed :class:`~repro.serve.requests.AdmissionRejected`
   with a stable reason token rather than a deep ``CapacityError``.
2. **Deadlines and cancellation** — every job carries a relative
   deadline.  Expiry before dispatch settles the job untouched; expiry
   *mid-admit* rolls the half-admitted tenant back out (pages freed,
   objects dropped) and the post-op :meth:`check_consistency` audit
   stays green, because migration passes themselves are transactional
   (:class:`~repro.core.migration.MultiStageMigrator`) and the service
   only checks deadlines on stage boundaries.
3. **Graceful degradation** — overload sheds load in declared tiers
   keyed to queue depth at submit time: first re-optimization is skipped
   (placements go stale but service continues), then measure requests
   are served from the last committed result (``allow_stale`` QoS opt-
   in), and only past the final threshold are jobs rejected.  Departs
   are never shed — they free capacity.
4. **Circuit breaker + warm-state recovery** — repeated failures for a
   tenant open a per-tenant breaker with deterministic jittered backoff;
   every committed mutation is journalled with CRC sidecars
   (:mod:`repro.serve.journal`), so a killed service restarts, replays,
   and resumes with a bit-identical tenant table and canonical
   placements.

The event vocabulary (``serve.*`` on the process bus), one ``serve.job``
span per served job, and :meth:`PlacementService.health` —
``PoolHealth``-style counters plus p50/p99 decision latency, read
in-process — make every one of those paths observable and
chaos-testable (:mod:`repro.faults.chaos`).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.config import PlatformConfig
from repro.core.runtime import AtMemRuntime, RuntimeConfig
from repro.errors import ConsistencyError, ReproError
from repro.mem.address_space import PAGE_SIZE
from repro.obs.bus import emit
from repro.obs.metrics import LatencyTracker
from repro.obs.tracer import span
from repro.serve.journal import ServiceJournal
from repro.serve.requests import (
    OP_ADMIT,
    OP_DEPART,
    OP_MEASURE,
    OP_PHASE_CHANGE,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    AdmissionRejected,
    DeadlineExceeded,
    JobOutcome,
    QoS,
    ServiceStopped,
    TenantJob,
)
from repro.sim.multitenant import MultiTenantHost
from repro.sim.parallel import AppSpec


@dataclass(frozen=True)
class ShedPolicy:
    """Overload tiers as fractions of the bounded queue's depth.

    With the defaults, a queue at half capacity stops re-optimizing
    (``skip-optimize``), at three quarters serves stale results to jobs
    that allow it (``stale``), and at ``reject_at`` refuses new work
    outright; the queue bound itself is the final backstop.  Departs
    are never shed.
    """

    queue_limit: int = 64
    skip_optimize_at: float = 0.5
    stale_at: float = 0.75
    reject_at: float = 1.0


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-tenant circuit breaker: trip threshold and jittered backoff."""

    failure_threshold: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.25


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a resident service needs to start."""

    platform: PlatformConfig
    runtime_config: RuntimeConfig | None = None
    journal_root: Path | None = None
    shed: ShedPolicy = field(default_factory=ShedPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: Seeds the deterministic breaker jitter.
    seed: int = 0
    #: Run a full consistency audit after every mutating op.
    audit: bool = True


@dataclass
class _Breaker:
    """Failure accounting for one tenant."""

    failures: int = 0
    trips: int = 0
    open_until: float = 0.0


@dataclass
class _Entry:
    """One queued job plus its admission-time bookkeeping."""

    job: TenantJob
    future: asyncio.Future
    submitted: float
    deadline_at: float | None
    shed_level: int


_STOP = object()


class PlacementService:
    """Asyncio resident service for streaming tenant placement jobs."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
        trace_cache=None,
    ) -> None:
        self.config = config
        self.clock = clock
        self._trace_cache = trace_cache
        self.host: MultiTenantHost | None = None
        self.journal: ServiceJournal | None = None
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._stopped = True
        self._killed = False
        self._breakers: dict[str, _Breaker] = {}
        self._reservations: dict[str, int] = {}
        self._qos: dict[str, QoS] = {}
        self._tenant_apps: dict[str, AppSpec] = {}
        self._plans: dict[str, tuple] = {}
        self._baselines: dict[str, object] = {}
        self._stale_results: dict[str, dict] = {}
        self._fast_capacity = 0
        self.counters: dict[str, int] = {}
        self.latency = LatencyTracker()
        self.recovered_tenants = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Build the warm system, recover journalled state, start serving."""
        self.host = MultiTenantHost(
            self.config.platform,
            runtime_config=self.config.runtime_config or RuntimeConfig(),
            trace_cache=self._trace_cache,
        )
        alloc = self.host.system.allocators[self.host.system.fast_tier]
        self._fast_capacity = alloc.free_bytes + alloc.used_bytes
        if self.config.journal_root is not None:
            self.journal = ServiceJournal(Path(self.config.journal_root))
            self._recover()
        self._queue = asyncio.Queue(maxsize=self.config.shed.queue_limit)
        self._stopped = False
        # The dispatcher task is *stored* (and awaited by stop()): a
        # fire-and-forget create_task would be GC-bait that swallows
        # exceptions — exactly what tools/astlint.py now rejects.
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> dict:
        """Drain the queue, settle every job, checkpoint, and stop."""
        if self._queue is not None and self._dispatcher is not None:
            self._stopped = True
            await self._queue.put(_STOP)
            await self._dispatcher
            self._dispatcher = None
        if self.journal is not None and not self._killed:
            self.journal.checkpoint(self._snapshot_state())
        return self.health()

    def kill(self) -> None:
        """Simulate a crash: stop serving *without* drain or checkpoint.

        Queued jobs settle as :class:`ServiceStopped`; the journal is
        left exactly as the last committed op wrote it, which is what a
        real SIGKILL leaves behind.  A fresh service pointed at the same
        journal root recovers from it.
        """
        self._stopped = True
        self._killed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            self._dispatcher = None
        if self._queue is not None:
            while not self._queue.empty():
                entry = self._queue.get_nowait()
                if entry is not _STOP and not entry.future.done():
                    entry.future.set_exception(
                        ServiceStopped("service killed with job queued")
                    )
        emit("serve.kill", source="serve")

    # -- submission (admission control happens here) --------------------
    async def submit(self, job: TenantJob) -> JobOutcome:
        """Submit one job; returns its outcome or raises on refusal.

        Submit-time refusals (queue full, shed tier, open breaker,
        duplicate admit, missing reservation capacity) raise a typed
        :class:`AdmissionRejected` *before* the job consumes any queue
        slot or allocator byte.  Everything accepted settles through the
        returned :class:`JobOutcome`, including expiry and failures.
        """
        if self._stopped or self._queue is None:
            raise AdmissionRejected("stopped", "service is not accepting work")
        now = self.clock()
        self._check_breaker(job, now)
        depth = self._queue.qsize()
        shed_level = self._shed_level(depth)
        if job.op != OP_DEPART and shed_level >= 3:
            self._count("rejected.shed")
            emit("serve.shed", detail=f"reject {job.tenant}",
                 source="serve", level=3)
            raise AdmissionRejected(
                "shed", f"queue depth {depth} reached the reject tier"
            )
        self._check_op(job)
        entry = _Entry(
            job=job,
            future=asyncio.get_running_loop().create_future(),
            submitted=now,
            deadline_at=(
                now + job.qos.deadline_s
                if job.qos.deadline_s is not None
                else None
            ),
            shed_level=shed_level,
        )
        if shed_level > 0 and job.op != OP_DEPART:
            self._count(f"shed.level{shed_level}")
            emit("serve.shed", detail=job.tenant, source="serve",
                 level=shed_level)
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self._count("rejected.queue-full")
            raise AdmissionRejected(
                "queue-full",
                f"request queue at its {self.config.shed.queue_limit} limit",
            ) from None
        return await entry.future

    def _check_breaker(self, job: TenantJob, now: float) -> None:
        breaker = self._breakers.get(job.tenant)
        if breaker is not None and now < breaker.open_until:
            self._count("rejected.breaker-open")
            raise AdmissionRejected(
                "breaker-open",
                f"tenant {job.tenant!r} breaker open for "
                f"{breaker.open_until - now:.3f}s more",
            )

    def _check_op(self, job: TenantJob) -> None:
        assert self.host is not None
        resident = {name for name, _, _, _ in self.host.tenants}
        if job.op == OP_ADMIT:
            if job.tenant in resident:
                self._count("rejected.duplicate")
                raise AdmissionRejected(
                    "duplicate", f"tenant {job.tenant!r} already resident"
                )
            reserve = job.qos.reserve_fast_bytes
            committed = sum(self._reservations.values())
            if reserve and committed + reserve > self._fast_capacity:
                self._count("rejected.reservation")
                raise AdmissionRejected(
                    "reservation",
                    f"{reserve} B reservation does not fit next to "
                    f"{committed} B already reserved of "
                    f"{self._fast_capacity} B fast capacity",
                )
        elif job.tenant not in resident:
            self._count("rejected.unknown-tenant")
            raise AdmissionRejected(
                "unknown-tenant", f"tenant {job.tenant!r} is not resident"
            )

    def _shed_level(self, depth: int) -> int:
        shed = self.config.shed
        limit = max(1, shed.queue_limit)
        fraction = depth / limit
        if fraction >= shed.reject_at:
            return 3
        if fraction >= shed.stale_at:
            return 2
        if fraction >= shed.skip_optimize_at:
            return 1
        return 0

    # -- the dispatcher -------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            entry = await self._queue.get()
            if entry is _STOP:
                break
            job = entry.job
            with span("serve.job", cat="serve", tenant=job.tenant, op=job.op):
                outcome = self._serve(entry)
            if not entry.future.done():
                entry.future.set_result(outcome)
            await asyncio.sleep(0)  # let submitters observe settlement

    def _serve(self, entry: _Entry) -> JobOutcome:
        job = entry.job
        try:
            self._require_deadline(entry)
            if job.op == OP_ADMIT:
                outcome = self._serve_admit(entry)
            elif job.op == OP_DEPART:
                outcome = self._serve_depart(entry)
            elif job.op == OP_PHASE_CHANGE:
                outcome = self._serve_phase_change(entry)
            elif job.op == OP_MEASURE:
                outcome = self._serve_measure(entry)
            else:  # unreachable: TenantJob validates op
                raise AdmissionRejected("unknown-op", job.op)
            self._breaker_success(job.tenant)
        except DeadlineExceeded as exc:
            self._count("expired")
            emit("serve.expire", detail=job.tenant, source="serve", op=job.op)
            outcome = self._outcome(entry, STATUS_EXPIRED, detail=str(exc))
        except ReproError as exc:
            self._count("failed")
            emit("serve.fail", detail=f"{job.tenant}: {exc}", source="serve",
                 op=job.op)
            self._breaker_failure(job.tenant)
            outcome = self._outcome(entry, STATUS_FAILED, detail=str(exc))
        self.latency.observe(outcome.latency_s)
        return outcome

    def _require_deadline(self, entry: _Entry) -> None:
        if entry.deadline_at is not None and self.clock() >= entry.deadline_at:
            raise DeadlineExceeded(
                f"{entry.job.op} {entry.job.tenant!r} missed its "
                f"{entry.job.qos.deadline_s}s deadline"
            )

    # -- op handlers ----------------------------------------------------
    def _serve_admit(self, entry: _Entry) -> JobOutcome:
        assert self.host is not None
        job = entry.job
        name = job.tenant
        self.host.admit(name, job.app)
        try:
            self._require_deadline(entry)
            plan, baseline = self.host.profile_tenant(name)
            self._require_deadline(entry)
            degraded = ""
            if entry.shed_level >= 1:
                degraded = "skip-optimize"
            else:
                self.host.optimize_tenant(name)
            self._require_deadline(entry)
            result = self.host.measure_tenant(name, plan, baseline)
        except Exception:
            # Roll the half-admitted tenant back out: pages freed,
            # objects dropped, audit green — allocator and page-table
            # state return to the pre-admit snapshot.
            self.host.depart(name)
            emit("serve.rollback", detail=name, source="serve", op=job.op)
            raise
        self._plans[name] = plan
        self._baselines[name] = baseline
        self._reservations[name] = job.qos.reserve_fast_bytes
        self._qos[name] = job.qos
        self._tenant_apps[name] = job.app
        self._stale_results[name] = self._result_payload(result)
        self._commit(job)
        self._count("admitted")
        emit("serve.admit", detail=name, source="serve", degraded=degraded)
        return self._outcome(
            entry, STATUS_OK, degraded=degraded,
            result=self._stale_results[name],
        )

    def _serve_depart(self, entry: _Entry) -> JobOutcome:
        assert self.host is not None
        name = entry.job.tenant
        self.host.depart(name)
        for table in (
            self._plans, self._baselines, self._reservations, self._qos,
            self._stale_results, self._breakers, self._tenant_apps,
        ):
            table.pop(name, None)
        self._commit(entry.job)
        self._count("departed")
        emit("serve.depart", detail=name, source="serve")
        return self._outcome(entry, STATUS_OK)

    def _serve_phase_change(self, entry: _Entry) -> JobOutcome:
        assert self.host is not None
        job = entry.job
        name = job.tenant
        _, _, runtime, _ = self.host.tenant(name)
        runtime.reset_profiling()
        # Advance the tenant's phase: the re-profile below runs over the
        # phase's cumulative stream and folds only the delta past the
        # previous phase's reuse profile.
        self.host.phase_change(name)
        plan, baseline = self.host.profile_tenant(name)
        self._require_deadline(entry)
        degraded = ""
        if entry.shed_level >= 1:
            degraded = "skip-optimize"
        else:
            self.host.optimize_tenant(name)
        self._plans[name] = plan
        self._baselines[name] = baseline
        self._commit(job)
        self._count("phase_changes")
        emit("serve.phase", detail=name, source="serve", degraded=degraded)
        return self._outcome(entry, STATUS_OK, degraded=degraded)

    def _serve_measure(self, entry: _Entry) -> JobOutcome:
        assert self.host is not None
        job = entry.job
        name = job.tenant
        if (
            entry.shed_level >= 2
            and job.qos.allow_stale
            and name in self._stale_results
        ):
            self._count("measured.stale")
            emit("serve.measure", detail=name, source="serve", stale=1)
            return self._outcome(
                entry, STATUS_OK, degraded="stale",
                result=self._stale_results[name],
            )
        if name not in self._plans:
            # Recovered (or never-profiled) tenant: profile on the
            # current placement first.
            plan, baseline = self.host.profile_tenant(name)
            self._plans[name] = plan
            self._baselines[name] = baseline
        self._require_deadline(entry)
        result = self.host.measure_tenant(
            name, self._plans[name], self._baselines[name]
        )
        payload = self._result_payload(result)
        self._stale_results[name] = payload
        self._count("measured")
        emit("serve.measure", detail=name, source="serve", stale=0)
        return self._outcome(entry, STATUS_OK, result=payload)

    # -- commit / audit -------------------------------------------------
    def _commit(self, job: TenantJob) -> None:
        """Journal a committed mutation and audit shared-system state."""
        if self.journal is not None:
            record = job.to_json()
            record["placements"] = self._placements_of(job.tenant)
            try:
                record["phase"] = self.host.phase_of(job.tenant)
            except ReproError:
                record["phase"] = 0  # departed
            self.journal.append(record)
            self.journal.checkpoint(self._snapshot_state())
        if self.config.audit:
            assert self.host is not None
            violations = self.host.system.check_consistency()
            if violations:
                raise ConsistencyError(
                    f"post-{job.op} audit failed: " + "; ".join(violations[:3])
                )

    def _placements_of(self, tenant: str) -> dict[str, list[list[int]]] | None:
        assert self.host is not None
        try:
            _, _, runtime, _ = self.host.tenant(tenant)
        except ReproError:
            return None  # departed
        return canonical_placements(
            runtime, self.host.system, prefix=f"{tenant}/"
        )

    def _snapshot_state(self) -> dict:
        assert self.host is not None
        tenants = []
        for name, _, runtime, key in self.host.tenants:
            tenants.append(
                {
                    "name": name,
                    "app": self._app_of(name),
                    "qos": self._qos.get(name, QoS()).to_json(),
                    "key_repr": repr(key),
                    "phase": self.host.phase_of(name),
                    "placements": canonical_placements(
                        runtime, self.host.system, prefix=f"{name}/"
                    ),
                }
            )
        return {"tenants": tenants}

    def _app_of(self, tenant: str) -> dict | None:
        app_spec = self._tenant_apps.get(tenant)
        return app_spec.to_json() if app_spec is not None else None

    # -- recovery -------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the tenant table and placements from the journal."""
        assert self.journal is not None and self.host is not None
        state, records = self.journal.load()
        tenants: list[dict] = list(state.get("tenants", [])) if state else []
        for record in records:
            op = record.get("op")
            name = record.get("tenant")
            if op == OP_ADMIT:
                tenants.append(
                    {
                        "name": name,
                        "app": record.get("app"),
                        "qos": record.get("qos", {}),
                        "phase": int(record.get("phase", 0)),
                        "placements": record.get("placements") or {},
                    }
                )
            elif op == OP_DEPART:
                tenants = [t for t in tenants if t.get("name") != name]
            elif op == OP_PHASE_CHANGE:
                for t in tenants:
                    if t.get("name") == name:
                        t["placements"] = record.get("placements") or {}
                        t["phase"] = int(
                            record.get("phase", t.get("phase", 0) + 1)
                        )
        for t in tenants:
            name = t["name"]
            app_payload = t.get("app")
            if app_payload is None:
                continue
            app_spec = AppSpec.from_json(app_payload)
            self.host.admit(name, app_spec)
            self.host.set_phase(name, int(t.get("phase", 0)))
            _, _, runtime, _ = self.host.tenant(name)
            placements = t.get("placements") or {}
            runtime.apply_placement(
                {
                    f"{name}/{short}": [tuple(r) for r in regions]
                    for short, regions in placements.items()
                }
            )
            qos = QoS.from_json(t.get("qos", {}))
            self._reservations[name] = qos.reserve_fast_bytes
            self._qos[name] = qos
            self._tenant_apps[name] = app_spec
            self.recovered_tenants += 1
        if self.recovered_tenants:
            self._count("recoveries")
            emit(
                "serve.recover",
                detail=f"{self.recovered_tenants} tenant(s)",
                source="serve",
                amount=self.recovered_tenants,
            )
            if self.config.audit:
                violations = self.host.system.check_consistency()
                if violations:
                    raise ConsistencyError(
                        "post-recovery audit failed: "
                        + "; ".join(violations[:3])
                    )

    # -- breaker --------------------------------------------------------
    def _breaker_failure(self, tenant: str) -> None:
        policy = self.config.breaker
        breaker = self._breakers.setdefault(tenant, _Breaker())
        breaker.failures += 1
        if breaker.failures < policy.failure_threshold:
            return
        breaker.failures = 0
        breaker.trips += 1
        backoff = min(
            policy.backoff_max_s,
            policy.backoff_base_s * (2 ** (breaker.trips - 1)),
        )
        # Deterministic jitter: seeded by (service seed, tenant, trip
        # count) so chaos runs replay bit-identically.
        rng = random.Random(f"{self.config.seed}:{tenant}:{breaker.trips}")
        backoff *= 1.0 + policy.jitter * rng.random()
        breaker.open_until = self.clock() + backoff
        self._count("breaker_trips")
        emit(
            "serve.breaker_open", detail=tenant, source="serve",
            amount=backoff, trips=breaker.trips,
        )

    def _breaker_success(self, tenant: str) -> None:
        breaker = self._breakers.get(tenant)
        if breaker is not None and (breaker.failures or breaker.open_until):
            breaker.failures = 0
            breaker.open_until = 0.0
            emit("serve.breaker_close", detail=tenant, source="serve")

    # -- plumbing -------------------------------------------------------
    def _outcome(
        self,
        entry: _Entry,
        status: str,
        *,
        detail: str = "",
        degraded: str = "",
        result=None,
    ) -> JobOutcome:
        return JobOutcome(
            job=entry.job,
            status=status,
            detail=detail,
            degraded=degraded,
            latency_s=max(0.0, self.clock() - entry.submitted),
            result=result,
        )

    def _result_payload(self, result) -> dict:
        return {
            "tenant": result.name,
            "baseline_seconds": result.baseline.seconds,
            "optimized_seconds": result.optimized.seconds,
            "speedup": result.speedup,
            "fast_bytes": result.fast_bytes,
            "data_ratio": result.data_ratio,
        }

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- introspection --------------------------------------------------
    def tenant_table(self) -> list[dict]:
        """The canonical (VA-independent) resident-tenant table."""
        state = self._snapshot_state()
        return state["tenants"]

    def health(self) -> dict:
        """``PoolHealth``-style counters plus decision-latency quantiles."""
        return {
            "resident_tenants": len(self.host.tenants) if self.host else 0,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "stopped": self._stopped,
            "counters": dict(sorted(self.counters.items())),
            "decision_latency": self.latency.summary(),
            "journal_corruptions": (
                list(self.journal.corruptions) if self.journal else []
            ),
        }


def canonical_placements(
    runtime: AtMemRuntime, system, *, prefix: str = ""
) -> dict[str, list[list[int]]]:
    """VA-independent placement: fast-tier byte runs per object.

    Virtual addresses depend on allocation history (a rolled-back admit
    still consumed address space), so recovery equality is defined over
    *object-relative* ranges: for each object, the byte spans currently
    resident in the fast tier.  Two services whose tables compare equal
    here place every byte identically regardless of where the bump
    allocator happened to put the objects.
    """
    space = system.address_space
    fast = system.fast_tier
    out: dict[str, list[list[int]]] = {}
    for name, obj in runtime.objects.items():
        short = name[len(prefix):] if prefix and name.startswith(prefix) else name
        n_pages = -(-obj.nbytes // PAGE_SIZE)
        tiers = space.range_tiers(obj.base_va, n_pages * PAGE_SIZE)
        runs: list[list[int]] = []
        start: int | None = None
        for i in range(n_pages):
            on_fast = int(tiers[i]) == fast
            if on_fast and start is None:
                start = i
            elif not on_fast and start is not None:
                runs.append([start * PAGE_SIZE, min(i * PAGE_SIZE, obj.nbytes)])
                start = None
        if start is not None:
            runs.append(
                [start * PAGE_SIZE, min(n_pages * PAGE_SIZE, obj.nbytes)]
            )
        out[short] = runs
    return out
