"""Deterministic arrival traces and a synchronous serving driver.

:func:`generate_arrivals` produces a seeded stream of tenant jobs —
admits, departs, phase changes, measures — that maintains a coherent
live-tenant set (it never departs a tenant it has not admitted), so the
same seed always yields the same trace.  :func:`serve_trace` drives such
a trace through a :class:`~repro.serve.service.PlacementService` inside
``asyncio.run`` and reports sustained placements/sec plus the decision-
latency quantiles (the ``serve-churn`` workload of ``perfbench/`` drives
the service the same way).
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.serve.requests import (
    OP_ADMIT,
    OP_DEPART,
    OP_MEASURE,
    OP_PHASE_CHANGE,
    STATUS_REJECTED,
    AdmissionRejected,
    JobOutcome,
    QoS,
    TenantJob,
)
from repro.serve.service import PlacementService, ServiceConfig
from repro.sim.parallel import AppSpec

#: Keep arrival-trace tenants tiny: the point is churn, not graph size.
ARRIVAL_SCALE = 1 << 20

#: The app/dataset recipes arrivals draw from.
DEFAULT_ROSTER = (
    ("PR", "twitter"),
    ("BFS", "rmat24"),
    ("CC", "pokec"),
)


def default_roster(scale: int = ARRIVAL_SCALE) -> tuple[AppSpec, ...]:
    """The stock tenant recipes at the given scale."""
    return tuple(
        AppSpec.make(app, dataset, scale=scale)
        for app, dataset in DEFAULT_ROSTER
    )


def generate_arrivals(
    n_events: int,
    *,
    seed: int = 17,
    roster: tuple[AppSpec, ...] | None = None,
    max_live: int = 3,
    deadline_s: float | None = None,
    reserve_fast_bytes: int = 0,
) -> list[TenantJob]:
    """A seeded, self-consistent stream of tenant jobs.

    The stream admits fresh tenants (monotonic names, so a replay after
    departures never collides), measures and phase-changes live ones,
    and departs them — weighted so a few tenants are always resident.
    Identical arguments produce an identical trace, which is what lets
    the chaos kill-and-recover case compare two runs of the same trace.
    """
    rng = random.Random(seed)
    roster = roster or default_roster()
    qos = QoS(deadline_s=deadline_s, reserve_fast_bytes=reserve_fast_bytes)
    live: list[str] = []
    next_id = 0
    jobs: list[TenantJob] = []
    for _ in range(n_events):
        roll = rng.random()
        if not live or (roll < 0.35 and len(live) < max_live):
            name = f"t{next_id:02d}"
            next_id += 1
            app = roster[rng.randrange(len(roster))]
            jobs.append(TenantJob(OP_ADMIT, name, app=app, qos=qos))
            live.append(name)
        elif roll < 0.55:
            tenant = live[rng.randrange(len(live))]
            jobs.append(TenantJob(OP_MEASURE, tenant, qos=qos))
        elif roll < 0.75:
            tenant = live[rng.randrange(len(live))]
            jobs.append(TenantJob(OP_PHASE_CHANGE, tenant, qos=qos))
        else:
            tenant = live.pop(rng.randrange(len(live)))
            jobs.append(TenantJob(OP_DEPART, tenant, qos=qos))
    return jobs


def serve_trace(
    jobs: list[TenantJob],
    config: ServiceConfig,
    *,
    kill_after: int | None = None,
    clock=None,
    trace_cache=None,
) -> dict:
    """Drive a job stream through a resident service, synchronously.

    Jobs are submitted one at a time (settled before the next arrives),
    so the queue never sheds — this measures the *sustained* serving
    rate.  ``kill_after=k`` crashes the service (no drain, no final
    checkpoint) after ``k`` jobs settle, simulating a SIGKILL mid-trace;
    the report then reflects the partial run, and a follow-up
    :func:`serve_trace` against the same journal root recovers it.
    """

    async def _drive() -> dict:
        kwargs = {"trace_cache": trace_cache}
        if clock is not None:
            kwargs["clock"] = clock
        service = PlacementService(config, **kwargs)
        await service.start()
        outcomes: list[JobOutcome] = []
        killed = False
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            if kill_after is not None and i >= kill_after:
                service.kill()
                killed = True
                break
            try:
                outcomes.append(await service.submit(job))
            except AdmissionRejected as exc:
                outcomes.append(
                    JobOutcome(
                        job=job, status=STATUS_REJECTED, detail=exc.reason
                    )
                )
        wall = time.perf_counter() - start
        tenant_table = service.tenant_table()
        health = await service.stop() if not killed else service.health()
        placements = sum(
            1
            for o in outcomes
            if o.ok and o.job.op in (OP_ADMIT, OP_PHASE_CHANGE)
        )
        return {
            "jobs": len(outcomes),
            "killed": killed,
            "wall_seconds": wall,
            "placements": placements,
            "placements_per_s": placements / wall if wall > 0 else 0.0,
            "statuses": _status_counts(outcomes),
            "outcomes": outcomes,
            "tenant_table": tenant_table,
            "health": health,
        }

    return asyncio.run(_drive())


def _status_counts(outcomes: list[JobOutcome]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return dict(sorted(counts.items()))
