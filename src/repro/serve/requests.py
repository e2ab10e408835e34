"""Request and outcome types for the placement service.

The serving layer (:mod:`repro.serve.service`) admits a *stream* of
tenant jobs rather than a batch scenario; these are the typed messages
that cross its boundary.  Everything here is JSON-friendly so jobs can
be journalled, replayed, and generated from arrival traces
(:mod:`repro.serve.arrivals`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.sim.parallel import AppSpec

# -- operations ---------------------------------------------------------
#: Admit a new tenant: register, profile, optimize, measure.
OP_ADMIT = "admit"
#: Depart a tenant: free its pages, drop its objects.
OP_DEPART = "depart"
#: A tenant changed phase: re-profile and re-optimize in place.
OP_PHASE_CHANGE = "phase-change"
#: Measure a tenant on the current shared placement.
OP_MEASURE = "measure"

OPS = (OP_ADMIT, OP_DEPART, OP_PHASE_CHANGE, OP_MEASURE)

# -- job outcome statuses ----------------------------------------------
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_EXPIRED = "expired"
STATUS_FAILED = "failed"


class ServeError(ReproError):
    """Base class for serving-layer errors."""


class AdmissionRejected(ServeError):
    """The service refused a job instead of oversubscribing.

    ``reason`` is a stable machine-readable token:

    - ``queue-full`` — the bounded request queue is at its limit;
    - ``shed`` — overload shedding reached the reject tier;
    - ``reservation`` — the tenant's fast-tier reservation cannot be
      honoured with current capacity;
    - ``breaker-open`` — the tenant's circuit breaker is open after
      repeated failures;
    - ``duplicate`` — a tenant with this name is already resident;
    - ``unknown-tenant`` — the op targets a tenant that is not resident;
    - ``stopped`` — the service is not accepting work.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


class DeadlineExceeded(ServeError):
    """A job's deadline expired before (or while) it was served."""


class ServiceStopped(ServeError):
    """The service was stopped while the job was still queued."""


@dataclass(frozen=True)
class QoS:
    """Per-job quality-of-service contract.

    ``reserve_fast_bytes`` is checked at admission: the service refuses
    to admit a tenant whose reservation cannot fit next to the existing
    reservations (typed :class:`AdmissionRejected` rather than a later
    :class:`~repro.errors.CapacityError` deep inside a migration pass).
    ``deadline_s`` is a relative budget from submission; ``None`` means
    no deadline.  ``allow_stale`` opts the job into the "serve stale
    placement" degradation tier under overload.
    """

    reserve_fast_bytes: int = 0
    deadline_s: float | None = None
    allow_stale: bool = True

    def to_json(self) -> dict:
        return {
            "reserve_fast_bytes": self.reserve_fast_bytes,
            "deadline_s": self.deadline_s,
            "allow_stale": self.allow_stale,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QoS":
        return cls(
            reserve_fast_bytes=int(payload.get("reserve_fast_bytes", 0)),
            deadline_s=payload.get("deadline_s"),
            allow_stale=bool(payload.get("allow_stale", True)),
        )


@dataclass(frozen=True)
class TenantJob:
    """One unit of work for the resident service."""

    op: str
    tenant: str
    app: AppSpec | None = None
    qos: QoS = field(default_factory=QoS)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ServeError(f"unknown op {self.op!r}; expected one of {OPS}")
        if self.op == OP_ADMIT and self.app is None:
            raise ServeError("admit requires an AppSpec")

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "tenant": self.tenant,
            "app": self.app.to_json() if self.app is not None else None,
            "qos": self.qos.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TenantJob":
        app = payload.get("app")
        return cls(
            op=str(payload["op"]),
            tenant=str(payload["tenant"]),
            app=AppSpec.from_json(app) if app is not None else None,
            qos=QoS.from_json(payload.get("qos", {})),
        )


@dataclass
class JobOutcome:
    """What happened to one submitted job.

    ``degraded`` names the shedding tier applied (``""`` when served at
    full fidelity, ``"skip-optimize"`` / ``"stale"`` otherwise);
    ``latency_s`` is submit-to-settle decision latency; ``result`` is the
    op's payload (a result dict for measure/admit, ``None`` otherwise).
    """

    job: TenantJob
    status: str
    detail: str = ""
    degraded: str = ""
    latency_s: float = 0.0
    result: Any = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK
