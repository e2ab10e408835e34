"""Placement-as-a-service: the crash-tolerant resident serving layer.

Where :func:`repro.sim.multitenant.run_scenarios` runs *batch* shared-
host scenarios and dies with the process, this package keeps one warm
:class:`~repro.mem.system.HeterogeneousMemorySystem` resident and admits
a **stream** of tenant jobs against it:

- :mod:`repro.serve.requests` — typed jobs, QoS contracts, and outcomes;
- :mod:`repro.serve.service`  — the asyncio service: bounded admission,
  deadlines with transactional rollback, tiered load shedding, per-
  tenant circuit breakers;
- :mod:`repro.serve.journal`  — CRC-journalled warm state so a killed
  service recovers bit-identically;
- :mod:`repro.serve.arrivals` — seeded arrival traces and the
  synchronous driver the benchmark and chaos matrix share.

Each served job runs inside a ``serve.job`` span and emits ``serve.*``
bus events; :meth:`~repro.serve.service.PlacementService.health`
reports the outcome counters and decision-latency quantiles.
"""

from repro.serve.arrivals import default_roster, generate_arrivals, serve_trace
from repro.serve.journal import ServiceJournal
from repro.serve.requests import (
    OP_ADMIT,
    OP_DEPART,
    OP_MEASURE,
    OP_PHASE_CHANGE,
    AdmissionRejected,
    DeadlineExceeded,
    JobOutcome,
    QoS,
    ServeError,
    ServiceStopped,
    TenantJob,
)
from repro.serve.service import (
    BreakerPolicy,
    PlacementService,
    ServiceConfig,
    ShedPolicy,
    canonical_placements,
)

__all__ = [
    "OP_ADMIT",
    "OP_DEPART",
    "OP_MEASURE",
    "OP_PHASE_CHANGE",
    "AdmissionRejected",
    "BreakerPolicy",
    "DeadlineExceeded",
    "JobOutcome",
    "PlacementService",
    "QoS",
    "ServeError",
    "ServiceConfig",
    "ServiceJournal",
    "ServiceStopped",
    "ShedPolicy",
    "TenantJob",
    "canonical_placements",
    "default_roster",
    "generate_arrivals",
    "serve_trace",
]
