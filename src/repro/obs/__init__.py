"""The unified observability plane: tracing, metrics, and the event bus.

Three primitives with one shipping contract:

- :mod:`repro.obs.tracer` — nested timed spans, JSONL output, Chrome /
  Perfetto timeline export, gated by ``REPRO_TRACE`` / ``--trace``;
- :mod:`repro.obs.metrics` — counters/gauges/timing accumulators,
  snapshotted atomically at run end and embedded in bench rows;
- :mod:`repro.obs.bus` — publish/subscribe events that replace the
  bespoke RuntimeEvent lists, parent-side PoolHealth mutation, and
  chaos-report dict shaping.

Plus :mod:`repro.obs.naming`, the instrumentation name taxonomy
astlint enforces.

All primitives separate *worker* state from *parent* state the same
way: ``drain()`` empties the worker-side buffer into a picklable batch
that rides home in the job payload, and ``absorb()``/``merge()`` folds
it in parent-side, so cross-process accounting is exact even with
retries and pool restarts.  Each drained blob carries a unique
``blob_id`` and :func:`absorb_all` refuses to fold the same blob twice
— a retry that re-delivers a payload cannot double-count.
"""

import itertools
import os

from repro.obs.bus import (
    Event,
    EventBus,
    emit,
    process_bus,
    reset_process_bus,
)
from repro.obs.metrics import (
    LatencyTracker,
    MetricsRegistry,
    default_snapshot_path,
    load_snapshot,
    process_metrics,
    render_snapshot,
    reset_process_metrics,
)
from repro.obs.tracer import (
    TRACE_ENV,
    Tracer,
    export_chrome,
    instant,
    process_tracer,
    read_jsonl,
    reset_process_tracer,
    span,
    to_chrome,
    tracing_enabled,
)

__all__ = [
    "Event",
    "EventBus",
    "emit",
    "process_bus",
    "reset_process_bus",
    "LatencyTracker",
    "MetricsRegistry",
    "default_snapshot_path",
    "load_snapshot",
    "process_metrics",
    "render_snapshot",
    "reset_process_metrics",
    "TRACE_ENV",
    "Tracer",
    "export_chrome",
    "instant",
    "process_tracer",
    "read_jsonl",
    "reset_process_tracer",
    "span",
    "to_chrome",
    "tracing_enabled",
]

#: Monotonic per-process counter making blob ids unique within a pid.
_BLOB_SEQ = itertools.count()

#: Blob ids already folded into this process (idempotent absorb).
_ABSORBED: set[str] = set()


def drain_all() -> dict:
    """Drain bus events, metrics, and spans into one picklable blob.

    The worker half of the pool contract: called at job end, the blob
    rides home inside the job payload.  The ``blob_id`` identifies this
    exact drain so the parent can absorb it at most once.
    """
    return {
        "blob_id": f"{os.getpid()}:{next(_BLOB_SEQ)}",
        "events": [e.as_dict() for e in process_bus().drain()],
        "metrics": process_metrics().drain(),
        "spans": process_tracer().drain(),
    }


def absorb_all(blob: dict) -> bool:
    """Fold a worker's drained blob into this process's obs state.

    Returns ``False`` (and folds nothing) when this exact blob was
    already absorbed — retries and replays are idempotent.  Blobs
    without an id (older callers, hand-built dicts) are always folded.
    """
    if not blob:
        return False
    blob_id = blob.get("blob_id")
    if blob_id is not None:
        if blob_id in _ABSORBED:
            return False
        _ABSORBED.add(blob_id)
    process_bus().absorb(blob.get("events", ()))
    process_metrics().merge(blob.get("metrics", {}))
    process_tracer().absorb(blob.get("spans", ()))
    return True


def reset_all() -> None:
    """Fresh bus + metrics + tracer (worker job entry, test isolation)."""
    reset_process_bus()
    reset_process_metrics()
    reset_process_tracer()
    _ABSORBED.clear()
