"""Span-based tracing with Chrome/Perfetto timeline export.

A *span* is one timed region of work — a pool dispatch wave, a worker
job, a runtime phase, a migration stage, a shared-memory publish.  Spans
nest: the tracer tracks a per-thread stack so a ``store.load`` span that
happens inside a ``phase.profile`` span carries ``depth=2`` and closes
before its parent, and the exported timeline renders the containment.

Timestamps are absolute microseconds from :func:`time.perf_counter`,
which on Linux is ``CLOCK_MONOTONIC`` — the *same* clock in a forked
worker as in its parent, so spans drained from pool workers merge onto
one coherent timeline without skew correction.  Each span records the
emitting ``pid`` and thread id, which become Chrome trace-event
``pid``/``tid`` rows, so every worker gets its own track.

Tracing is **off by default** and gated by ``REPRO_TRACE`` (or the
``--trace PATH`` CLI flag, which sets it).  When off, :func:`span`
returns a shared no-op context manager: one env-cached boolean check and
zero allocation on the hot path.  When on, finished spans buffer
in-process and are written as JSONL — one JSON object per line — either
incrementally via :meth:`Tracer.flush` or shipped across the pool
boundary via :meth:`Tracer.drain` / :meth:`Tracer.absorb`, mirroring the
event-bus contract.

``repro trace --perfetto run.trace`` converts the JSONL into Chrome
trace-event JSON (``{"traceEvents": [...]}`` with ``ph: "X"`` complete
events) loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

#: Environment variable holding the JSONL output path; truthy == enabled.
TRACE_ENV = "REPRO_TRACE"


def trace_path() -> Path | None:
    """The configured trace output path, or ``None`` when tracing is off."""
    raw = os.environ.get(TRACE_ENV, "").strip()
    if not raw or raw == "0":
        return None
    return Path(raw)


def tracing_enabled() -> bool:
    return trace_path() is not None


class _NullSpan:
    """The do-nothing context manager handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Attribute setter that discards everything (parity with _Span)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records close time and attributes on ``__exit__``."""

    __slots__ = ("tracer", "name", "cat", "start_us", "depth", "attrs", "tid")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, attrs: dict
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.tid = threading.get_ident()
        self.depth = tracer._push()
        self.start_us = time.perf_counter() * 1e6

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (cache kind, bytes, ...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_us = time.perf_counter() * 1e6
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._record(
            {
                "name": self.name,
                "cat": self.cat,
                "ts": self.start_us,
                "dur": end_us - self.start_us,
                "pid": os.getpid(),
                "tid": self.tid,
                "depth": self.depth,
                "args": self.attrs,
            }
        )
        self.tracer._pop()
        return False


class Tracer:
    """Buffers finished spans and writes them out as JSONL."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._depth = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "repro", **attrs):
        """Open a span; use as ``with tracer.span("phase.profile"): ...``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "repro", **attrs) -> None:
        """Record a zero-duration marker (fault fired, rollback, ...)."""
        if not self.enabled:
            return
        self._record(
            {
                "name": name,
                "cat": cat,
                "ts": time.perf_counter() * 1e6,
                "dur": 0.0,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "depth": getattr(self._depth, "value", 0),
                "args": attrs,
                "instant": True,
            }
        )

    def _push(self) -> int:
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        return depth

    def _pop(self) -> None:
        self._depth.value = max(0, getattr(self._depth, "value", 1) - 1)

    def _record(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    # ------------------------------------------------------------------
    # shipping / persistence (mirrors the EventBus contract)
    # ------------------------------------------------------------------
    def drain(self) -> list[dict]:
        """Empty the buffer and return the records (worker -> parent)."""
        with self._lock:
            drained = self.records
            self.records = []
        return drained

    def absorb(self, records: Iterable[dict]) -> int:
        """Merge a drained batch from another process into this buffer."""
        batch = list(records)
        with self._lock:
            self.records.extend(batch)
        return len(batch)

    def flush(self, path: str | Path | None = None, *, append: bool = True) -> Path | None:
        """Drain the buffer to ``path`` as JSONL; returns the path written.

        No-op (returns ``None``) when the buffer is empty or no path is
        configured — callers can flush unconditionally at run end.
        """
        target = Path(path) if path is not None else trace_path()
        if target is None:
            return None
        drained = self.drain()
        if not drained:
            return target if target.exists() else None
        target.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if append else "w"
        with target.open(mode, encoding="utf-8") as handle:
            for record in drained:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return target


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def read_jsonl(path: str | Path) -> list[dict]:
    """Load span records from a JSONL trace file, skipping corrupt lines."""
    records: list[dict] = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def to_chrome(records: Iterable[dict]) -> dict:
    """Convert span records to Chrome trace-event JSON.

    Spans become ``ph: "X"`` complete events; instants become ``ph: "i"``.
    Timestamps are rebased so the earliest record starts at t=0, which
    keeps the Perfetto viewport sane for long-lived processes.
    """
    batch = sorted(records, key=lambda r: float(r.get("ts", 0.0)))
    base = float(batch[0]["ts"]) if batch else 0.0
    events: list[dict] = []
    for record in batch:
        event = {
            "name": str(record.get("name", "?")),
            "cat": str(record.get("cat", "repro")),
            "ts": float(record.get("ts", 0.0)) - base,
            "pid": int(record.get("pid", 0)),
            "tid": int(record.get("tid", 0)) % 2**31,
            "args": record.get("args", {}),
        }
        if record.get("instant"):
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = float(record.get("dur", 0.0))
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome(jsonl_path: str | Path, out_path: str | Path) -> int:
    """Convert a JSONL trace to a Chrome trace file; returns event count."""
    records = read_jsonl(jsonl_path)
    payload = to_chrome(records)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# process-wide tracer
# ----------------------------------------------------------------------
_PROCESS_TRACER: Tracer | None = None
_PROCESS_TRACER_ENABLED: bool | None = None


def process_tracer() -> Tracer:
    """The per-process tracer, re-resolved when ``REPRO_TRACE`` changes."""
    global _PROCESS_TRACER, _PROCESS_TRACER_ENABLED
    enabled = tracing_enabled()
    if _PROCESS_TRACER is None or _PROCESS_TRACER_ENABLED != enabled:
        _PROCESS_TRACER = Tracer(enabled=enabled)
        _PROCESS_TRACER_ENABLED = enabled
    return _PROCESS_TRACER


def reset_process_tracer() -> Tracer:
    """Force a fresh tracer (tests, worker job entry)."""
    global _PROCESS_TRACER, _PROCESS_TRACER_ENABLED
    _PROCESS_TRACER = Tracer(enabled=tracing_enabled())
    _PROCESS_TRACER_ENABLED = _PROCESS_TRACER.enabled
    return _PROCESS_TRACER


@contextmanager
def span(name: str, cat: str = "repro", **attrs) -> Iterator:
    """Module-level convenience: a span on the process tracer.

    The common call site — ``with span("phase.profile"): ...`` — costs a
    single cached-boolean check when tracing is off.
    """
    tracer = process_tracer()
    if not tracer.enabled:
        yield _NULL_SPAN
        return
    with tracer.span(name, cat, **attrs) as live:
        yield live


def instant(name: str, cat: str = "repro", **attrs) -> None:
    """Module-level convenience: an instant marker on the process tracer."""
    tracer = process_tracer()
    if tracer.enabled:
        tracer.instant(name, cat, **attrs)
