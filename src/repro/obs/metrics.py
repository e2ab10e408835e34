"""The metrics registry: counters, gauges, and timing accumulators.

One process-wide registry accumulates every quantitative signal a run
produces — tier line/byte traffic, device amplification, trace-store and
graph-cache hit rates, migration committed-vs-wasted accounting, pool
retry/timeout counts — and snapshots it atomically at run end.

Design constraints, in order:

- **Determinism.**  Counters and gauges hold *model-domain* values
  (simulated seconds, line counts, bytes), which are bit-identical
  across same-seed runs.  Wall-clock durations never land in counters —
  they go to :class:`Timing` accumulators, whose *counts* are
  deterministic but whose sums are not, and the snapshot keeps the two
  families apart so ``repro stats`` can print a reproducible report.
- **Mergeability.**  A worker process drains its registry at job end
  (:meth:`MetricsRegistry.drain`) and the parent merges the delta
  (:meth:`MetricsRegistry.merge`): counters add, gauges last-write-win,
  timings combine (count/total/min/max).  The shared-nothing pool
  contract stays intact — nothing is mutated across the boundary.
- **Near-zero overhead.**  Incrementing a counter is one dict
  ``get``/set; there is no label parsing, no string formatting, and no
  locking (the simulator is single-threaded per process; the pool
  merges between processes, not between threads).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

SNAPSHOT_VERSION = 1

#: Environment variable overriding where run-end snapshots are written.
METRICS_PATH_ENV = "REPRO_METRICS_PATH"


def default_snapshot_path() -> Path:
    """Where ``repro stats`` looks for the last run's snapshot."""
    raw = os.environ.get(METRICS_PATH_ENV)
    if raw:
        return Path(raw)
    return (
        Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "results"
        / "metrics-last.json"
    )


@dataclass
class Timing:
    """Wall-clock accumulator: count is deterministic, durations are not."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    def combine(self, other: "Timing") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
        }


class LatencyTracker:
    """Reservoir-sampled latency distribution with percentile readout.

    :class:`Timing` keeps only count/total/min/max — enough for stage
    accounting, not for a serving SLO.  The placement service needs p50
    and p99 *decision latency* for its health endpoint, so this tracker
    retains up to ``cap`` observations.

    Past the cap it switches to Algorithm R reservoir sampling with a
    seeded RNG: every observation — old or new — has equal probability
    of being retained, so long runs report percentiles over the *whole*
    history instead of a most-recent window (the PR 6 cap silently
    dropped everything before the last ``cap`` samples, biasing p50/p99
    toward whatever the service was doing lately).  ``samples_dropped``
    counts evictions, the true ``count`` and ``max`` are tracked
    exactly, and the seeded RNG keeps :meth:`summary` deterministic for
    a given observation sequence.
    """

    def __init__(self, cap: int = 100_000, seed: int = 17) -> None:
        self._cap = max(1, cap)
        self._samples: list[float] = []
        self._rng = random.Random(seed)
        self._count = 0
        self._max = 0.0
        self.samples_dropped = 0

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        self._count += 1
        if value > self._max:
            self._max = value
        if len(self._samples) < self._cap:
            self._samples.append(value)
            return
        # Algorithm R: keep the newcomer with probability cap/count.
        slot = self._rng.randrange(self._count)
        self.samples_dropped += 1
        if slot < self._cap:
            self._samples[slot] = value

    def __len__(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = math.ceil(q / 100.0 * len(ordered))
        rank = min(max(rank, 1), len(ordered))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """Count plus p50/p99/max, JSON-ready for health endpoints."""
        if not self._samples:
            return {
                "count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0,
                "samples_dropped": 0,
            }
        return {
            "count": self._count,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self._max,
            "samples_dropped": self.samples_dropped,
        }


class MetricsRegistry:
    """Flat, name-keyed registry of counters, gauges, and timings.

    Names are dotted paths (``migration.bytes_committed``,
    ``store.trace_loads``); the dots exist purely for readable grouping
    in ``repro stats`` output — the registry itself is flat.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timings: dict[str, Timing] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a monotonically increasing counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one wall-clock duration under ``name``."""
        timing = self.timings.get(name)
        if timing is None:
            timing = self.timings[name] = Timing()
        timing.observe(seconds)

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """An atomic, JSON-ready view: deterministic families first."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "timings": {
                k: self.timings[k].as_dict() for k in sorted(self.timings)
            },
        }

    def deterministic_snapshot(self) -> dict:
        """Only the families that are bit-identical across same-seed runs."""
        snap = self.snapshot()
        return {
            "version": snap["version"],
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "timing_counts": {
                k: v["count"] for k, v in snap["timings"].items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a (worker's) snapshot into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, payload in snapshot.get("timings", {}).items():
            other = Timing(
                count=int(payload.get("count", 0)),
                total=float(payload.get("total", 0.0)),
                minimum=float(payload.get("min", 0.0)),
                maximum=float(payload.get("max", 0.0)),
            )
            timing = self.timings.get(name)
            if timing is None:
                self.timings[name] = other
            else:
                timing.combine(other)

    def drain(self) -> dict:
        """Snapshot and reset — the worker half of the pool contract."""
        snap = self.snapshot()
        self.reset()
        return snap

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.timings.clear()

    # ------------------------------------------------------------------
    # persistence / rendering
    # ------------------------------------------------------------------
    def write_snapshot(self, path: str | Path | None = None) -> Path:
        """Atomically write the full snapshot as JSON; returns the path."""
        target = Path(path) if path is not None else default_snapshot_path()
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
        tmp.write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, target)
        return target


def load_snapshot(path: str | Path | None = None) -> dict | None:
    """Read a written snapshot back, or ``None`` when absent/corrupt."""
    target = Path(path) if path is not None else default_snapshot_path()
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def render_snapshot(snapshot: dict, *, timings: bool = False) -> str:
    """Human-readable snapshot report (``repro stats``).

    Counters and gauges are always shown (they are deterministic); timing
    sums are wall-clock and only appear with ``timings=True`` so the
    default report is identical across same-seed runs.
    """
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    timing_map = snapshot.get("timings", {})
    width = max(
        (len(name) for name in (*counters, *gauges, *timing_map)), default=20
    )
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<{width}} {_number(counters[name])}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}} {_number(gauges[name])}")
    if timing_map:
        lines.append("timings:" if timings else "timings (counts only):")
        for name in sorted(timing_map):
            entry = timing_map[name]
            if timings:
                lines.append(
                    f"  {name:<{width}} n={entry['count']} "
                    f"total={entry['total']:.4f}s "
                    f"min={entry['min']:.6f}s max={entry['max']:.6f}s"
                )
            else:
                lines.append(f"  {name:<{width}} n={entry['count']}")
    if not lines:
        return "(empty metrics snapshot)"
    return "\n".join(lines)


def _number(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,d}"
    return f"{value:.6g}"


# ----------------------------------------------------------------------
# process-wide registry
# ----------------------------------------------------------------------
_PROCESS_METRICS: MetricsRegistry | None = None


def process_metrics() -> MetricsRegistry:
    """The per-process registry every subsystem records into by default."""
    global _PROCESS_METRICS
    if _PROCESS_METRICS is None:
        _PROCESS_METRICS = MetricsRegistry()
    return _PROCESS_METRICS


def reset_process_metrics() -> MetricsRegistry:
    """Replace the process registry (tests, worker job entry)."""
    global _PROCESS_METRICS
    _PROCESS_METRICS = MetricsRegistry()
    return _PROCESS_METRICS


class HandleCounters:
    """Per-handle event counts that are views of registry increments.

    :meth:`bump` is the only write path: it counts the event on this
    handle *and* increments ``<family>.<name>`` in the process registry,
    so a handle's ``stats`` and the registry can never drift apart.
    Counts read as attributes (``stats.trace_hits``); :meth:`as_dict`
    lists every declared field, zeros included.
    """

    def __init__(self, family: str, fields) -> None:
        self._family = family
        self._counts: dict[str, int] = dict.fromkeys(fields, 0)

    def bump(self, name: str) -> None:
        self._counts[name] += 1  # KeyError on an undeclared field
        process_metrics().inc(f"{self._family}.{name}")

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["_counts"][name]
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)
