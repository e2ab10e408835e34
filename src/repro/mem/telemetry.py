"""Per-run memory-system telemetry.

Aggregates, for one simulated run, the traffic each tier served and how
close it came to saturating its bandwidth — the counters a performance
engineer would pull from uncore PMUs on the real machines.  The executor
can be pointed at a :class:`TelemetryCollector` to fill one in as a run is
priced; reports feed the diagnostics example and the bandwidth-split
extension's sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.cache import LINE_SIZE
from repro.mem.system import HeterogeneousMemorySystem
from repro.mem.tier import MemoryTier
from repro.obs.bus import Event, process_bus
from repro.obs.metrics import process_metrics


@dataclass
class TierTraffic:
    """Traffic one tier served during a run."""

    tier: MemoryTier
    read_lines: int = 0
    write_lines: int = 0
    random_lines: int = 0

    @property
    def total_lines(self) -> int:
        return self.read_lines + self.write_lines

    @property
    def bytes_moved(self) -> int:
        """Line traffic in bytes, before device-level amplification."""
        return self.total_lines * LINE_SIZE

    @property
    def device_bytes(self) -> int:
        """Traffic the device media actually serves, with amplification."""
        amplified = self.random_lines * LINE_SIZE * (
            self.tier.random_access_amplification - 1.0
        )
        return int(self.bytes_moved + amplified)

    def utilization(self, run_seconds: float) -> float:
        """Fraction of the tier's peak bandwidth this run consumed."""
        if run_seconds <= 0.0:
            return 0.0
        peak = self.tier.read_bandwidth_gbps * 1e9  # dominant direction
        return min(1.0, self.device_bytes / (peak * run_seconds))


#: Runtime decisions are plain observability events; the old bespoke
#: dataclass is gone and callers that imported it keep working.
RuntimeEvent = Event


class EventLog:
    """Runtime-scoped view over the process event bus.

    The ATMem runtime records here why a placement deviated from the
    analyzer's selection — capacity-pressure truncation, cold-region
    demotion, migration aborts survived by retry — so a chaos run's
    behaviour is auditable after the fact.  Every record is *also*
    published on :func:`repro.obs.bus.process_bus`, so subscribers
    (chaos reports, pool-health merging) see runtime decisions through
    the same API as every other subsystem; the log itself just keeps the
    per-runtime slice so ``runtime.events`` stays scoped to one run.
    """

    def __init__(self, source: str = "runtime") -> None:
        self.source = source
        self.events: list[RuntimeEvent] = []

    def record(self, kind: str, detail: str, amount: float = 0.0) -> RuntimeEvent:
        event = Event(
            kind=kind, detail=detail, amount=amount, source=self.source
        )
        self.events.append(event)
        process_bus().publish(event)
        return event

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def render(self) -> str:
        """Human-readable event listing (one line each)."""
        if not self.events:
            return "(no runtime events)"
        return "\n".join(
            f"[{e.kind}] {e.detail}" + (f" ({e.amount:g})" if e.amount else "")
            for e in self.events
        )


@dataclass
class TelemetryCollector:
    """Accumulates per-tier traffic while the executor prices a run."""

    system: HeterogeneousMemorySystem
    traffic: dict[int, TierTraffic] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for tier_id, tier in enumerate(self.system.tiers):
            self.traffic[tier_id] = TierTraffic(tier=tier)

    def record_counts(
        self, *, is_write: bool, is_random: bool, miss_by_tier: dict[int, int]
    ) -> None:
        """Account one phase's per-tier miss counts to the tiers that served them.

        Only the phase's direction and kind matter here, which is all a
        compiled profile keeps of it.
        """
        for tier_id, count in miss_by_tier.items():
            entry = self.traffic[tier_id]
            if is_write:
                entry.write_lines += count
            else:
                entry.read_lines += count
            if is_random:
                entry.random_lines += count

    def reset(self) -> None:
        for entry in self.traffic.values():
            entry.read_lines = 0
            entry.write_lines = 0
            entry.random_lines = 0

    def publish_metrics(self, run_seconds: float = 0.0) -> None:
        """Push per-tier traffic into the process metrics registry.

        All values are model-domain (simulated seconds, line counts), so
        the resulting snapshot is deterministic across same-seed runs.
        """
        registry = process_metrics()
        for entry in self.traffic.values():
            name = entry.tier.name
            registry.inc(f"traffic.{name}.read_lines", entry.read_lines)
            registry.inc(f"traffic.{name}.write_lines", entry.write_lines)
            registry.inc(f"traffic.{name}.random_lines", entry.random_lines)
            registry.inc(f"traffic.{name}.device_bytes", entry.device_bytes)
            if entry.bytes_moved:
                registry.gauge(
                    f"traffic.{name}.amplification",
                    entry.device_bytes / entry.bytes_moved,
                )
            if run_seconds > 0.0:
                registry.gauge(
                    f"traffic.{name}.utilization",
                    entry.utilization(run_seconds),
                )

    def report(self, run_seconds: float) -> str:
        """Human-readable per-tier traffic summary."""
        header = (
            f"{'tier':12s} {'read MiB':>9s} {'write MiB':>10s} "
            f"{'random%':>8s} {'device MiB':>11s} {'bw util%':>9s}"
        )
        lines = [header, "-" * len(header)]
        for entry in self.traffic.values():
            total = max(1, entry.total_lines)
            lines.append(
                f"{entry.tier.name:12s} "
                f"{entry.read_lines * LINE_SIZE / 2**20:9.2f} "
                f"{entry.write_lines * LINE_SIZE / 2**20:10.2f} "
                f"{100.0 * entry.random_lines / total:8.1f} "
                f"{entry.device_bytes / 2**20:11.2f} "
                f"{100.0 * entry.utilization(run_seconds):9.1f}"
            )
        return "\n".join(lines)
