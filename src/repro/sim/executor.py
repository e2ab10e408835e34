"""Trace executor: the simulated machine's datapath.

For each application run (one access trace):

1. the LLC model classifies every access of the run as hit or miss
   (the working-set LRU approximation evaluates the whole run at once);
2. the (trace, hit mask) pair is folded into a compiled profile
   (:mod:`repro.sim.profilepack`): per-(phase, page) miss counts;
3. the cost model prices each phase from that profile and the current
   page->tier map (:meth:`repro.mem.costmodel.CostModel.price_profile`);
4. while an ATMem profiling window is open, each phase's miss addresses
   (``addrs[~hits]``, thinned by the prefetcher) are delivered to the
   runtime in program order (PEBS samples on LLC-miss events);
5. optionally, the TLB simulator counts translation misses per phase
   (used for the Table 4 comparison).

Runs are independent (the LLC model is per-run); the TLB keeps its state
across runs on the same executor, which is what the post-migration TLB-miss
comparison needs.

**One pricing path.**  Every run is priced from its compiled profile —
O(pages) instead of O(accesses).  Callers that cache the mask and the
profile (:mod:`repro.sim.tracecache`) pass them in; uncached callers
pass the trace alone and the executor builds both.  Placement is static
for the whole of every run: the miss observer only feeds the sampling
profiler, and migration happens between runs.  So the histogram loses
nothing pricing needs, and the observer and the TLB read only the mask
and the addresses.  Access-stream replay survives only as the parity
oracle: ``REPRO_VERIFY=1`` replays each run and requires the two costs
to be equal field for field.

The hit mask of step 1 is itself usually *derived* rather than simulated:
the trace cache compiles a capacity-independent reuse profile — the
fourth artifact of the lattice, :mod:`repro.sim.reusepack` — and answers
every working-set LLC geometry from it with one O(log N) window solve.
The same switch arms the matching mask parity oracle on that path (see
:mod:`repro.sim.tracecache`).
"""

from __future__ import annotations

import time
from typing import Protocol

import numpy as np

from repro.errors import TraceError
from repro.mem.cache import verify_armed
from repro.mem.system import HeterogeneousMemorySystem
from repro.mem.trace import AccessTrace
from repro.obs.metrics import process_metrics
from repro.obs.tracer import span
from repro.sim.metrics import RunCost
from repro.sim.profilepack import TraceProfile, build_profile


class MissObserver(Protocol):
    """Anything that wants the LLC-miss address stream (the ATMem runtime)."""

    def observe_misses(self, miss_addrs: np.ndarray) -> None: ...


class TraceExecutor:
    """Charges access traces against one simulated memory system.

    ``prefetch_coverage`` models the hardware stream prefetchers: misses of
    SEQUENTIAL phases are demand-covered by the prefetcher with this
    probability and then do not retire as PEBS LLC-miss load events, so the
    profiler never sees them.  This is why ATMem's sampling naturally
    prefers random-access data (vertex property arrays) over streaming data
    (adjacency scans) — exactly the data whose placement on the fast tier
    pays off, since streams are bandwidth-friendly on NVM while random
    gathers are not.  The execution *cost* of sequential misses is still
    charged in full (prefetching moves them off the critical path but not
    off the memory bus).  Neither prefetch mode affects pricing, which is
    why compiled profiles are prefetch-independent.
    """

    def __init__(
        self,
        system: HeterogeneousMemorySystem,
        *,
        count_tlb: bool = False,
        prefetch_coverage: float = 63 / 64,
        prefetch_mode: str = "hint",
        telemetry=None,
    ) -> None:
        if not 0.0 <= prefetch_coverage < 1.0:
            raise ValueError(
                f"prefetch_coverage must be in [0, 1), got {prefetch_coverage}"
            )
        if prefetch_mode not in ("hint", "model"):
            raise ValueError(
                f"prefetch_mode must be 'hint' or 'model', got {prefetch_mode!r}"
            )
        self.system = system
        self.count_tlb = count_tlb
        self.prefetch_coverage = prefetch_coverage
        #: "hint": phases flagged prefetchable are covered at the fixed
        #: ``prefetch_coverage`` rate.  "model": an explicit stream
        #: prefetcher detects covered misses from the addresses themselves
        #: (see :mod:`repro.mem.prefetcher`), ignoring the hints.
        self.prefetch_mode = prefetch_mode
        if prefetch_mode == "model":
            from repro.mem.prefetcher import StreamPrefetcher

            self._prefetcher = StreamPrefetcher()
        else:
            self._prefetcher = None
        #: Optional :class:`repro.mem.telemetry.TelemetryCollector` that
        #: accumulates per-tier traffic while runs are priced.
        self.telemetry = telemetry
        # Residual sampling of covered streams: deterministic stride.
        self._prefetch_stride = max(1, int(round(1.0 / (1.0 - prefetch_coverage))))

    def run(
        self,
        trace: AccessTrace,
        *,
        miss_observer: MissObserver | None = None,
        hits: np.ndarray | None = None,
        profile: TraceProfile | None = None,
    ) -> RunCost:
        """Simulate one application run described by ``trace``.

        ``hits`` optionally supplies the precomputed LLC hit mask of the
        trace (one bool per access, program order) and ``profile`` the
        compiled miss profile of the same (trace, LLC) pair — both are
        pure functions of the address stream and the LLC geometry, so
        callers that run the same trace repeatedly (see
        :mod:`repro.sim.tracecache`) build them once.  Whichever is
        missing is built here.  A profile that does not describe
        ``trace`` raises :class:`TraceError`.
        """
        cost = RunCost()
        if not len(trace):
            return cost
        if profile is not None and not profile.matches(trace):
            raise TraceError(
                f"compiled profile ({profile.n_phases} phases, "
                f"{profile.total_accesses} accesses) does not describe the "
                f"trace ({len(trace.phases)} phases, "
                f"{trace.total_accesses} accesses)"
            )
        registry = process_metrics()
        started = time.perf_counter()
        with span("executor.run", cat="executor", phases=len(trace.phases)) as live:
            if hits is None:
                hits = self.system.llc.hit_mask(trace.all_addresses())
            if profile is None:
                profile = build_profile(trace, hits)
            if miss_observer is not None:
                self._feed_observer(trace, hits, miss_observer)
            tlb_misses = (
                self._tlb_misses(trace) if self.count_tlb else [0] * profile.n_phases
            )
            cost = self._run_profiled(profile, tlb_misses)
            if verify_armed():
                self._verify_parity(cost, trace, hits)
            live.set(
                sim_seconds=cost.seconds,
                misses=cost.n_misses,
                accesses=cost.n_accesses,
            )
        registry.observe("stage.pricing", time.perf_counter() - started)
        registry.inc("executor.runs")
        registry.inc("executor.accesses", cost.n_accesses)
        registry.inc("executor.misses", cost.n_misses)
        registry.inc("executor.sim_seconds", cost.seconds)
        return cost

    def _feed_observer(
        self, trace: AccessTrace, hits: np.ndarray, miss_observer: MissObserver
    ) -> None:
        """Deliver each phase's sampleable LLC misses, in program order."""
        offset = 0
        for phase in trace:
            n = len(phase)
            miss_addrs = phase.addrs[~hits[offset : offset + n]]
            offset += n
            if self._prefetcher is not None:
                # Measured mode: the streamer decides per miss.
                miss_observer.observe_misses(
                    self._prefetcher.residual_misses(miss_addrs)
                )
            elif phase.prefetchable:
                # Hint mode: only the residual of flagged phases
                # retires as a sampleable LLC-miss load event.
                miss_observer.observe_misses(miss_addrs[:: self._prefetch_stride])
            else:
                miss_observer.observe_misses(miss_addrs)

    def _tlb_misses(self, trace: AccessTrace) -> list[int]:
        """Translation misses per phase (advances the TLB's state)."""
        system = self.system
        counts = []
        for phase in trace:
            shifts = system.address_space.map_shifts_of(phase.addrs)
            misses = system.tlb.count_misses(phase.addrs, shifts)
            counts.append(misses + int(system.tlb_background_miss_rate * len(phase)))
        return counts

    def _run_profiled(self, profile: TraceProfile, tlb_misses: list[int]) -> RunCost:
        """Price a run from its compiled profile (no access-stream walk).

        The per-phase fold into :class:`RunCost` happens in phase order
        with the same scalar additions as the replay loop, so the
        accumulated totals are bit-identical, not merely close.
        """
        system = self.system
        page_tiers = system.address_space.tiers_of_pages(profile.pages)
        pricing = system.cost_model.price_profile(profile, page_tiers)
        cost = RunCost()
        phase_misses = profile.phase_misses
        miss_matrix = pricing.miss_matrix
        for p in range(profile.n_phases):
            row = miss_matrix[p]
            miss_by_tier = {
                int(t): int(row[t]) for t in np.flatnonzero(row)
            }
            if self.telemetry is not None:
                self.telemetry.record_counts(
                    is_write=bool(profile.phase_is_write[p]),
                    is_random=bool(profile.phase_is_random[p]),
                    miss_by_tier=miss_by_tier,
                )
            cost.add_phase(
                seconds=float(pricing.phase_seconds[p]),
                n_accesses=int(profile.phase_n[p]),
                n_misses=int(phase_misses[p]),
                miss_by_tier=miss_by_tier,
                tlb_misses=tlb_misses[p],
                label=profile.labels[p],
            )
        return cost

    def _replay(self, trace: AccessTrace, hits: np.ndarray) -> RunCost:
        """Price a run by replaying its access stream (the parity reference)."""
        system = self.system
        cost = RunCost()
        offset = 0
        for phase in trace:
            n = len(phase)
            miss_mask = ~hits[offset : offset + n]
            offset += n
            miss_tiers = system.address_space.tiers_of(phase.addrs[miss_mask])
            phase_cost = system.cost_model.phase_cost(phase, miss_mask, miss_tiers)
            cost.add_phase(
                seconds=phase_cost.seconds,
                n_accesses=phase_cost.n_accesses,
                n_misses=phase_cost.n_misses,
                miss_by_tier=phase_cost.miss_by_tier,
                label=phase.label,
            )
        return cost

    def _verify_parity(
        self, cost: RunCost, trace: AccessTrace, hits: np.ndarray
    ) -> None:
        """The parity oracle: replay must agree exactly with profile pricing.

        TLB counts are not compared: the replay reference never touches
        the TLB, whose state carries across runs.
        """
        registry = process_metrics()
        registry.inc("pricing.parity_checks")
        replayed = self._replay(trace, hits)
        if (
            cost.seconds != replayed.seconds
            or cost.n_accesses != replayed.n_accesses
            or cost.n_misses != replayed.n_misses
            or cost.miss_by_tier != replayed.miss_by_tier
            or cost.seconds_by_label != replayed.seconds_by_label
        ):
            registry.inc("pricing.parity_failures")
            raise TraceError(
                "compiled-profile pricing diverged from replay: "
                f"profile {cost.seconds!r}s / {cost.n_misses} misses vs "
                f"replay {replayed.seconds!r}s / {replayed.n_misses} misses"
            )
