"""Trace executor: the simulated machine's datapath.

For each application run (one access trace):

1. the LLC model classifies every access of the run as hit or miss
   (the working-set LRU approximation evaluates the whole run at once);
2. miss addresses are resolved to their backing tier through the page table;
3. the cost model charges each phase;
4. while an ATMem profiling window is open, the miss-address stream is
   delivered to the runtime in program order (PEBS samples on LLC-miss
   events);
5. optionally, the TLB simulator counts translation misses (used for the
   Table 4 comparison).

Runs are independent (the LLC model is per-run); the TLB keeps its state
across runs on the same executor, which is what the post-migration TLB-miss
comparison needs.

**Compiled-profile pricing.**  When the caller supplies a
:class:`repro.sim.profilepack.TraceProfile` for the trace, the executor
prices the run from the per-(phase, page) miss histogram instead of
replaying the access stream — O(pages) instead of O(accesses), and
bit-exact with replay (see :meth:`repro.mem.costmodel.CostModel.price_profile`).
The profile path only engages when replay has nothing the histogram lost:
no miss observer (profiling windows need the in-order miss stream), no
TLB counting, and a profile that actually describes this trace.  Every
priced run increments ``pricing.profile_cells`` or
``pricing.replay_cells``, and ``REPRO_VERIFY=1`` re-replays each
profile-priced run and asserts the two costs agree (the parity oracle).

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
from repro.sim.profilepack import TraceProfile

#: Relative tolerance of the parity oracle.  Profile pricing is designed
#: to be bit-exact; the tolerance only keeps the oracle honest about its
#: contract (the ISSUE asks for float tolerance, not bit equality).
PARITY_RTOL = 1e-12


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

        ``hits`` optionally supplies a precomputed LLC hit mask for the
        trace (one bool per access, program order) — the mask is a pure
        function of the address stream and the LLC geometry, so callers
        that run the same trace repeatedly (see
        :mod:`repro.sim.tracecache`) can solve the working-set model once.

        ``profile`` optionally supplies the compiled miss profile of the
        same (trace, LLC) pair; eligible runs (static placement, no
        observer, no TLB counting) are then priced in O(pages) without
        touching the access stream.  Ineligible runs silently fall back
        to replay — the caller never has to know which path ran, because
        both produce the same :class:`RunCost`.
        """
        cost = RunCost()
        if not len(trace):
            return cost
        use_profile = (
            profile is not None
            and miss_observer is None
            and not self.count_tlb
            and profile.matches(trace)
        )
        registry = process_metrics()
        started = time.perf_counter()
        with span(
            "executor.run",
            cat="executor",
            phases=len(trace.phases),
            pricing="profile" if use_profile else "replay",
        ) as live:
            if use_profile:
                cost = self._run_profiled(profile)
                if verify_armed():
                    self._verify_parity(cost, trace, hits)
            else:
                cost = self._run_priced(trace, miss_observer, hits)
            live.set(
                sim_seconds=cost.seconds,
                misses=cost.n_misses,
                accesses=cost.n_accesses,
            )
        registry.observe("stage.pricing", time.perf_counter() - started)
        registry.inc(
            "pricing.profile_cells" if use_profile else "pricing.replay_cells"
        )
        registry.inc("executor.runs")
        registry.inc("executor.accesses", cost.n_accesses)
        registry.inc("executor.misses", cost.n_misses)
        registry.inc("executor.sim_seconds", cost.seconds)
        return cost

    def _run_priced(
        self,
        trace: AccessTrace,
        miss_observer: MissObserver | None,
        hits: np.ndarray | None,
    ) -> RunCost:
        """The replay pricing loop proper (see :meth:`run` for the contract)."""
        system = self.system
        cost = RunCost()
        if hits is None:
            hits = system.llc.hit_mask(trace.all_addresses())
        offset = 0
        for phase in trace:
            n = len(phase)
            miss_mask = ~hits[offset : offset + n]
            offset += n
            miss_addrs = phase.addrs[miss_mask]
            miss_tiers = system.address_space.tiers_of(miss_addrs)
            if miss_observer is not None:
                if self._prefetcher is not None:
                    # Measured mode: the streamer decides per miss.
                    miss_observer.observe_misses(
                        self._prefetcher.residual_misses(miss_addrs)
                    )
                elif phase.prefetchable:
                    # Hint mode: only the residual of flagged phases
                    # retires as a sampleable LLC-miss load event.
                    miss_observer.observe_misses(
                        miss_addrs[:: self._prefetch_stride]
                    )
                else:
                    miss_observer.observe_misses(miss_addrs)
            tlb_misses = 0
            if self.count_tlb:
                shifts = system.address_space.map_shifts_of(phase.addrs)
                tlb_misses = system.tlb.count_misses(phase.addrs, shifts)
                tlb_misses += int(system.tlb_background_miss_rate * n)
            phase_cost = system.cost_model.phase_cost(phase, miss_mask, miss_tiers)
            if self.telemetry is not None:
                self.telemetry.record_phase(phase, phase_cost.miss_by_tier)
            cost.add_phase(
                seconds=phase_cost.seconds,
                n_accesses=phase_cost.n_accesses,
                n_misses=phase_cost.n_misses,
                miss_by_tier=phase_cost.miss_by_tier,
                tlb_misses=tlb_misses,
                label=phase.label,
            )
        return cost

    def _run_profiled(self, profile: TraceProfile) -> RunCost:
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
                tlb_misses=0,
                label=profile.labels[p],
            )
        return cost

    def _verify_parity(
        self, cost: RunCost, trace: AccessTrace, hits: np.ndarray | None
    ) -> None:
        """The parity oracle: replay must agree with profile pricing."""
        registry = process_metrics()
        registry.inc("pricing.parity_checks")
        telemetry, self.telemetry = self.telemetry, None
        try:
            replayed = self._run_priced(trace, None, hits)
        finally:
            self.telemetry = telemetry
        close = (
            abs(cost.seconds - replayed.seconds)
            <= PARITY_RTOL * max(abs(replayed.seconds), 1e-30)
            and cost.n_accesses == replayed.n_accesses
            and cost.n_misses == replayed.n_misses
            and cost.miss_by_tier == replayed.miss_by_tier
        )
        if not close:
            registry.inc("pricing.parity_failures")
            raise TraceError(
                "compiled-profile pricing diverged from replay: "
                f"profile {cost.seconds!r}s / {cost.n_misses} misses vs "
                f"replay {replayed.seconds!r}s / {replayed.n_misses} misses"
            )
