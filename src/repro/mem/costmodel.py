"""Execution-time model.

The model charges one application run as

    T = T_compute + sum over (tier, kind, direction) of T_mem

where, for the LLC misses hitting a given tier with a given access kind
(sequential/random) and direction (read/write):

    T_mem = max(latency bound, bandwidth bound)
    latency bound  = n_miss * latency_ns / MLP
    bandwidth bound = n_miss * line_bytes * amplification / aggregate_bw

- **MLP** (memory-level parallelism) captures out-of-order cores and many
  threads keeping multiple misses in flight; a latency-bound workload's
  effective per-miss cost is latency / MLP.
- **amplification** applies only to RANDOM misses: the Intel Optane DIMM's
  256 B internal access granularity makes a random 64 B line fill consume 4x
  device bandwidth.  This term is what widens the spec-sheet 2.7x bandwidth
  gap into the up-to-10x application slowdown of the paper's Figure 1a.
- LLC hits and ALU work are folded into ``T_compute`` as a fixed per-access
  cost (``compute_ns_per_access``), which models the instruction overhead of
  one traversal step in the SIMD kernels.

The model deliberately has few parameters, all carried on
:class:`repro.mem.tier.MemoryTier` and :class:`CostModel`, so experiment
shapes can be traced back to device specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.cache import LINE_SIZE
from repro.mem.tier import MemoryTier
from repro.mem.trace import AccessKind, TracePhase


@dataclass
class PhaseCost:
    """Cost breakdown of one trace phase."""

    seconds: float
    n_accesses: int
    n_misses: int
    miss_by_tier: dict[int, int] = field(default_factory=dict)


@dataclass
class ProfilePricing:
    """Vectorised pricing of one whole run from a compiled profile.

    ``phase_seconds[p]`` is exactly what :meth:`CostModel.phase_cost`
    would have returned for phase ``p`` (same float operations in the
    same order — see :meth:`CostModel.price_profile`);
    ``miss_matrix[p, t]`` is the phase's miss count on tier ``t``
    (float64 holding exact integers).
    """

    phase_seconds: np.ndarray  # float64 [n_phases]
    miss_matrix: np.ndarray  # float64 [n_phases, n_tiers]

    @property
    def seconds(self) -> float:
        return float(self.phase_seconds.sum())


class CostModel:
    """Charges execution time for traces given tier placement of misses."""

    def __init__(
        self,
        tiers: list[MemoryTier],
        *,
        mlp: float = 10.0,
        compute_ns_per_access: float = 0.35,
        tlb_miss_ns: float = 25.0,
        concurrent_tiers: bool = False,
    ) -> None:
        if not tiers:
            raise ConfigurationError("cost model needs at least one tier")
        if mlp <= 0:
            raise ConfigurationError(f"MLP must be positive, got {mlp}")
        if compute_ns_per_access < 0 or tlb_miss_ns < 0:
            raise ConfigurationError("per-access costs must be non-negative")
        self.tiers = tiers
        self.mlp = mlp
        self.compute_ns_per_access = compute_ns_per_access
        self.tlb_miss_ns = tlb_miss_ns
        #: When the tiers have independent memory channels (KNL's MCDRAM
        #: next to DDR4 — paper Section 9), misses to different tiers are
        #: serviced concurrently: a phase's memory time is the maximum over
        #: tiers instead of the sum.  Optane shares channels with DRAM, so
        #: the NVM testbed keeps the serial (sum) model.
        self.concurrent_tiers = concurrent_tiers

    # ------------------------------------------------------------------
    def phase_cost(
        self,
        phase: TracePhase,
        miss_mask: np.ndarray,
        miss_tiers: np.ndarray,
        *,
        n_tlb_misses: int = 0,
    ) -> PhaseCost:
        """Time for one phase given its miss mask and per-miss tier ids.

        ``miss_tiers`` has one entry per miss (i.e. per True in
        ``miss_mask``), holding the tier id backing that miss address.
        """
        n_accesses = len(phase)
        n_misses = int(np.count_nonzero(miss_mask))
        seconds = n_accesses * self.compute_ns_per_access * 1e-9
        seconds += n_tlb_misses * self.tlb_miss_ns * 1e-9
        miss_by_tier: dict[int, int] = {}
        if n_misses:
            tier_ids, counts = np.unique(miss_tiers, return_counts=True)
            tier_seconds = []
            for tier_id, count in zip(tier_ids.tolist(), counts.tolist()):
                miss_by_tier[int(tier_id)] = int(count)
                tier_seconds.append(
                    self._tier_seconds(
                        self.tiers[int(tier_id)], int(count), phase.kind, phase.is_write
                    )
                )
            seconds += max(tier_seconds) if self.concurrent_tiers else sum(tier_seconds)
        return PhaseCost(
            seconds=seconds,
            n_accesses=n_accesses,
            n_misses=n_misses,
            miss_by_tier=miss_by_tier,
        )

    # ------------------------------------------------------------------
    def price_profile(
        self, profile, page_tiers: np.ndarray
    ) -> ProfilePricing:
        """Price an entire run from a compiled profile in O(pages).

        ``page_tiers`` holds the tier id backing each of
        ``profile.pages`` (one entry per CSR slot, from
        :meth:`repro.mem.address_space.AddressSpace.tiers_of_pages`).

        The contraction reproduces :meth:`phase_cost` **bit-exactly**:
        every float operation happens in the same order on the same
        values — per-(phase, tier) miss counts are exact int64 sums,
        the latency/bandwidth bounds use the identical expression
        shapes, and absent tiers contribute an exact ``+ 0.0``.  The
        parity tests in ``tests/test_sim_profilepack.py`` and the
        ``REPRO_VERIFY`` oracle in the executor hold this
        equivalence to replay pricing.
        """
        n_tiers = len(self.tiers)
        n_phases = profile.n_phases
        tier_ids = np.asarray(page_tiers, dtype=np.int64)
        # Replay resolves an unmapped (-1) page through tiers[-1]; wrap
        # negative ids the same way so both paths agree even then.
        tier_ids = np.where(tier_ids < 0, tier_ids + n_tiers, tier_ids)
        phase_idx = np.repeat(
            np.arange(n_phases, dtype=np.int64), np.diff(profile.row_ptr)
        )
        miss_matrix = np.bincount(
            phase_idx * n_tiers + tier_ids,
            weights=profile.counts.astype(np.float64),
            minlength=n_phases * n_tiers,
        ).reshape(n_phases, n_tiers)
        # Device tables: [n_tiers, 2] indexed by is_write.
        lat = np.array(
            [[t.latency_ns(False), t.latency_ns(True)] for t in self.tiers]
        )
        bw = np.array(
            [[t.bandwidth_gbps(False), t.bandwidth_gbps(True)] for t in self.tiers]
        )
        amp = np.array([t.random_access_amplification for t in self.tiers])
        w = profile.phase_is_write.astype(np.intp)
        lat_sel = lat.T[w]  # [n_phases, n_tiers]
        bw_sel = bw.T[w]
        amp_sel = np.where(profile.phase_is_random[:, None], amp[None, :], 1.0)
        latency_bound = miss_matrix * lat_sel / self.mlp * 1e-9
        bandwidth_bound = (miss_matrix * LINE_SIZE * amp_sel) / (bw_sel * 1e9)
        tier_seconds = np.maximum(latency_bound, bandwidth_bound)
        if self.concurrent_tiers:
            mem_seconds = (
                tier_seconds.max(axis=1)
                if n_tiers
                else np.zeros(n_phases)
            )
        else:
            mem_seconds = tier_seconds.sum(axis=1)
        phase_seconds = (
            profile.phase_n * self.compute_ns_per_access * 1e-9 + mem_seconds
        )
        return ProfilePricing(
            phase_seconds=phase_seconds, miss_matrix=miss_matrix
        )

    def price_profile_reference(
        self, profile, page_tiers: np.ndarray
    ) -> ProfilePricing:
        """Scalar oracle for :meth:`price_profile` (parity tests only).

        Walks the CSR rows with the same per-tier scalar arithmetic as
        replay pricing (:meth:`_tier_seconds`); slow but obviously
        equivalent to :meth:`phase_cost` given per-(phase, tier) counts.
        """
        n_tiers = len(self.tiers)
        n_phases = profile.n_phases
        tier_ids = np.asarray(page_tiers, dtype=np.int64)
        miss_matrix = np.zeros((n_phases, n_tiers), dtype=np.float64)
        phase_seconds = np.zeros(n_phases, dtype=np.float64)
        for p in range(n_phases):
            lo, hi = int(profile.row_ptr[p]), int(profile.row_ptr[p + 1])
            kind = (
                AccessKind.RANDOM
                if profile.phase_is_random[p]
                else AccessKind.SEQUENTIAL
            )
            is_write = bool(profile.phase_is_write[p])
            for slot in range(lo, hi):
                miss_matrix[p, int(tier_ids[slot])] += int(profile.counts[slot])
            seconds = int(profile.phase_n[p]) * self.compute_ns_per_access * 1e-9
            tier_times = [
                self._tier_seconds(
                    self.tiers[t], int(miss_matrix[p, t]), kind, is_write
                )
                for t in range(n_tiers)
                if miss_matrix[p, t] > 0
            ]
            if tier_times:
                seconds += (
                    max(tier_times) if self.concurrent_tiers else sum(tier_times)
                )
            phase_seconds[p] = seconds
        return ProfilePricing(
            phase_seconds=phase_seconds, miss_matrix=miss_matrix
        )

    def _tier_seconds(
        self, tier: MemoryTier, n_miss: int, kind: AccessKind, is_write: bool
    ) -> float:
        latency_bound = n_miss * tier.latency_ns(is_write) / self.mlp * 1e-9
        amplification = (
            tier.random_access_amplification if kind is AccessKind.RANDOM else 1.0
        )
        bytes_moved = n_miss * LINE_SIZE * amplification
        bandwidth_bound = bytes_moved / (tier.bandwidth_gbps(is_write) * 1e9)
        return max(latency_bound, bandwidth_bound)

    # ------------------------------------------------------------------
    def copy_seconds(
        self,
        nbytes: int,
        src: MemoryTier,
        dst: MemoryTier,
        *,
        threads: int,
        sequential: bool = True,
    ) -> float:
        """Time to copy ``nbytes`` from ``src`` to ``dst`` with ``threads``.

        The copy is limited by the slower of the source read path and the
        destination write path.  With one thread, the per-device
        single-thread bandwidth applies; with many threads the aggregate
        bandwidth applies (linear ramp in between, capped at aggregate).
        Copies within one device contend for its channels, halving the
        effective bandwidth.
        """
        if nbytes < 0:
            raise ConfigurationError(f"copy size must be non-negative, got {nbytes}")
        if threads <= 0:
            raise ConfigurationError(f"thread count must be positive, got {threads}")
        read_bw = self._effective_bw(src, threads, is_write=False)
        write_bw = self._effective_bw(dst, threads, is_write=True)
        if not sequential:
            read_bw /= src.random_access_amplification
        bw = min(read_bw, write_bw)
        if src.name == dst.name:
            bw /= 2.0
        return nbytes / (bw * 1e9)

    @staticmethod
    def _effective_bw(tier: MemoryTier, threads: int, *, is_write: bool) -> float:
        aggregate = tier.bandwidth_gbps(is_write)
        ramp = tier.single_thread_bandwidth_gbps * threads
        return min(aggregate, ramp)
