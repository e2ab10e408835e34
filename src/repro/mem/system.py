"""Heterogeneous memory system facade.

:class:`HeterogeneousMemorySystem` bundles the tier specs, per-tier frame
allocators, the shared virtual address space, the LLC, the TLB, and the cost
model behind one object that the ATMem runtime and the simulation executor
share.

The conventional layout, matching the paper's two testbeds, is two tiers:

- ``fast`` — small capacity, high performance (DRAM next to Optane NVM, or
  MCDRAM next to DRAM);
- ``slow`` — large capacity, lower performance; the *baseline* tier where
  everything is initially placed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ConsistencyError
from repro.mem.address_space import AddressSpace
from repro.mem.allocator import FrameAllocator
from repro.mem.cache import LINE_SIZE, WorkingSetCache
from repro.mem.costmodel import CostModel
from repro.mem.tier import MemoryTier
from repro.mem.tlb import TLB


class HeterogeneousMemorySystem:
    """Two-tier (or N-tier) simulated memory system."""

    def __init__(
        self,
        tiers: list[MemoryTier],
        *,
        fast_tier: int,
        slow_tier: int,
        llc_bytes: int,
        tlb_entries: int,
        threads: int,
        mlp: float = 10.0,
        compute_ns_per_access: float = 0.35,
        arena_pages: int = 1 << 20,
        line_size: int = LINE_SIZE,
        tlb_background_miss_rate: float = 0.0,
        concurrent_tiers: bool = False,
    ) -> None:
        n = len(tiers)
        if n < 2:
            raise ConfigurationError("an HMS needs at least two tiers")
        if not (0 <= fast_tier < n and 0 <= slow_tier < n) or fast_tier == slow_tier:
            raise ConfigurationError(
                f"fast/slow tier ids must be distinct indices into {n} tiers"
            )
        if threads <= 0:
            raise ConfigurationError(f"thread count must be positive, got {threads}")
        self.tiers = tiers
        self.fast_tier = fast_tier
        self.slow_tier = slow_tier
        self.threads = threads
        self.allocators = [FrameAllocator(t, page_size=4096) for t in tiers]
        self.address_space = AddressSpace(self.allocators, arena_pages=arena_pages)
        if not 0.0 <= tlb_background_miss_rate <= 1.0:
            raise ConfigurationError(
                "tlb_background_miss_rate must be in [0, 1], got "
                f"{tlb_background_miss_rate}"
            )
        self.tlb_background_miss_rate = tlb_background_miss_rate
        self.llc = WorkingSetCache(llc_bytes, line_size=line_size)
        self.tlb = TLB(tlb_entries)
        self.cost_model = CostModel(
            tiers,
            mlp=mlp,
            compute_ns_per_access=compute_ns_per_access,
            concurrent_tiers=concurrent_tiers,
        )

    # ------------------------------------------------------------------
    @property
    def fast(self) -> MemoryTier:
        """The high-performance tier's spec."""
        return self.tiers[self.fast_tier]

    @property
    def slow(self) -> MemoryTier:
        """The large-capacity tier's spec."""
        return self.tiers[self.slow_tier]

    def fast_free_bytes(self) -> int | None:
        """Remaining capacity on the fast tier (``None`` if unbounded)."""
        return self.allocators[self.fast_tier].free_bytes

    def reset_caches(self) -> None:
        """Cold-start the TLB between independent runs (the LLC model
        keeps no state between runs)."""
        self.tlb.reset()

    # ------------------------------------------------------------------
    # consistency audit (chaos tests' post-run invariant)
    # ------------------------------------------------------------------
    def check_consistency(self) -> list[str]:
        """Audit every tier's allocator against the page table.

        Returns a list of human-readable violations — leaked frames,
        double frees, double mappings, or byte accounting that disagrees
        between an allocator and the address space.  Empty means the
        system is consistent; chaos tests call this after every recovered
        fault.
        """
        problems: list[str] = []
        for tier_id, allocator in enumerate(self.allocators):
            mapped = self.address_space.mapped_frames_on(tier_id)
            problems.extend(allocator.audit(mapped))
        return problems

    def assert_consistent(self) -> None:
        """Raise :class:`repro.errors.ConsistencyError` on any violation."""
        problems = self.check_consistency()
        if problems:
            raise ConsistencyError(
                "memory system inconsistent: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    def miss_tiers(self, miss_addrs: np.ndarray) -> np.ndarray:
        """Tier id backing each miss address."""
        return self.address_space.tiers_of(miss_addrs)

    def describe(self) -> str:
        """One-line summary for reports."""
        parts = []
        for i, tier in enumerate(self.tiers):
            role = "fast" if i == self.fast_tier else (
                "slow" if i == self.slow_tier else "other"
            )
            cap = (
                f"{tier.capacity_bytes / 2**20:.1f} MiB"
                if tier.capacity_bytes is not None
                else "unbounded"
            )
            parts.append(f"{tier.name}({role}, {cap})")
        return " + ".join(parts)
