"""Simulated heterogeneous memory system (HMS) substrate.

This package models everything ATMem touches on real hardware:

- :mod:`repro.mem.tier` — memory device specifications (latency, bandwidth,
  capacity, random-access amplification).
- :mod:`repro.mem.allocator` — per-tier physical frame allocators with
  capacity accounting.
- :mod:`repro.mem.address_space` — a virtual address space with a page table
  that records, for every base page, the backing tier, frame, and mapping
  granularity (4 KB base pages vs 2 MB transparent huge pages).
- :mod:`repro.mem.cache` — the working-set LLC model that turns an address
  stream into a per-access hit/miss mask (the source of PEBS-like samples).
- :mod:`repro.mem.stack_distance` — exact LRU stack distances, the ground
  truth the LLC model is validated against.
- :mod:`repro.mem.tlb` — a page-size-aware TLB simulator used to reproduce
  the paper's Table 4 (TLB misses after migration).
- :mod:`repro.mem.costmodel` — the execution-time model charging LLC misses
  with tier latency/bandwidth.
- :mod:`repro.mem.trace` — access-trace containers emitted by applications.
- :mod:`repro.mem.system` — :class:`HeterogeneousMemorySystem`, the facade
  combining allocators and the address space.
"""

from repro.mem.address_space import AddressSpace, PAGE_SHIFT, PAGE_SIZE
from repro.mem.allocator import FrameAllocator
from repro.mem.costmodel import CostModel, PhaseCost
from repro.mem.system import HeterogeneousMemorySystem
from repro.mem.tier import MemoryTier
from repro.mem.tlb import TLB
from repro.mem.trace import AccessKind, AccessTrace, TracePhase

__all__ = [
    "AccessKind",
    "AccessTrace",
    "AddressSpace",
    "CostModel",
    "FrameAllocator",
    "HeterogeneousMemorySystem",
    "MemoryTier",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PhaseCost",
    "TLB",
    "TracePhase",
]
