"""Application base class and registry protocol.

A *registry* is anything that can place a host array at a virtual address
and hand back a :class:`repro.core.dataobject.DataObject`.  The ATMem
runtime is the real registry (it also maps the range in the simulated memory
system); :class:`HostRegistry` is a minimal stand-in for correctness tests
that don't involve placement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol

import numpy as np

from repro.core.dataobject import DataObject
from repro.errors import RuntimeStateError
from repro.graph.csr import CSRGraph
from repro.mem.trace import AccessKind, AccessTrace


class ArrayRegistry(Protocol):
    """Anything that can register host arrays at virtual addresses."""

    def register_array(self, name: str, array: np.ndarray) -> DataObject: ...


class HostRegistry:
    """Registry without a memory system: assigns fake, non-overlapping VAs."""

    PAGE = 4096

    def __init__(self) -> None:
        self._bump = 0x10000000
        self.objects: dict[str, DataObject] = {}

    def register_array(self, name: str, array: np.ndarray) -> DataObject:
        if name in self.objects:
            raise RuntimeStateError(f"data object {name!r} already registered")
        va = self._bump
        n_pages = -(-array.nbytes // self.PAGE)
        self._bump += max(1, n_pages) * self.PAGE
        obj = DataObject(name=name, array=array, base_va=va)
        self.objects[name] = obj
        return obj


def expand_frontier(offsets: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Adjacency-array positions of all out-edges of the frontier vertices.

    Returns the concatenated index ranges
    ``[offsets[v], offsets[v+1]) for v in frontier`` as one int64 array —
    the standard vectorised CSR frontier expansion.
    """
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # For each output slot, the start of its segment minus the number of
    # slots already emitted before the segment, plus the running position.
    shift = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return shift + np.arange(total, dtype=np.int64)


class GraphApp(ABC):
    """A graph benchmark that computes for real and emits an access trace."""

    #: Short name used in figures (subclasses override).
    name: str = "app"

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.objects: dict[str, DataObject] = {}
        self._registered = False

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, registry: ArrayRegistry) -> None:
        """Register the CSR arrays plus the app's own property arrays."""
        if self._registered:
            raise RuntimeStateError(f"{self.name}: already registered")
        self.objects["offsets"] = registry.register_array("offsets", self.graph.offsets)
        self.objects["adjacency"] = registry.register_array(
            "adjacency", self.graph.adjacency
        )
        if self.graph.weights is not None:
            self.objects["weights"] = registry.register_array(
                "weights", self.graph.weights
            )
        for name, array in self.property_arrays().items():
            self.objects[name] = registry.register_array(name, array)
        self._registered = True

    @abstractmethod
    def property_arrays(self) -> dict[str, np.ndarray]:
        """The app's own data objects (distance, rank, ... arrays)."""

    def do(self, name: str) -> DataObject:
        """Look up a registered data object by name."""
        if not self._registered:
            raise RuntimeStateError(f"{self.name}: register() must run first")
        return self.objects[name]

    @property
    def total_bytes(self) -> int:
        """Total registered data size (denominator of the paper's data ratio)."""
        return sum(obj.nbytes for obj in self.objects.values())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @abstractmethod
    def run_once(self) -> AccessTrace:
        """One benchmark iteration: recompute results and emit the trace.

        Must be idempotent — the experiment flow runs it once for profiling
        and again for measurement, and both runs must do identical work.

        Emit through phase-granular ``trace.add`` calls (the ``_gather``
        / ``_scatter`` / ``_scan`` helpers do) rather than one giant
        concatenated array: the cost model prices each phase by its own
        access kind, and sealing
        (:meth:`repro.mem.trace.AccessTrace.seal`) copies one phase at a
        time into the trace's buffer, dropping each phase array as it
        goes — so the transient is the buffer plus one phase.
        """

    @abstractmethod
    def result(self) -> np.ndarray:
        """The values computed by the last ``run_once`` (for verification)."""

    # ------------------------------------------------------------------
    # shared trace-emission helpers
    # ------------------------------------------------------------------
    def _gather(self, trace: AccessTrace, obj_name: str, idx: np.ndarray, label: str) -> None:
        trace.add(self.do(obj_name).addrs_of(idx), kind=AccessKind.RANDOM, label=label)

    def _scatter(self, trace: AccessTrace, obj_name: str, idx: np.ndarray, label: str) -> None:
        trace.add(
            self.do(obj_name).addrs_of(idx),
            is_write=True,
            kind=AccessKind.RANDOM,
            label=label,
        )

    def _scan(
        self, trace: AccessTrace, obj_name: str, label: str, *, is_write: bool = False
    ) -> None:
        trace.add(
            self.do(obj_name).all_addrs(),
            is_write=is_write,
            kind=AccessKind.SEQUENTIAL,
            label=label,
        )
