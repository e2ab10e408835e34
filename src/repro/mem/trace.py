"""Access-trace containers.

Applications emit their memory behaviour as an ordered list of *phases*.
A phase is one vectorised step of a kernel — e.g. "gather ``rank[dst]`` for
every edge" — and carries the byte addresses it touches, whether it reads or
writes, and whether the addresses form a sequential stream or a random
gather/scatter.  The sequential/random distinction matters because Intel
Optane NVM amplifies random cache-line traffic (see
:class:`repro.mem.tier.MemoryTier.random_access_amplification`).

Addresses are *virtual* byte addresses of the first byte of each accessed
element.  The cache, TLB, and cost models derive line/page numbers from them.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError


class AccessKind(enum.Enum):
    """Spatial pattern of a trace phase."""

    SEQUENTIAL = "seq"
    RANDOM = "rand"


@dataclass(frozen=True)
class TracePhase:
    """One vectorised access phase of an application kernel (immutable).

    Attributes
    ----------
    addrs:
        ``int64`` array of virtual byte addresses (element starts).
    is_write:
        Whether the phase writes (stores) or reads (loads).
    kind:
        Whether the address stream is sequential or random — drives the
        cost model's device-level random-access amplification.
    prefetchable:
        Whether hardware stream prefetchers cover this phase's misses (so
        they rarely retire as sampleable LLC-miss load events).  Defaults
        to ``kind is SEQUENTIAL``; frontier-driven adjacency reads override
        it to True: their segment runs are prefetch-friendly even though
        short segments still pay device-level random-access amplification.
    label:
        Optional human-readable tag, e.g. ``"rank-gather"``; used in
        diagnostics only.
    """

    addrs: np.ndarray
    is_write: bool = False
    kind: AccessKind = AccessKind.RANDOM
    prefetchable: bool | None = None
    label: str = ""

    def __post_init__(self) -> None:
        addrs = np.ascontiguousarray(self.addrs, dtype=np.int64)
        if addrs.ndim != 1:
            raise TraceError(f"phase {self.label!r}: addrs must be 1-D")
        if addrs.size and int(addrs.min()) < 0:
            raise TraceError(f"phase {self.label!r}: negative address in trace")
        object.__setattr__(self, "addrs", addrs)
        if self.prefetchable is None:
            object.__setattr__(
                self, "prefetchable", self.kind is AccessKind.SEQUENTIAL
            )

    def __len__(self) -> int:
        return int(self.addrs.size)


@dataclass
class AccessTrace:
    """An ordered sequence of :class:`TracePhase` for one application run.

    A trace is built phase by phase (:meth:`add`, :meth:`extend`) and then
    **sealed** (:meth:`seal`, on the first :meth:`all_addresses`): its
    program-order addresses move into one owned ``int64`` buffer, each
    phase becomes a read-only view of it, and ``phases`` becomes a tuple.
    A sealed trace is immutable — the LLC models, the cache's checksums
    and the trace store all read that one buffer, and no second copy of
    the addresses ever exists.
    """

    phases: list[TracePhase] | tuple[TracePhase, ...] = field(default_factory=list)
    _buffer: np.ndarray | None = field(default=None, repr=False, compare=False)

    def _check_open(self) -> None:
        if self._buffer is not None:
            raise TraceError("a sealed trace is immutable")

    def add(
        self,
        addrs: np.ndarray,
        *,
        is_write: bool = False,
        kind: AccessKind = AccessKind.RANDOM,
        prefetchable: bool | None = None,
        label: str = "",
    ) -> None:
        """Append a phase; empty address arrays are dropped."""
        self._check_open()
        if len(addrs) == 0:
            return
        self.phases.append(
            TracePhase(
                addrs,
                is_write=is_write,
                kind=kind,
                prefetchable=prefetchable,
                label=label,
            )
        )

    def extend(self, other: "AccessTrace") -> None:
        """Append all phases of another trace, preserving order.

        The phases are shared, not copied: sealing this trace later
        replaces its own phase objects and leaves ``other``'s alone.
        """
        self._check_open()
        self.phases.extend(other.phases)

    @property
    def total_accesses(self) -> int:
        """Total number of element accesses across all phases."""
        return sum(len(p) for p in self.phases)

    def seal(self) -> np.ndarray:
        """Move every phase into one owned buffer; returns the buffer.

        Each phase is copied into place and then *replaced* by a new
        phase over a read-only view (a phase shared with another trace
        through :meth:`extend` keeps its own array), and the original is
        dropped right after its copy — the transient is the buffer plus
        one phase, never two full copies.  Idempotent.
        """
        if self._buffer is not None:
            return self._buffer
        buffer = np.empty(self.total_accesses, dtype=np.int64)
        phases = list(self.phases)
        self.phases = ()
        start = 0
        for i in range(len(phases)):
            stop = start + len(phases[i])
            buffer[start:stop] = phases[i].addrs
            view = buffer[start:stop]
            view.flags.writeable = False
            # A shallow copy skips __post_init__: the addresses were
            # validated when the phase was built.
            sealed = copy.copy(phases[i])
            object.__setattr__(sealed, "addrs", view)
            phases[i] = sealed
            start = stop
        buffer.flags.writeable = False
        self._buffer = buffer
        self.phases = tuple(phases)
        return buffer

    def all_addresses(self) -> np.ndarray:
        """Every phase's addresses in program order (seals the trace)."""
        return self.seal()

    # ------------------------------------------------------------------
    # columnar (de)serialisation, used by repro.sim.tracestore
    # ------------------------------------------------------------------
    def phase_records(self) -> list[dict]:
        """Phase metadata as JSON-friendly records (addresses excluded)."""
        return [
            {
                "n": len(phase),
                "is_write": bool(phase.is_write),
                "kind": phase.kind.value,
                "prefetchable": bool(phase.prefetchable),
                "label": phase.label,
            }
            for phase in self.phases
        ]

    @classmethod
    def from_columnar(
        cls, flat: np.ndarray, records: list[dict]
    ) -> "AccessTrace":
        """Rebuild a trace from a flat address array plus phase records.

        The trace comes back sealed over ``flat`` itself: phases are
        zero-copy read-only views, so when ``flat`` is a memory-mapped
        store array the whole trace stays page-cache resident and shared
        across processes.
        """
        buffer = np.ascontiguousarray(flat, dtype=np.int64).view()
        buffer.flags.writeable = False
        phases = []
        start = 0
        for record in records:
            n = int(record["n"])
            phases.append(
                TracePhase(
                    buffer[start : start + n],
                    is_write=bool(record["is_write"]),
                    kind=AccessKind(record["kind"]),
                    prefetchable=bool(record["prefetchable"]),
                    label=str(record.get("label", "")),
                )
            )
            start += n
        if start != buffer.size:
            raise TraceError(
                f"phase records cover {start} accesses but the flat array "
                f"has {buffer.size}"
            )
        return cls(phases=tuple(phases), _buffer=buffer)

    def __iter__(self):
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)
