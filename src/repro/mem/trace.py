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

A stream that only ever grows at its end — a tenant's phase chain, and
the reuse gaps folded over it — lives in one append-only
:class:`ChainRow`: :func:`append_to_row` hands out each stage as a
read-only prefix view and writes only the next delta at the row's tip.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.obs.metrics import process_metrics


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


class ChainRow:
    """An append-only ``int64`` row; its used prefix is never written again.

    ``buffer`` has room for ``buffer.size`` values, of which the first
    ``used`` have been handed out as read-only views by
    :func:`append_to_row`.  Capacity past ``used`` was never written, so
    its pages are not resident.
    """

    __slots__ = ("buffer", "used")

    def __init__(self, capacity: int) -> None:
        self.buffer = np.empty(capacity, dtype=np.int64)
        self.used = 0


def append_to_row(
    prefix: np.ndarray, row: ChainRow | None, *deltas: np.ndarray
) -> tuple[np.ndarray, ChainRow]:
    """``prefix`` followed by ``deltas``: a read-only view and its row.

    When ``prefix`` is ``row``'s used prefix — it starts at the row and
    its length is ``row.used`` — and the deltas fit the spare capacity,
    they are written at the tip in place (``chain.appends``).  Any other
    case (no row, a prefix that stops short of the tip because a longer
    view of the row was handed out, or a full row) copies ``prefix`` into
    a fresh row of twice the new length (``chain.copies``), so appends
    cost amortised O(delta).  Bytes below ``row.used`` are never written:
    every view handed out stays valid and unchanged.
    """
    n = prefix.size
    total = n + sum(delta.size for delta in deltas)
    at_tip = (
        row is not None
        and row.used == n
        and total <= row.buffer.size
        and prefix.ctypes.data == row.buffer.ctypes.data
    )
    if at_tip:
        process_metrics().inc("chain.appends")
    else:
        row = ChainRow(2 * total)
        row.buffer[:n] = prefix
        process_metrics().inc("chain.copies")
    start = n
    for delta in deltas:
        row.buffer[start : start + delta.size] = delta
        start += delta.size
    row.used = total
    view = row.buffer[:total]
    view.flags.writeable = False
    return view, row


@dataclass
class AccessTrace:
    """An ordered sequence of :class:`TracePhase` for one application run.

    A trace is built phase by phase (:meth:`add`) and then
    **sealed** (:meth:`seal`, on the first :meth:`all_addresses`): its
    program-order addresses move into one owned ``int64`` buffer, each
    phase becomes a read-only view of it, and ``phases`` becomes a tuple.
    A sealed trace is immutable — the LLC models, the cache's checksums
    and the trace store all read that one buffer, and no second copy of
    the addresses ever exists.

    A phase chain (:meth:`appended`) keeps that rule across traces: each
    stage's buffer is a read-only prefix view of one :class:`ChainRow`
    (``_row``), so stage k+1 adds only its delta and the stages share
    their common prefix instead of each holding a copy of it.
    """

    phases: list[TracePhase] | tuple[TracePhase, ...] = field(default_factory=list)
    _buffer: np.ndarray | None = field(default=None, repr=False, compare=False)
    _row: ChainRow | None = field(default=None, repr=False, compare=False)

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

    @property
    def total_accesses(self) -> int:
        """Total number of element accesses across all phases."""
        return sum(len(p) for p in self.phases)

    def seal(self) -> np.ndarray:
        """Move every phase into one owned buffer; returns the buffer.

        Each phase is copied into place and then *replaced* by a new
        phase over a read-only view, and the original is dropped right
        after its copy — the transient is the buffer plus one phase,
        never two full copies.  Idempotent.
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

    def appended(self, other: "AccessTrace") -> "AccessTrace":
        """A sealed trace of this trace's phases followed by ``other``'s.

        Built by :func:`append_to_row` from this trace's buffer: when this
        trace is the tip of its row (a chain's newest stage), only
        ``other``'s addresses are written and the two traces are prefix
        views of one row.  Seals this trace; ``other`` is only read.
        """
        addrs, row = append_to_row(
            self.all_addresses(), self._row, *(p.addrs for p in other.phases)
        )
        return AccessTrace.from_columnar(
            addrs, self.phase_records() + other.phase_records(), row=row
        )

    def shifted(self, delta: int) -> "AccessTrace":
        """A sealed copy with ``delta`` added to every address.

        One pass straight from the phases into the copy's buffer, so an
        open trace is not sealed first.  A shift that takes an address
        below zero raises :class:`TraceError`.
        """
        buffer = np.empty(self.total_accesses, dtype=np.int64)
        start = 0
        for phase in self.phases:
            stop = start + len(phase)
            np.add(phase.addrs, delta, out=buffer[start:stop])
            start = stop
        return AccessTrace.from_columnar(buffer, self.phase_records())

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
        cls, flat: np.ndarray, records: list[dict], *, row: ChainRow | None = None
    ) -> "AccessTrace":
        """Rebuild a trace from a flat address array plus phase records.

        The trace comes back sealed over ``flat`` itself: phases are
        zero-copy read-only views, so when ``flat`` is a memory-mapped
        store array the whole trace stays page-cache resident and shared
        across processes.  ``row`` is the :class:`ChainRow` ``flat`` is a
        prefix of, if any, so :meth:`appended` can grow it in place.
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
        return cls(phases=tuple(phases), _buffer=buffer, _row=row)

    def __iter__(self):
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)
