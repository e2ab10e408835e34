"""Compiled trace profiles: per-(phase, page) miss histograms.

The third cached artifact of the lattice ``trace -> LLC hit mask ->
profile``.  A profile folds one (trace, hit mask) pair into

- per-phase sparse miss counts at base-page granularity (CSR layout:
  ``pages``/``counts``/``row_ptr``), and
- the per-phase metadata the cost model consumes (access count,
  read/write direction, sequential/random kind, label).

That is *everything* replay pricing looks at: the cost model charges a
phase from its miss count per tier plus the phase's direction and kind,
and a miss's tier is a pure function of its page.  Placement changes
only the page->tier map, so re-pricing a run under a new placement is an
O(pages) contraction (:meth:`repro.mem.costmodel.CostModel.price_profile`)
instead of an O(accesses) replay.

The executor prices every run this way (DESIGN.md section 9).  That is
sound because placement is static for the whole of a run — the profile
has no program order, but migration only happens between runs — and
because the miss observer and the TLB read the hit mask and the
addresses directly rather than the histogram.

Profiles are placement-independent (they only depend on the trace and
the LLC geometry), so every placement cell of a figure shares one
profile — the same sharing contract as hit masks in
:mod:`repro.sim.tracecache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import TraceError
from repro.mem.address_space import PAGE_SHIFT
from repro.mem.trace import AccessKind, AccessTrace

#: Columnar layout version; part of the stored file name (repro.sim.artifacts).
PROFILE_FORMAT = 1


@dataclass
class TraceProfile:
    """Per-(phase, page) miss counts plus per-phase pricing metadata.

    CSR-by-phase layout: phase ``p`` owns the slice
    ``row_ptr[p]:row_ptr[p+1]`` of ``pages``/``counts``.  ``pages`` holds
    absolute virtual page numbers (``addr >> PAGE_SHIFT``), ascending
    within each phase; ``counts`` holds the number of LLC misses that
    phase took on that page (always positive).
    """

    pages: np.ndarray  # int64 [nnz], absolute VPNs grouped by phase
    counts: np.ndarray  # int64 [nnz], misses per (phase, page)
    row_ptr: np.ndarray  # int64 [n_phases + 1]
    phase_n: np.ndarray  # int64 [n_phases], accesses per phase
    phase_is_write: np.ndarray  # bool [n_phases]
    phase_is_random: np.ndarray  # bool [n_phases]
    labels: tuple[str, ...] = ()
    _phase_misses: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_phases(self) -> int:
        return int(self.phase_n.size)

    @property
    def nnz(self) -> int:
        """Distinct (phase, page) pairs with at least one miss."""
        return int(self.pages.size)

    @property
    def total_accesses(self) -> int:
        return int(self.phase_n.sum())

    @property
    def total_misses(self) -> int:
        return int(self.counts.sum())

    @property
    def phase_misses(self) -> np.ndarray:
        """Misses per phase (row sums of the CSR counts), int64."""
        if self._phase_misses is None:
            prefix = np.zeros(self.nnz + 1, dtype=np.int64)
            np.cumsum(self.counts, out=prefix[1:])
            self._phase_misses = prefix[self.row_ptr[1:]] - prefix[self.row_ptr[:-1]]
        return self._phase_misses

    def relocated(self, page_shift: int) -> "TraceProfile":
        """This profile with every page moved by ``page_shift`` pages.

        The profile of a trace shifted by ``page_shift << PAGE_SHIFT``
        bytes under the same hit mask: misses land on renamed pages, and
        nothing else changes.  O(nnz); the other columns are shared.
        """
        return replace(self, pages=self.pages + page_shift)

    def matches(self, trace: AccessTrace) -> bool:
        """Whether this profile describes ``trace`` (shape-level check).

        Cheap by design — it runs on every cache hit.  Content-level
        trust comes from the CRC at the store boundary and from the
        content key at the cache boundary (the same contract traces and
        hit masks already rely on).
        """
        phases = trace.phases
        if self.n_phases != len(phases):
            return False
        if self.phase_n.size and int(self.phase_n.sum()) != trace.total_accesses:
            return False
        return True


def build_profile(trace: AccessTrace, hits: np.ndarray) -> TraceProfile:
    """Fold one (trace, hit mask) pair into a :class:`TraceProfile`.

    One ``np.bincount`` per phase over the page indices of that phase's
    misses — a single vectorised pass over the miss stream, paid once
    per (trace, LLC geometry) and amortised over every placement priced
    from the result.
    """
    hits = np.asarray(hits)
    if hits.shape != (trace.total_accesses,):
        raise TraceError(
            f"hit mask shape {hits.shape} does not match trace with "
            f"{trace.total_accesses} accesses"
        )
    n_phases = len(trace.phases)
    row_ptr = np.zeros(n_phases + 1, dtype=np.int64)
    phase_n = np.zeros(n_phases, dtype=np.int64)
    phase_is_write = np.zeros(n_phases, dtype=np.bool_)
    phase_is_random = np.zeros(n_phases, dtype=np.bool_)
    labels: list[str] = []
    pages_parts: list[np.ndarray] = []
    counts_parts: list[np.ndarray] = []
    offset = 0
    for i, phase in enumerate(trace.phases):
        n = len(phase)
        miss_vpns = phase.addrs[~hits[offset : offset + n]] >> PAGE_SHIFT
        offset += n
        phase_n[i] = n
        phase_is_write[i] = phase.is_write
        phase_is_random[i] = phase.kind is AccessKind.RANDOM
        labels.append(phase.label)
        nnz = 0
        if miss_vpns.size:
            lo = int(miss_vpns.min())
            binned = np.bincount(miss_vpns - lo)
            present = np.flatnonzero(binned)
            nnz = present.size
            pages_parts.append((present + lo).astype(np.int64, copy=False))
            counts_parts.append(binned[present].astype(np.int64, copy=False))
        row_ptr[i + 1] = row_ptr[i] + nnz
    pages = (
        np.concatenate(pages_parts) if pages_parts else np.empty(0, np.int64)
    )
    counts = (
        np.concatenate(counts_parts) if counts_parts else np.empty(0, np.int64)
    )
    return TraceProfile(
        pages=pages,
        counts=counts,
        row_ptr=row_ptr,
        phase_n=phase_n,
        phase_is_write=phase_is_write,
        phase_is_random=phase_is_random,
        labels=tuple(labels),
    )


def validate_profile(profile: TraceProfile) -> None:
    """Structural validation; raises :class:`TraceError` on any defect.

    Run at the store boundary: a deserialised profile must be internally
    consistent before the cost model trusts its index arithmetic.
    """
    n_phases = profile.n_phases
    row_ptr = profile.row_ptr
    if row_ptr.shape != (n_phases + 1,):
        raise TraceError(
            f"row_ptr has shape {row_ptr.shape}, expected ({n_phases + 1},)"
        )
    if n_phases and (int(row_ptr[0]) != 0 or np.any(np.diff(row_ptr) < 0)):
        raise TraceError("row_ptr must start at 0 and be non-decreasing")
    nnz = profile.nnz
    if int(row_ptr[-1]) != nnz:
        raise TraceError(
            f"row_ptr covers {int(row_ptr[-1])} entries "
            f"but the profile holds {nnz}"
        )
    if profile.counts.shape != (nnz,):
        raise TraceError("pages and counts must have the same length")
    if nnz and int(profile.counts.min()) <= 0:
        raise TraceError("profile counts must be positive")
    if nnz and int(profile.pages.min()) < 0:
        raise TraceError("profile pages must be non-negative VPNs")
    for name in ("phase_n", "phase_is_write", "phase_is_random"):
        arr = getattr(profile, name)
        if arr.shape != (n_phases,):
            raise TraceError(f"{name} has shape {arr.shape}, expected ({n_phases},)")
    if len(profile.labels) != n_phases:
        raise TraceError("labels must have one entry per phase")
    if n_phases and int(profile.phase_n.min()) < 0:
        raise TraceError("phase_n must be non-negative")


# ----------------------------------------------------------------------
# columnar (de)serialisation, used by repro.sim.tracestore
# ----------------------------------------------------------------------
def profile_to_columnar(profile: TraceProfile) -> tuple[np.ndarray, dict]:
    """Split a profile into one dense array plus a JSON-friendly record.

    The array stacks ``pages`` (row 0) and ``counts`` (row 1) as
    ``int64 [2, nnz]`` — the only part worth mmap-sharing; the per-phase
    metadata (a few hundred scalars) travels in the sidecar record.
    """
    stacked = np.vstack([profile.pages, profile.counts]).astype(np.int64)
    record = {
        "nnz": profile.nnz,
        "row_ptr": profile.row_ptr.tolist(),
        "phase_n": profile.phase_n.tolist(),
        "is_write": profile.phase_is_write.tolist(),
        "is_random": profile.phase_is_random.tolist(),
        "labels": list(profile.labels),
    }
    return stacked, record


def profile_from_columnar(stacked: np.ndarray, record: dict) -> TraceProfile:
    """Rebuild (and validate) a profile from its serialized halves.

    ``stacked`` may be a read-only mmap view; the CSR arrays stay
    zero-copy views into it.  Raises :class:`TraceError` on any
    structural defect, so callers can reject the store entry.
    """
    try:
        nnz = int(record["nnz"])
        row_ptr = np.asarray(record["row_ptr"], dtype=np.int64)
        phase_n = np.asarray(record["phase_n"], dtype=np.int64)
        phase_is_write = np.asarray(record["is_write"], dtype=np.bool_)
        phase_is_random = np.asarray(record["is_random"], dtype=np.bool_)
        labels = tuple(str(label) for label in record["labels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed profile record: {exc}") from exc
    stacked = np.asarray(stacked)
    if stacked.dtype != np.int64 or stacked.shape != (2, nnz):
        raise TraceError(
            f"profile array has dtype/shape {stacked.dtype}/{stacked.shape}, "
            f"expected int64 (2, {nnz})"
        )
    profile = TraceProfile(
        pages=stacked[0],
        counts=stacked[1],
        row_ptr=row_ptr,
        phase_n=phase_n,
        phase_is_write=phase_is_write,
        phase_is_random=phase_is_random,
        labels=labels,
    )
    validate_profile(profile)
    return profile
