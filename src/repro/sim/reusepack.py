"""Compiled reuse profiles: one pass over a trace, masks for every LLC size.

The fourth cached artifact of the lattice ``trace -> reuse profile ->
LLC hit mask -> miss profile``.  Where a hit mask is keyed by
``(trace, llc_sig)`` and a miss profile by the same pair, a
:class:`ReuseProfile` is keyed by the **trace alone** (plus the line
granularity): the working-set model's reuse time gaps depend only on
the address stream and the cache-line size, never on capacity.  The
profile therefore holds

- ``gaps`` — per-access reuse time gaps in program order (the output of
  :func:`repro.mem.cache.reuse_time_gaps`, with
  :data:`repro.mem.cache.GAP_COLD` marking first occurrences), and
- ``values``/``counts`` — the gaps' histogram: the ascending distinct
  finite gaps and how often each occurs, made by the same fold:

``8·n + 16·m`` bytes for ``n`` accesses and ``m`` distinct gaps, held
in memory beside the trace: the store keeps the masks and miss profiles
derived from a profile, not the profile itself (the columnar codec
below stays for the store's ``save_reuse``/``load_reuse``, which the
benchmark's layer wrappers patch by name).  From the histogram any
capacity's hit threshold solves with two O(m) prefix sums and a binary
search (:func:`repro.mem.cache.window_threshold` — no sort), and the
hit mask for any LLC geometry is one vectorised int64 compare
``gaps <= threshold``.  A whole fig9/fig10 capacity sweep derives all
its masks from *one* fold over the trace, and miss-ratio curves come
from a ``searchsorted`` in the histogram.

One-shot (:func:`build_reuse_profile`), chunked
(:func:`fold_reuse_chunks`) and incremental (:meth:`ReuseProfile.extend`)
folds all run the fold's one block loop; the latter two continue it
from a carried last-seen table and add histograms.  The cache folds a
sealed trace's one buffer one-shot or extends a profile over its
suffix; the chunked fold has no caller in the package and stays as the
named entry point the benchmark's layer wrappers patch.

Bit-exactness is the contract: :meth:`ReuseProfile.hit_mask` calls the
same :func:`~repro.mem.cache.window_threshold` on the same histogram
as :meth:`repro.mem.cache.WorkingSetCache.hit_mask`, so derived masks
are indistinguishable from direct ones.  The direct path remains the
parity oracle — ``REPRO_VERIFY=1`` makes
:class:`repro.sim.tracecache.TraceCache` recompute every derived mask
directly and raise on divergence (see DESIGN.md section 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    LastSeen,
    add_histograms,
    reuse_time_gaps,
    window_threshold,
)
from repro.mem.trace import AccessTrace

#: Columnar layout version; part of the stored file name (repro.sim.artifacts),
#: so a file of another version is never read.
REUSE_FORMAT = 4


@dataclass
class ReuseProfile:
    """Per-access reuse gaps in program order, plus their histogram.

    ``values`` are the ascending distinct finite gaps and ``counts``
    how often each occurs; every capacity's hit threshold solves from
    them on demand, so nothing else is cached per profile, whether it
    was folded here or loaded from the store.

    ``_fold_state`` optionally carries the fold's dense last-seen table
    (``(base_line, table)``, global stream positions, ``-1`` = never
    seen) so :meth:`extend` can fold *only* a new phase's delta,
    instead of refolding the whole stream.  The state is in-process
    only — it is never serialized, so store-loaded profiles answer
    :attr:`can_extend` with ``False`` and extension falls back to a
    full refold.
    """

    gaps: np.ndarray  # int64 [n], program order; GAP_COLD = first touch
    values: np.ndarray  # int64 [m], ascending distinct finite gaps
    counts: np.ndarray  # int64 [m], occurrences of each value
    line_size: int = LINE_SIZE
    _fold_state: LastSeen | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Accesses described by this profile."""
        return int(self.gaps.size)

    def matches(self, trace: AccessTrace) -> bool:
        """Whether this profile describes ``trace`` (shape-level check).

        Cheap by design, like :meth:`TraceProfile.matches` — content
        trust comes from the CRC at the store boundary and the content
        key at the cache boundary.
        """
        return self.n == trace.total_accesses

    # ------------------------------------------------------------------
    # incremental phase extension
    # ------------------------------------------------------------------
    @property
    def can_extend(self) -> bool:
        """Whether this profile carries fold state for :meth:`extend`."""
        return self._fold_state is not None

    def extend(self, delta_addrs: np.ndarray) -> "ReuseProfile":
        """A new profile covering this stream plus ``delta_addrs``.

        Folds **only the delta**: the block loop of
        :func:`~repro.mem.cache.reuse_time_gaps` continues from a copy of
        the carried last-seen table, so delta accesses whose line was
        last seen in the base stream get their cross-boundary gap, and
        the two histograms add in O(m).  The base profile is never
        mutated (it stays cached under its own key); the result carries
        its own forwarded table so extensions chain per phase.

        Raises :class:`TraceError` when the profile has no fold state
        (store-loaded profiles don't) — callers should check
        :attr:`can_extend` and fall back to a full refold.
        """
        if self._fold_state is None:
            raise TraceError(
                "reuse profile carries no fold state; refold instead"
            )
        addrs = np.ascontiguousarray(delta_addrs, dtype=np.int64)
        base, table = self._fold_state
        shift = _line_shift(self.line_size)
        fold = reuse_time_gaps(addrs, shift, carry=(base, table.copy()), start=self.n)
        values, counts = add_histograms(
            (self.values, self.counts), (fold.values, fold.counts)
        )
        return ReuseProfile(
            gaps=np.concatenate([np.asarray(self.gaps), fold.gaps]),
            values=values,
            counts=counts,
            line_size=self.line_size,
            _fold_state=fold.state,
        )

    # ------------------------------------------------------------------
    # derived masks and miss ratios
    # ------------------------------------------------------------------
    def hit_mask(self, capacity_lines: int) -> np.ndarray:
        """Boolean hit mask for a working-set LLC of ``capacity_lines``.

        Bit-exact with :meth:`WorkingSetCache.hit_mask` on the same
        address stream — the same threshold solve, the same compares.
        """
        return self.gaps <= self.threshold(capacity_lines)

    def hit_mask_for(self, llc) -> np.ndarray:
        """Derive ``llc.hit_mask(...)`` without touching the trace.

        ``llc`` is a :class:`WorkingSetCache`; raises :class:`TraceError`
        when it uses a different line granularity than the profile.
        """
        if llc.line_size != self.line_size:
            raise TraceError(
                f"reuse profile built at line size {self.line_size}, "
                f"LLC uses {llc.line_size}"
            )
        return self.hit_mask(llc.capacity_lines)

    def threshold(self, capacity_lines: int) -> int:
        """The largest gap that hits at ``capacity_lines`` (the window solve)."""
        return window_threshold(self.values, self.counts, self.n, capacity_lines)

    def miss_ratio(self, capacity_lines: int) -> float:
        """Miss ratio at one capacity, in O(m) — no mask needed."""
        n = self.n
        if n == 0:
            return 0.0
        hits = np.searchsorted(self.values, self.threshold(capacity_lines), "right")
        return 1.0 - int(self.counts[:hits].sum()) / n

    def miss_ratio_curve(self, capacities_lines) -> np.ndarray:
        """Miss ratios for a whole capacity sweep (float64, same order)."""
        return np.array(
            [self.miss_ratio(int(c)) for c in np.asarray(capacities_lines)],
            dtype=np.float64,
        )


def _line_shift(line_size: int) -> int:
    """``log2(line_size)``; raises :class:`TraceError` unless a power of two."""
    if line_size <= 0 or line_size & (line_size - 1):
        raise TraceError(f"line size must be a power of two, got {line_size}")
    return line_size.bit_length() - 1


def build_reuse_profile(
    addrs: np.ndarray, line_size: int = LINE_SIZE, *, with_state: bool = True
) -> ReuseProfile:
    """Fold one address stream into a :class:`ReuseProfile`.

    One blocked fold (:func:`repro.mem.cache.reuse_time_gaps`) yields
    the gaps and their histogram — paid once per trace and amortised
    over every LLC capacity derived from the result.  With
    ``with_state`` (the default) the profile also keeps the fold's
    last-seen table so later phases can :meth:`~ReuseProfile.extend`
    it; pass ``False`` for one-shot folds that will never grow (the
    table is dropped with the fold).
    """
    fold = reuse_time_gaps(addrs, _line_shift(line_size))
    return ReuseProfile(
        gaps=fold.gaps,
        values=fold.values,
        counts=fold.counts,
        line_size=line_size,
        _fold_state=fold.state if with_state else None,
    )


def fold_reuse_chunks(
    chunks, line_size: int = LINE_SIZE
) -> ReuseProfile:
    """Fold an address stream delivered in program-order chunks.

    The streaming twin of :func:`build_reuse_profile`, bit-identical to
    the one-shot fold of the concatenation without ever materialising
    the flat stream (no caller in the package: a sealed trace already
    is one buffer, see the module docstring).  Each chunk goes through the same block loop as a
    one-shot fold, continuing from the last-seen table the chunks
    before it left (moved forward in place); the chunk histograms add
    once at the end.  When a chunk makes the joined span too sparse for
    a dense table the chain breaks and the fold concatenates the chunks
    and refolds once — correctness over memory in the pathological
    case.  Chunks are retained as views, so the streaming path
    allocates nothing beyond the fold's own rows.
    """
    shift = _line_shift(line_size)
    seen: list[np.ndarray] = []
    folds = []
    state: LastSeen | None = None
    n = 0
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        if chunk.size == 0:
            continue
        seen.append(chunk)
        if n and state is None:
            continue  # chain broken: refold below
        fold = reuse_time_gaps(chunk, shift, carry=state, start=n)
        state = fold.state
        folds.append(fold)
        n += chunk.size
    if state is None:
        flat = np.concatenate(seen) if seen else np.empty(0, dtype=np.int64)
        return build_reuse_profile(flat, line_size)
    values, counts = add_histograms(*((f.values, f.counts) for f in folds))
    gaps = np.concatenate([f.gaps for f in folds])
    del folds
    return ReuseProfile(
        gaps=gaps,
        values=values,
        counts=counts,
        line_size=line_size,
        _fold_state=state,
    )


def validate_reuse(profile: ReuseProfile) -> None:
    """Structural validation; raises :class:`TraceError` on any defect.

    Run at the store boundary: a deserialised profile must be internally
    consistent before masks are derived from it.  The histogram checks
    are O(m): values strictly ascending and at least 1 (a line cannot
    be reused in zero time), counts at least 1.  One O(n) pass over the
    gaps ties the two together: the histogram must count every finite
    gap, span the smallest and largest of them, and leave at least one
    cold miss.
    """
    gaps, values, counts = profile.gaps, profile.values, profile.counts
    if gaps.ndim != 1 or values.ndim != 1 or counts.shape != values.shape:
        raise TraceError(
            f"reuse rows disagree: {gaps.shape}, {values.shape}, {counts.shape}"
        )
    if profile.line_size <= 0 or profile.line_size & (profile.line_size - 1):
        raise TraceError(
            f"reuse profile line size {profile.line_size} is not a power of two"
        )
    if values.size:
        if np.any(values[1:] <= values[:-1]):
            raise TraceError("reuse gap values must be strictly ascending")
        if int(values[0]) < 1 or int(values[-1]) >= GAP_COLD:
            raise TraceError("reuse gap values must be finite and >= 1 access")
        if int(counts.min()) < 1:
            raise TraceError("reuse gap counts must be >= 1")
    if gaps.size == 0:
        if values.size:
            raise TraceError("an empty trace has no reuse gaps")
        return
    finite = gaps != GAP_COLD
    n_finite = int(np.count_nonzero(finite))
    if n_finite == gaps.size:
        raise TraceError("a non-empty trace must have at least one cold miss")
    if int(counts.sum()) != n_finite:
        raise TraceError("reuse histogram does not count every finite gap")
    if n_finite and (
        int(values[0]) != int(gaps.min(where=finite, initial=GAP_COLD))
        or int(values[-1]) != int(gaps.max(where=finite, initial=0))
    ):
        raise TraceError("reuse histogram does not span the program-order gaps")


# ----------------------------------------------------------------------
# columnar (de)serialisation, used by repro.sim.tracestore
# ----------------------------------------------------------------------
def reuse_to_columnar(profile: ReuseProfile) -> tuple[np.ndarray, dict]:
    """Split a reuse profile into one dense array plus a JSON record.

    Artifact v4 is one ``int64 [n + 2m]`` array: the ``n`` gaps in
    program order, then the ``m`` histogram values, then their counts;
    the record carries ``n``, ``m`` and the line size.
    """
    record = {
        "n": profile.n,
        "m": int(profile.values.size),
        "line_size": int(profile.line_size),
    }
    return np.concatenate((profile.gaps, profile.values, profile.counts)), record


def reuse_from_columnar(flat: np.ndarray, record: dict) -> ReuseProfile:
    """Rebuild (and validate) a reuse profile from its serialized halves.

    ``flat`` may be a read-only mmap view; the gaps and the histogram
    stay zero-copy views of it.  Raises :class:`TraceError` on any
    structural defect, so callers can reject the store entry and
    rebuild.
    """
    try:
        n = int(record["n"])
        m = int(record["m"])
        line_size = int(record["line_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed reuse record: {exc}") from exc
    flat = np.asarray(flat)
    if flat.dtype != np.int64 or flat.shape != (n + 2 * m,):
        raise TraceError(
            f"reuse array has dtype/shape {flat.dtype}/{flat.shape}, "
            f"expected int64 ({n + 2 * m},)"
        )
    profile = ReuseProfile(
        gaps=flat[:n],
        values=flat[n : n + m],
        counts=flat[n + m :],
        line_size=line_size,
    )
    validate_reuse(profile)
    return profile
