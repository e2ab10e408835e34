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
- ``sorted_gaps`` — the same gaps ascending:

two int64 rows, 16 bytes per access in memory and in the store.  From
the sorted row any capacity's hit threshold solves with one int64
prefix sum and a binary search (:func:`repro.mem.cache.window_threshold`
— no re-sort), and the hit mask for any LLC geometry is one vectorised
int64 compare ``gaps <= threshold``.  A whole fig9/fig10 capacity sweep
derives all its masks from *one* O(N log N) fold over the trace, and
miss-ratio curves come from a ``searchsorted`` on the sorted gaps.

Bit-exactness is the contract: :meth:`ReuseProfile.hit_mask` calls the
same :func:`~repro.mem.cache.window_threshold` on the same sorted gaps
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
    WorkingSetCache,
    dense_span_fits,
    reuse_time_gaps,
    window_threshold,
)
from repro.mem.trace import AccessTrace

#: Columnar layout version; part of the stored file name (repro.sim.artifacts),
#: so a file of another version is never read.
REUSE_FORMAT = 3


def derivable(llc) -> bool:
    """Whether ``llc``'s hit masks can be derived from a reuse profile.

    Exactly :class:`WorkingSetCache` (not a subclass — a subclass could
    override ``hit_mask`` and break the bit-exactness contract).  The
    direct-mapped and set-associative simulators model conflict misses,
    which reuse gaps cannot see.
    """
    return type(llc) is WorkingSetCache


@dataclass
class ReuseProfile:
    """Per-access reuse gaps in program order and ascending.

    The two int64 rows are all a profile holds: every capacity's hit
    threshold solves from ``sorted_gaps`` on demand, so nothing else is
    cached per profile, whether it was folded here or loaded from the
    store.

    ``_fold_state`` optionally carries the fold's dense last-seen table
    (``(base_line, table)``, global stream positions, ``-1`` = never
    seen) so :meth:`extend` can fold *only* a new phase's delta and
    merge, instead of refolding the whole stream.  The state is
    in-process only — it is never serialized, so store-loaded profiles
    answer :attr:`can_extend` with ``False`` and extension falls back to
    a full refold.
    """

    gaps: np.ndarray  # int64 [n], program order; GAP_COLD = first touch
    sorted_gaps: np.ndarray  # int64 [n], ascending
    line_size: int = LINE_SIZE
    _fold_state: tuple[int, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

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

        Folds **only the delta**: intra-delta gaps come from one fold
        over the delta alone (gap = position difference, invariant under
        the shared ``base_n`` offset), delta accesses whose line was
        last seen in the base stream are patched from the carried
        last-seen table, and the sorted row is one stable sort of the
        two ascending rows end to end, which timsort merges as two runs
        in O(N + d) — bit-identical to ``np.sort`` of the concatenation,
        without the O((N+d) log (N+d)) re-sort.  The base profile is
        never mutated (it stays cached under its own key); the result
        carries its own forwarded table so extensions chain per phase.

        Raises :class:`TraceError` when the profile has no fold state
        (store-loaded profiles don't) — callers should check
        :attr:`can_extend` and fall back to a full refold.
        """
        if self._fold_state is None:
            raise TraceError(
                "reuse profile carries no fold state; refold instead"
            )
        addrs = np.ascontiguousarray(delta_addrs, dtype=np.int64)
        if addrs.size == 0:
            return ReuseProfile(
                gaps=self.gaps,
                sorted_gaps=self.sorted_gaps,
                line_size=self.line_size,
                _fold_state=self._fold_state,
            )
        shift = int(self.line_size).bit_length() - 1
        delta_gaps, delta_state = reuse_time_gaps(addrs, shift, last_seen=True)
        state = _join_fold(
            self._fold_state, self.n, addrs, shift, delta_gaps, delta_state,
            in_place=False,
        )
        gaps = np.concatenate([np.asarray(self.gaps), delta_gaps])
        sorted_gaps = np.sort(
            np.concatenate([self.sorted_gaps, np.sort(delta_gaps)]),
            kind="stable",
        )
        return ReuseProfile(
            gaps=gaps,
            sorted_gaps=sorted_gaps,
            line_size=self.line_size,
            _fold_state=state,
        )

    # ------------------------------------------------------------------
    # derived masks and miss ratios
    # ------------------------------------------------------------------
    def hit_mask(self, capacity_lines: int) -> np.ndarray:
        """Boolean hit mask for a working-set LLC of ``capacity_lines``.

        Bit-exact with :meth:`WorkingSetCache.hit_mask` on the same
        address stream — the same threshold solve, the same compares.
        """
        threshold = window_threshold(self.sorted_gaps, capacity_lines)
        if threshold is None:
            return self.gaps < GAP_COLD
        return self.gaps <= threshold

    def hit_mask_for(self, llc) -> np.ndarray:
        """Derive ``llc.hit_mask(...)`` without touching the trace.

        Raises :class:`TraceError` when ``llc`` is not a plain
        :class:`WorkingSetCache` or uses a different line granularity —
        callers must fall back to the direct simulation then.
        """
        if not derivable(llc):
            raise TraceError(
                f"cannot derive {type(llc).__name__} masks from a reuse profile"
            )
        if llc.line_size != self.line_size:
            raise TraceError(
                f"reuse profile built at line size {self.line_size}, "
                f"LLC uses {llc.line_size}"
            )
        return self.hit_mask(llc.capacity_lines)

    def miss_ratio(self, capacity_lines: int) -> float:
        """Miss ratio at one capacity, in O(log N) — no mask needed."""
        n = self.n
        if n == 0:
            return 0.0
        threshold = window_threshold(self.sorted_gaps, capacity_lines)
        if threshold is None:
            # Only cold misses: every finite gap hits.
            hits = int(np.searchsorted(self.sorted_gaps, GAP_COLD))
        else:
            hits = int(
                np.searchsorted(self.sorted_gaps, threshold, side="right")
            )
        return 1.0 - hits / n

    def miss_ratio_curve(self, capacities_lines) -> np.ndarray:
        """Miss ratios for a whole capacity sweep (float64, same order)."""
        return np.array(
            [self.miss_ratio(int(c)) for c in np.asarray(capacities_lines)],
            dtype=np.float64,
        )


def _join_fold(
    state: tuple[int, np.ndarray],
    base_n: int,
    addrs: np.ndarray,
    shift: int,
    gaps: np.ndarray,
    delta_state: tuple[int, np.ndarray] | None,
    *,
    in_place: bool,
) -> tuple[int, np.ndarray] | None:
    """Join a delta's own fold onto the fold state of the stream before it.

    ``state`` is the last-seen table after the first ``base_n``
    accesses; ``gaps``/``delta_state`` come from
    ``reuse_time_gaps(addrs, shift, last_seen=True)`` over the delta
    alone.  Delta first touches whose line the table has seen are
    patched in ``gaps`` to their cross-boundary gap, and the table is
    forwarded over the delta.  ``in_place`` lets the table be updated
    where it lies when the delta stays inside its span (a streaming
    fold owns its table; :meth:`ReuseProfile.extend` must not mutate
    its base).  Returns the forwarded state, or ``None`` when the delta
    carries no table or the joined span is too sparse for one — the
    gaps are exact either way.
    """
    base_line, table = state
    cold = np.flatnonzero(gaps == GAP_COLD)
    if cold.size:
        idx = (addrs[cold] >> shift) - base_line
        in_range = (idx >= 0) & (idx < table.size)
        prev = np.full(cold.size, -1, dtype=np.int64)
        prev[in_range] = table[idx[in_range]]
        seen = prev >= 0
        gaps[cold[seen]] = base_n + cold[seen] - prev[seen]
    if delta_state is None:
        return None
    delta_line, delta_table = delta_state
    low = min(base_line, delta_line)
    top = max(base_line + table.size, delta_line + delta_table.size)
    if not dense_span_fits(top - low, base_n + addrs.size):
        return None
    if in_place and low == base_line and top == base_line + table.size:
        joined = table
    else:
        joined = np.full(top - low, -1, dtype=np.int64)
        joined[base_line - low : base_line - low + table.size] = table
    window = joined[delta_line - low : delta_line - low + delta_table.size]
    touched = delta_table >= 0
    window[touched] = delta_table[touched] + base_n
    return low, joined


def _line_shift(line_size: int) -> int:
    """``log2(line_size)``; raises :class:`TraceError` unless a power of two."""
    if line_size <= 0 or line_size & (line_size - 1):
        raise TraceError(f"line size must be a power of two, got {line_size}")
    return line_size.bit_length() - 1


def build_reuse_profile(
    addrs: np.ndarray, line_size: int = LINE_SIZE, *, with_state: bool = True
) -> ReuseProfile:
    """Fold one address stream into a :class:`ReuseProfile`.

    One packed-key sort (:func:`repro.mem.cache.reuse_time_gaps`) plus
    one ``np.sort`` of the gaps — paid once per trace and amortised over
    every LLC capacity derived from the result.  With ``with_state``
    (the default) the profile also carries the fold's last-seen table so
    later phases can :meth:`~ReuseProfile.extend` it; pass ``False`` for
    one-shot folds that will never grow (saves the table's memory).
    """
    shift = _line_shift(line_size)
    if with_state:
        gaps, state = reuse_time_gaps(addrs, shift, last_seen=True)
    else:
        gaps, state = reuse_time_gaps(addrs, shift), None
    return ReuseProfile(
        gaps=gaps,
        sorted_gaps=np.sort(gaps),
        line_size=line_size,
        _fold_state=state,
    )


def fold_reuse_chunks(
    chunks, line_size: int = LINE_SIZE
) -> ReuseProfile:
    """Fold an address stream delivered in program-order chunks.

    The streaming twin of :func:`build_reuse_profile`, bit-identical to
    the one-shot fold of the concatenation without ever materialising
    the flat stream.  Each chunk is folded alone, its first touches are
    patched from the last-seen table carried over the chunks before it
    (the same join as :meth:`ReuseProfile.extend`), and the table moves
    forward in place; the gap rows are concatenated and sorted once at
    the end, so no chunk re-copies or re-merges the rows before it.
    When a chunk or the joined span is too sparse for a dense table the
    chain breaks and the fold concatenates the chunks and refolds once —
    correctness over memory in the pathological case.  Chunks are
    retained as views, so the streaming path allocates nothing beyond
    the fold's own rows.
    """
    shift = _line_shift(line_size)
    seen: list[np.ndarray] = []
    parts: list[np.ndarray] = []
    state: tuple[int, np.ndarray] | None = None
    n = 0
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        if chunk.size == 0:
            continue
        seen.append(chunk)
        if n and state is None:
            continue  # chain broken: refold below
        gaps, fold = reuse_time_gaps(chunk, shift, last_seen=True)
        if n:
            fold = _join_fold(state, n, chunk, shift, gaps, fold, in_place=True)
        state = fold
        parts.append(gaps)
        n += chunk.size
    if state is None:
        flat = np.concatenate(seen) if seen else np.empty(0, dtype=np.int64)
        return build_reuse_profile(flat, line_size)
    gaps = np.concatenate(parts)
    del parts
    return ReuseProfile(
        gaps=gaps,
        sorted_gaps=np.sort(gaps),
        line_size=line_size,
        _fold_state=state,
    )


def validate_reuse(profile: ReuseProfile) -> None:
    """Structural validation; raises :class:`TraceError` on any defect.

    Run at the store boundary: a deserialised profile must be internally
    consistent before masks are derived from it.  Checks are O(N) single
    passes (no re-sort): the sorted row must be an ascending arrangement
    with the same extremes and cold count as the program-order row, and
    every gap must be at least 1 (a line cannot be reused in zero time).
    """
    gaps, sorted_gaps = profile.gaps, profile.sorted_gaps
    if gaps.ndim != 1 or sorted_gaps.shape != gaps.shape:
        raise TraceError(
            f"reuse rows disagree: {gaps.shape} vs {sorted_gaps.shape}"
        )
    if profile.line_size <= 0 or profile.line_size & (profile.line_size - 1):
        raise TraceError(
            f"reuse profile line size {profile.line_size} is not a power of two"
        )
    if gaps.size == 0:
        return
    if np.any(sorted_gaps[1:] < sorted_gaps[:-1]):
        raise TraceError("sorted reuse gaps must be non-decreasing")
    if int(sorted_gaps[0]) < 1:
        raise TraceError("reuse gaps must be >= 1 access")
    if int(sorted_gaps[0]) != int(gaps.min()) or int(sorted_gaps[-1]) != int(
        gaps.max()
    ):
        raise TraceError("sorted reuse gaps do not span the program-order gaps")
    n_cold = int(np.count_nonzero(gaps == GAP_COLD))
    if int(np.count_nonzero(sorted_gaps == GAP_COLD)) != n_cold:
        raise TraceError("cold-miss counts disagree between reuse rows")
    if n_cold == 0:
        raise TraceError("a non-empty trace must have at least one cold miss")


# ----------------------------------------------------------------------
# columnar (de)serialisation, used by repro.sim.tracestore
# ----------------------------------------------------------------------
def reuse_to_columnar(profile: ReuseProfile) -> tuple[np.ndarray, dict]:
    """Split a reuse profile into one dense array plus a JSON record.

    Artifact v3 is one ``int64 [2, n]`` array: row 0 holds ``gaps`` in
    program order, row 1 ``sorted_gaps``; the record carries ``n`` and
    the line size.
    """
    record = {"n": profile.n, "line_size": int(profile.line_size)}
    return np.stack((profile.gaps, profile.sorted_gaps)), record


def reuse_from_columnar(stacked: np.ndarray, record: dict) -> ReuseProfile:
    """Rebuild (and validate) a reuse profile from its serialized halves.

    ``stacked`` may be a read-only mmap view; the gap rows stay
    zero-copy views of its (C-contiguous) rows.  Raises
    :class:`TraceError` on any structural defect, so callers can reject
    the store entry and rebuild.
    """
    try:
        n = int(record["n"])
        line_size = int(record["line_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed reuse record: {exc}") from exc
    stacked = np.asarray(stacked)
    if stacked.dtype != np.int64 or stacked.shape != (2, n):
        raise TraceError(
            f"reuse array has dtype/shape {stacked.dtype}/{stacked.shape}, "
            f"expected int64 (2, {n})"
        )
    profile = ReuseProfile(
        gaps=stacked[0],
        sorted_gaps=stacked[1],
        line_size=line_size,
    )
    validate_reuse(profile)
    return profile
