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
- ``sorted_gaps`` — the same gaps ascending, and
- the window curve (prefix sums + ``f(W)`` samples), persisted with the
  gap rows since artifact v2 so store-loaded profiles skip the
  per-process float64 cast+cumsum entirely.

From the cached curve any capacity's working-set window W\\* solves in
O(log N) (:func:`repro.mem.cache.solve_window_curve` — no re-sort), and
the hit mask for any LLC geometry is one vectorised compare
``gaps <= W*``.  A whole fig9/fig10 capacity sweep derives all its
masks from *one* O(N log N) fold over the trace, and miss-ratio curves
come for free from the sorted gaps.

Bit-exactness is the contract: :meth:`ReuseProfile.hit_mask` performs
the *identical* float64 operations as
:meth:`repro.mem.cache.WorkingSetCache.hit_mask` (same sort → float64
cast → prefix curve → closed-form solve → compare), so derived masks
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
    dense_table_span,
    gap_window_curve,
    reuse_time_gaps,
    solve_window_curve,
)
from repro.mem.trace import AccessTrace

#: Columnar layout version; part of the stored file name (repro.sim.artifacts).
#: v2 added the window-curve columns (``prefix``/``f_at_gap`` float64) so
#: a store-loaded profile answers ``window()``/``hit_mask()`` without the
#: per-process cast+cumsum; a v1 file has another name and is never read.
REUSE_FORMAT = 2


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
    """Per-access reuse gaps plus the sorted-gap window curve.

    The window curve (``prefix``/``f_at_gap`` float64 arrays) either
    arrives pre-computed — a v2 store entry persists it, so a loaded
    profile answers ``window()``/``hit_mask()`` with zero per-process
    float work — or is materialised lazily after an in-process fold and
    cached on the instance.  The float64 view of the sorted gaps (used
    only for miss-ratio counting) stays lazy in both cases.

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
    _sorted_f: np.ndarray | None = field(default=None, repr=False, compare=False)
    _prefix: np.ndarray | None = field(default=None, repr=False, compare=False)
    _f_at_gap: np.ndarray | None = field(default=None, repr=False, compare=False)
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
    # the cached window curve
    # ------------------------------------------------------------------
    def _sorted_float(self) -> np.ndarray:
        if self._sorted_f is None:
            self._sorted_f = self.sorted_gaps.astype(np.float64)
        return self._sorted_f

    def _curve(self) -> tuple[np.ndarray, np.ndarray]:
        if self._f_at_gap is None:
            # Identical to WorkingSetCache.solve_window's preamble:
            # ascending gaps cast to float64, then the prefix curve.
            self._prefix, self._f_at_gap = gap_window_curve(
                self._sorted_float()
            )
        return self._prefix, self._f_at_gap

    def window(self, capacity_lines: int) -> float:
        """The working-set window W* for one capacity, in O(log N)."""
        prefix, f_at_gap = self._curve()
        return solve_window_curve(prefix, f_at_gap, capacity_lines)

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
        last-seen table, and the sorted row is a searchsorted merge —
        bit-identical to ``np.sort`` of the concatenation, without the
        O((N+d) log (N+d)) re-sort.  The base profile is never mutated
        (it stays cached under its own key); the result carries its own
        forwarded table so extensions chain per phase.

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
                _sorted_f=self._sorted_f,
                _prefix=self._prefix,
                _f_at_gap=self._f_at_gap,
                _fold_state=self._fold_state,
            )
        shift = int(self.line_size).bit_length() - 1
        lines = addrs >> shift
        base_n = self.n
        base_line, table = self._fold_state
        # Intra-delta gaps; GAP_COLD marks first-in-delta touches.
        delta_gaps = reuse_time_gaps(addrs, shift)
        cold = np.nonzero(delta_gaps == GAP_COLD)[0]
        if cold.size:
            idx = lines[cold] - base_line
            in_range = (idx >= 0) & (idx < table.size)
            prev = np.full(cold.size, -1, dtype=np.int64)
            prev[in_range] = table[idx[in_range]]
            seen = prev >= 0
            delta_gaps[cold[seen]] = base_n + cold[seen] - prev[seen]
        gaps = np.concatenate([np.asarray(self.gaps), delta_gaps])
        delta_sorted = np.sort(delta_gaps)
        positions = np.searchsorted(self.sorted_gaps, delta_sorted)
        sorted_gaps = np.insert(
            np.asarray(self.sorted_gaps), positions, delta_sorted
        )
        return ReuseProfile(
            gaps=gaps,
            sorted_gaps=sorted_gaps,
            line_size=self.line_size,
            _fold_state=self._forwarded_state(lines, base_n),
        )

    def _forwarded_state(
        self, lines: np.ndarray, base_n: int
    ) -> tuple[int, np.ndarray] | None:
        """The last-seen table grown over the delta's lines (a copy)."""
        base_line, table = self._fold_state
        new_base = min(base_line, int(lines.min()))
        new_top = max(base_line + table.size, int(lines.max()) + 1)
        if new_top - new_base > max(1024, 8 * (base_n + lines.size)):
            return None  # delta too sparse: stop chaining, keep correctness
        new_table = np.full(new_top - new_base, -1, dtype=np.int64)
        offset = base_line - new_base
        new_table[offset : offset + table.size] = table
        np.maximum.at(
            new_table,
            lines - new_base,
            np.arange(base_n, base_n + lines.size),
        )
        return new_base, new_table

    # ------------------------------------------------------------------
    # derived masks and miss ratios
    # ------------------------------------------------------------------
    def hit_mask(self, capacity_lines: int) -> np.ndarray:
        """Boolean hit mask for a working-set LLC of ``capacity_lines``.

        Bit-exact with :meth:`WorkingSetCache.hit_mask` on the same
        address stream — the same window solve, the same compares.
        """
        if self.n == 0:
            return np.empty(0, dtype=bool)
        window = self.window(capacity_lines)
        if np.isinf(window):
            return self.gaps < GAP_COLD
        return self.gaps <= window

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
        window = self.window(capacity_lines)
        if np.isinf(window):
            # Only cold misses: every finite gap hits.
            hits = int(np.searchsorted(self.sorted_gaps, GAP_COLD, side="left"))
        else:
            # Mirrors the float64 `gaps <= window` compare of hit_mask.
            hits = int(
                np.searchsorted(self._sorted_float(), window, side="right")
            )
        return 1.0 - hits / n

    def miss_ratio_curve(self, capacities_lines) -> np.ndarray:
        """Miss ratios for a whole capacity sweep (float64, same order)."""
        return np.array(
            [self.miss_ratio(int(c)) for c in np.asarray(capacities_lines)],
            dtype=np.float64,
        )


def _fold_state_of(lines: np.ndarray) -> tuple[int, np.ndarray] | None:
    """The dense last-seen table after folding ``lines``, or ``None``.

    Built vectorised (``np.maximum.at`` keeps the *latest* position per
    line slot) so the state exists even when the fold itself ran on the
    argsort path — extendability does not depend on numba.  ``None``
    when the stream is too sparse for a dense table.
    """
    geometry = dense_table_span(lines)
    if geometry is None:
        return None
    base, span = geometry
    table = np.full(span, -1, dtype=np.int64)
    np.maximum.at(
        table, lines - base, np.arange(lines.size, dtype=np.int64)
    )
    return base, table


def build_reuse_profile(
    addrs: np.ndarray, line_size: int = LINE_SIZE, *, with_state: bool = True
) -> ReuseProfile:
    """Fold one address stream into a :class:`ReuseProfile`.

    One linear pass (or one vectorised stable argsort — see
    :func:`repro.mem.cache.reuse_time_gaps`) plus one ``np.sort`` of the
    gaps — paid once per trace and amortised over every LLC capacity
    derived from the result.  With ``with_state`` (the default) the
    profile also carries the fold's last-seen table so later phases can
    :meth:`~ReuseProfile.extend` it; pass ``False`` for one-shot folds
    that will never grow (saves the table's memory).
    """
    if line_size <= 0 or line_size & (line_size - 1):
        raise TraceError(f"line size must be a power of two, got {line_size}")
    addrs = np.asarray(addrs, dtype=np.int64)
    shift = line_size.bit_length() - 1
    gaps = reuse_time_gaps(addrs, shift)
    state = None
    if with_state and addrs.size:
        state = _fold_state_of(addrs >> shift)
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

    The streaming twin of :func:`build_reuse_profile`: the first
    non-empty chunk seeds the profile and every later chunk arrives via
    :meth:`ReuseProfile.extend` — bit-identical to the one-shot fold of
    the concatenation (extend's contract), without ever materialising
    the flat stream.  When a chunk is too sparse for the dense last-seen
    table the chain stops carrying state (:attr:`~ReuseProfile.
    can_extend` goes false) and the fold falls back to concatenating the
    chunks seen so far and refolding once — correctness over memory in
    the pathological case.  Chunks are retained as views, so the
    streaming path allocates nothing beyond the fold's own rows.
    """
    profile: ReuseProfile | None = None
    seen: list[np.ndarray] = []
    chained = True
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        if chunk.size == 0:
            continue
        seen.append(chunk)
        if not chained:
            continue
        if profile is None:
            profile = build_reuse_profile(chunk, line_size)
        elif profile.can_extend:
            profile = profile.extend(chunk)
        else:
            chained = False
    if not seen:
        return build_reuse_profile(np.empty(0, dtype=np.int64), line_size)
    if not chained:
        return build_reuse_profile(np.concatenate(seen), line_size)
    return profile


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
    _validate_curve(profile)


def _validate_curve(profile: ReuseProfile) -> None:
    """Cheap invariants of an attached (persisted) window curve.

    Deliberately O(1) beyond shape checks: the CRC at the store boundary
    guards content, and re-deriving the curve here would pay exactly the
    cast+cumsum that persisting it exists to avoid.  The endpoint
    identities (``prefix[0] = 0``, ``f(g_last) = prefix[n]``, and the
    last prefix step equalling the largest gap) catch layout and
    row-ordering mistakes without touching the interior.
    """
    prefix, f_at_gap = profile._prefix, profile._f_at_gap
    if prefix is None and f_at_gap is None:
        return
    if prefix is None or f_at_gap is None:
        raise TraceError("reuse curve rows must be attached together")
    n = profile.n
    if prefix.shape != (n + 1,) or f_at_gap.shape != (n,):
        raise TraceError(
            f"reuse curve rows have shapes {prefix.shape}/{f_at_gap.shape}, "
            f"expected ({n + 1},)/({n},)"
        )
    if prefix.dtype != np.float64 or f_at_gap.dtype != np.float64:
        raise TraceError("reuse curve rows must be float64")
    if n == 0:
        if prefix[0] != 0.0:
            raise TraceError("empty reuse curve must start at zero")
        return
    last_gap = float(profile.sorted_gaps[-1])
    if (
        prefix[0] != 0.0
        or f_at_gap[-1] != prefix[-1]
        or prefix[-1] != prefix[-2] + last_gap
    ):
        raise TraceError("reuse curve endpoints disagree with the gap rows")


# ----------------------------------------------------------------------
# columnar (de)serialisation, used by repro.sim.tracestore
# ----------------------------------------------------------------------
def reuse_to_columnar(profile: ReuseProfile) -> tuple[np.ndarray, dict]:
    """Split a reuse profile into one dense array plus a JSON record.

    Artifact v2 is one ``float64 [4, n + 1]`` array:

    ======  =======================  ==========================
    row     columns ``[:n]``         trailing column
    ======  =======================  ==========================
    0       ``gaps`` (int64 bits)    zero padding
    1       ``sorted_gaps`` (bits)   zero padding
    2       ``prefix[:n]``           ``prefix[n]``
    3       ``f_at_gap``             zero padding
    ======  =======================  ==========================

    The gap rows keep their exact int64 bit patterns via ``.view``
    (``GAP_COLD`` does not survive a float64 *value* cast); the curve
    rows are genuine float64.  Persisting the curve costs 2x the v1
    bytes but removes the per-process cast+cumsum from every store-warm
    ``window()``/``hit_mask()`` — which is the whole point of the v2
    artifact.
    """
    n = profile.n
    prefix, f_at_gap = profile._curve()
    packed = np.zeros((4, n + 1), dtype=np.float64)
    packed[0, :n] = np.ascontiguousarray(
        profile.gaps, dtype=np.int64
    ).view(np.float64)
    packed[1, :n] = np.ascontiguousarray(
        profile.sorted_gaps, dtype=np.int64
    ).view(np.float64)
    packed[2, :] = prefix
    packed[3, :n] = f_at_gap
    record = {
        "n": n,
        "line_size": int(profile.line_size),
    }
    return packed, record


def reuse_from_columnar(stacked: np.ndarray, record: dict) -> ReuseProfile:
    """Rebuild (and validate) a reuse profile from its serialized halves.

    ``stacked`` may be a read-only mmap view; the gap rows stay
    zero-copy int64 bit-views into its (C-contiguous) row slices, and
    the curve rows attach pre-computed so no float work happens at load.
    Raises :class:`TraceError` on any structural defect, so callers can
    reject the store entry and rebuild.
    """
    try:
        n = int(record["n"])
        line_size = int(record["line_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed reuse record: {exc}") from exc
    stacked = np.asarray(stacked)
    if stacked.dtype != np.float64 or stacked.shape != (4, n + 1):
        raise TraceError(
            f"reuse array has dtype/shape {stacked.dtype}/{stacked.shape}, "
            f"expected float64 (4, {n + 1})"
        )
    gaps = np.ascontiguousarray(stacked[0, :n]).view(np.int64)
    sorted_gaps = np.ascontiguousarray(stacked[1, :n]).view(np.int64)
    profile = ReuseProfile(
        gaps=gaps,
        sorted_gaps=sorted_gaps,
        line_size=line_size,
        _prefix=stacked[2],
        _f_at_gap=stacked[3, :n],
    )
    validate_reuse(profile)
    return profile
