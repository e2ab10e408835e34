"""The last-level-cache model.

The LLC model turns an address stream into a per-access hit/miss mask.
It serves two roles in the reproduction:

1. The cost model charges memory time only for LLC misses (hits are folded
   into the compute term), so the miss mask determines execution time.
2. The ATMem profiler samples every k-th miss address, modelling PEBS
   configured on an LLC-miss event (paper Section 5.1).

The model is :class:`WorkingSetCache`: Denning's working-set
approximation of a high-associativity LRU cache, built on per-access
reuse time gaps (:func:`reuse_time_gaps`).  That fold sorts packed
``(line, offset)`` int64 keys one cache-resident block of 16 Ki
accesses at a time against a dense last-seen table, and also yields
the gaps' ``(value, count)`` histogram; the window solve
(:func:`window_threshold`) is an integer search over that histogram.
Both are shared with the compiled reuse profiles of
:mod:`repro.sim.reusepack`.  The model is evaluated per run and keeps
no state between runs.  The exact LRU it approximates is
:func:`repro.mem.stack_distance.lru_hit_mask`.
"""

from __future__ import annotations

import bisect
import math
import os
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT

#: Reuse gap reported for the first access to a line (cold miss); matches
#: :data:`repro.mem.stack_distance.COLD` so cold sets line up across the
#: exact and approximate models.
GAP_COLD = np.iinfo(np.int64).max

#: Arms every parity oracle when set (and not ``0``): chunked and
#: incremental reuse folds are re-checked against a one-shot refold,
#: reuse-derived hit masks against the direct simulation, and
#: every priced run against replay.
VERIFY_ENV = "REPRO_VERIFY"


def verify_armed() -> bool:
    """Whether ``REPRO_VERIFY`` arms the parity oracles."""
    return os.environ.get(VERIFY_ENV, "") not in ("", "0")

#: A last-seen table covers ``max - min + 1`` line slots; a stream whose
#: line span exceeds this multiple of its length is too sparse for one
#: (the bump allocator makes real traces dense, so this only trips on
#: synthetic adversaries) and is renumbered densely instead.
_DENSE_SPAN_FACTOR = 8

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False

#: Accesses per block of the reuse fold.  A block's packed keys, its
#: slice of the gap row and its scratch rows (128 KiB each) stay
#: cache-resident while it is sorted and scattered, and every gap inside
#: a block is below the block size.
_FOLD_BLOCK = 1 << 14
_BLOCK_BITS = _FOLD_BLOCK.bit_length() - 1

#: A last-seen table, ``(base_line, table)``: ``table[line - base_line]``
#: is the global position of the last access to ``line``, ``-1`` if never.
LastSeen = tuple[int, np.ndarray]


class GapFold(NamedTuple):
    """One reuse fold: program-order gaps, their histogram, its carry.

    ``values`` are the ascending distinct finite gaps and ``counts``
    their multiplicities (``GAP_COLD`` is not counted: the cold count is
    the stream length minus ``counts.sum()``).  ``state`` is the dense
    last-seen table after the stream, or ``None`` when its line span is
    too sparse for one (:func:`dense_span_fits`).
    """

    gaps: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    state: LastSeen | None


def dense_span_fits(span: int, n: int) -> bool:
    """Whether a last-seen table of ``span`` slots is dense enough for a
    stream of ``n`` accesses (small spans always are)."""
    return span <= max(1024, _DENSE_SPAN_FACTOR * n)


def add_histograms(*histograms) -> tuple[np.ndarray, np.ndarray]:
    """The sum of ``(values, counts)`` gap histograms, values ascending."""
    values = np.concatenate([h[0] for h in histograms] or [_EMPTY])
    counts = np.concatenate([h[1] for h in histograms] or [_EMPTY])
    order = np.argsort(values, kind="stable")
    values, counts = values[order], counts[order]
    if values.size == 0:
        return values, counts
    heads = np.flatnonzero(np.diff(values, prepend=values[0] - 1))
    return values[heads], np.add.reduceat(counts, heads)


def _fold_blocks(
    stream: np.ndarray,
    shift: int,
    low: int,
    table: np.ndarray,
    start: int,
    gaps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The block loop of :func:`reuse_time_gaps`.

    A block's line ids are ``(stream >> shift) - low``, made block by
    block so no stream-long id row is ever built; ``table[id]`` is the
    global position of the last access to ``id`` (``-1`` if none) and
    moves forward in place; ``start`` is the global position of
    ``stream[0]``.  Each block sorts its unique packed keys
    ``id << 14 | offset``: sorted neighbours on one line differ by
    their reuse gap, and a line's first key in the block is patched
    from the table.  Returns the histogram of the finite gaps written:
    gaps inside a block are below the block size and are counted with
    one ``bincount`` per block; only the gaps patched from the table go
    through ``np.unique``.
    """
    block = _FOLD_BLOCK
    offsets = np.arange(block, dtype=np.int64)
    intra = np.zeros(block, dtype=np.int64)
    cross: list[np.ndarray] = []
    # Block-sized scratch rows, reused by every block.
    line_row, key_row, step_row = np.empty((3, block), dtype=np.int64)
    edge_row = np.empty(block, dtype=bool)
    for lo in range(0, stream.size, block):
        part = stream[lo : lo + block]
        b = part.size
        line = np.right_shift(part, shift, out=line_row[:b])
        line -= low
        out = gaps[lo : lo + block]
        key = np.left_shift(line, _BLOCK_BITS, out=key_row[:b])
        key |= offsets[:b]
        key.sort()
        step = np.subtract(key[1:], key[:-1], out=step_row[: b - 1])
        key &= block - 1
        # Within a line the step is an offset difference, at most the next
        # offset; across lines it exceeds that.
        bounds = np.flatnonzero(np.greater(step, key[1:], out=edge_row[: b - 1]))
        step[bounds] = 0
        out[key[1:]] = step
        intra += np.bincount(step, minlength=block)
        first = key[np.concatenate(([0], bounds + 1))]
        last = key[np.append(bounds, b - 1)]
        prev = table[line[first]]
        seen = prev >= 0
        reuse = first + (start + lo) - prev
        out[first] = np.where(seen, reuse, GAP_COLD)
        cross.append(reuse[seen])
        table[line[last]] = last + (start + lo)
    intra[0] = 0  # line boundaries
    values = np.flatnonzero(intra)
    return add_histograms(
        (values, intra[values]),
        np.unique(np.concatenate(cross or [_EMPTY]), return_counts=True),
    )


def reuse_time_gaps(
    addrs: np.ndarray,
    line_shift: int = LINE_SHIFT,
    *,
    carry: LastSeen | None = None,
    start: int = 0,
) -> GapFold:
    """Per-access reuse time gaps at line granularity, with their histogram.

    The gap of an access is the number of accesses since the previous
    one to its line; ``GAP_COLD`` marks a first occurrence.  This is the
    fold the working-set model is built on, shared by
    :class:`WorkingSetCache` and the compiled reuse profiles of
    :mod:`repro.sim.reusepack`.  The gaps are **LLC-size-independent**:
    they depend only on the address stream and the line granularity,
    which is what lets one fold serve every capacity of a sweep.

    The stream is folded in blocks of ``_FOLD_BLOCK`` accesses against
    a dense last-seen table over its line span (see
    :func:`_fold_blocks`); a span too sparse for one
    (:func:`dense_span_fits`) is renumbered densely with ``np.unique``
    first and returns no state.  The result is a :class:`GapFold`.

    ``carry`` continues an earlier fold: it is the last-seen table
    after the ``start`` accesses that precede ``addrs`` (global
    positions), so first touches of lines seen there get their
    cross-boundary gap.  The carried table moves forward where it lies
    (a caller that must keep it passes a copy); a stream that widens
    the span gets a grown copy instead.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    gaps = np.empty(n, dtype=np.int64)
    if n == 0:
        return GapFold(gaps, _EMPTY, _EMPTY, carry)
    low, top = int(addrs.min()) >> line_shift, (int(addrs.max()) >> line_shift) + 1
    if carry is not None:
        base, table = carry
        low, top = min(low, base), max(top, base + table.size)
    if dense_span_fits(top - low, start + n):
        if carry is None:
            table = np.full(top - low, -1, dtype=np.int64)
        elif (low, top) != (base, base + table.size):
            grown = np.full(top - low, -1, dtype=np.int64)
            grown[base - low : base - low + table.size] = table
            table = grown
        values, counts = _fold_blocks(addrs, line_shift, low, table, start, gaps)
        return GapFold(gaps, values, counts, (low, table))
    # Too sparse for a table over the span: renumber the lines densely
    # and seed each one's last position from the carried table.
    uniq, ids = np.unique(addrs >> line_shift, return_inverse=True)
    seeds = np.full(uniq.size, -1, dtype=np.int64)
    if carry is not None:
        idx = uniq - base
        inside = (idx >= 0) & (idx < table.size)
        seeds[inside] = table[idx[inside]]
    values, counts = _fold_blocks(ids, 0, 0, seeds, start, gaps)
    return GapFold(gaps, values, counts, None)


#: Above this many accesses the int64 prefix of the finite gaps (each
#: smaller than the stream length) could overflow.
_MAX_SOLVE_ACCESSES = math.isqrt(int(GAP_COLD))


def window_threshold(
    values: np.ndarray, counts: np.ndarray, n: int, capacity_lines: int
) -> int:
    """The largest reuse gap that hits a working-set LLC of ``capacity_lines``.

    ``f(W) = sum_i min(gap_i, W)`` over the ``n`` gaps is piecewise
    linear and increasing; the window W* solves ``f(W*) = capacity * n``
    and an access hits iff its gap is at most W*.  Gaps are integers, so
    the solve needs only ``floor(W*)``, and it reads only the histogram
    of the finite gaps (ascending distinct ``values``, their ``counts``;
    the rest of the ``n`` are cold).  With ``K`` and ``S`` the int64
    prefix sums of the counts and of ``values * counts``,
    ``f(values[j]) = S[j - 1] + values[j] * (n - K[j - 1])``; the first
    ``j`` where that reaches ``capacity * n`` is a binary search of
    O(log m) scalar reads, and ``(capacity * n - S[j - 1]) // (n -
    K[j - 1])`` is the threshold.  A non-empty stream always has a cold
    gap, so the divisor is positive and the threshold is an ``int``
    (below ``GAP_COLD``); when the whole footprint fits it is at least
    the largest finite gap.  An empty stream gives 0.  The hit mask is
    ``gaps <= threshold``, an int64 compare.
    """
    t = int(n)
    target = int(capacity_lines) * t
    assert t <= _MAX_SOLVE_ACCESSES and target < GAP_COLD, (
        f"window solve over {t} accesses at {capacity_lines} lines "
        "overflows int64"
    )
    if t == 0:
        return 0
    below = np.cumsum(counts, dtype=np.int64)
    total = np.cumsum(values * counts, dtype=np.int64)

    def run_start(j: int) -> tuple[int, int]:
        return (int(below[j - 1]), int(total[j - 1])) if j else (0, 0)

    def f(j: int) -> int:
        k, p = run_start(j)
        return p + int(values[j]) * (t - k)

    k, p = run_start(bisect.bisect_left(range(values.size), target, key=f))
    return (target - p) // (t - k)


def _check_geometry(size_bytes: int, line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise ConfigurationError(f"line size must be a power of two, got {line_size}")
    if size_bytes <= 0 or size_bytes % line_size:
        raise ConfigurationError(
            f"cache size {size_bytes} must be a positive multiple of the "
            f"line size {line_size}"
        )
    return size_bytes // line_size


class WorkingSetCache:
    """LRU cache approximation via Denning's working-set model.

    A fully-associative LRU cache of C lines hits an access iff fewer than C
    *distinct* lines were touched since the previous access to the same line
    (the stack distance).  Computing exact stack distances is super-linear;
    the working-set model replaces them with plain reuse *time* gaps, using
    the identity that the average working-set size over windows of length W
    is ``s(W) = (1/T) * sum_i min(gap_i, W)`` (first occurrences count as
    W).  Solving ``s(W*) = C`` for the window W* and declaring a hit iff
    ``gap <= W*`` yields the classic LRU approximation.

    This captures what matters for the reproduction: streaming data hits
    only within a line (gap 1), hot vertices with short reuse gaps stay
    cached, and the cold tail misses — without per-access Python loops.
    It models a high-associativity LLC (the testbeds' 11-way L3), where
    conflict misses are rare enough to ignore.

    The model is evaluated per run (one ``hit_mask`` call = one run, cold
    start), so runs are independent and deterministic.
    """

    def __init__(self, size_bytes: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.capacity_lines = n_lines

    def reuse_gaps(self, addrs: np.ndarray) -> np.ndarray:
        """Per-access reuse time gap; :data:`GAP_COLD` marks a first
        occurrence (see :func:`reuse_time_gaps`)."""
        return reuse_time_gaps(addrs, self._line_shift).gaps

    def hit_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Boolean hit mask for one full run's address stream."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        fold = reuse_time_gaps(addrs, self._line_shift)
        threshold = window_threshold(
            fold.values, fold.counts, addrs.size, self.capacity_lines
        )
        return fold.gaps <= threshold
