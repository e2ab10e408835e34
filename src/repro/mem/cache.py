"""Last-level-cache simulators.

The LLC simulator turns an address stream into a per-access hit/miss mask.
It serves two roles in the reproduction:

1. The cost model charges memory time only for LLC misses (hits are folded
   into the compute term), so the miss mask determines execution time.
2. The ATMem profiler samples every k-th miss address, modelling PEBS
   configured on an LLC-miss event (paper Section 5.1).

Three models are provided:

- :class:`DirectMappedCache` — exact direct-mapped simulation, fully
  vectorised with NumPy (a stable sort groups accesses by set while
  preserving program order inside each set).
- :class:`SetAssociativeCache` — exact N-way LRU simulation with a Python
  per-set loop; used in tests and small studies to validate that the
  approximations do not change experiment shapes.
- :class:`WorkingSetCache` — the default LLC: Denning's working-set
  approximation of a high-associativity LRU cache, built on per-access
  reuse time gaps (:func:`reuse_time_gaps`).  That fold is one in-place
  sort of packed ``(line, position)`` int64 keys, and the window solve
  (:func:`window_threshold`) is an integer search over the sorted gaps;
  both are shared with the compiled reuse profiles of
  :mod:`repro.sim.reusepack`.

The exact simulators keep their state across calls so a multi-phase trace
is simulated as one continuous stream; the working-set model is evaluated
per run.
"""

from __future__ import annotations

import bisect
import math
import os

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
#: profile-priced runs against replay.
VERIFY_ENV = "REPRO_VERIFY"


def verify_armed() -> bool:
    """Whether ``REPRO_VERIFY`` arms the parity oracles."""
    return os.environ.get(VERIFY_ENV, "") not in ("", "0")

#: A last-seen table covers ``max - min + 1`` line slots; a stream whose
#: line span exceeds this multiple of its length is too sparse for one
#: (the bump allocator makes real traces dense, so this only trips on
#: synthetic adversaries) and carries no table.
_DENSE_SPAN_FACTOR = 8

#: Bits of an int64 sort key available to ``(line - base, position)``.
_KEY_BITS = 62


def dense_span_fits(span: int, n: int) -> bool:
    """Whether a last-seen table of ``span`` slots is dense enough for a
    stream of ``n`` accesses (small spans always are)."""
    return span <= max(1024, _DENSE_SPAN_FACTOR * n)


def _packed_fold(
    key: np.ndarray, base: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The reuse fold as one unstable sort of packed unique keys.

    ``key`` holds line numbers and is overwritten: it becomes
    ``(line - base) << bits | position``, sorted, then masked down to
    the positions.  Keys are unique, so the default (SIMD) sort puts
    them in exactly the order a stable argsort of the lines would, and
    sorted neighbours on one line differ by their reuse gap.  Returns
    the gaps and the indices ``j`` where ``key[j]`` is a line's last
    access (and ``key[j + 1]`` the next line's first).
    """
    n = key.size
    gaps = np.arange(n, dtype=np.int64)
    key -= base
    key <<= bits
    key |= gaps
    key.sort()
    step = key[1:] - key[:-1]
    key &= (1 << bits) - 1
    # Within a line the step is a position difference, at most the next
    # position; across lines it exceeds that by at least 2**bits - n + 1.
    bounds = np.flatnonzero(step > key[1:])
    gaps[key[1:]] = step
    del step
    gaps[key[0]] = GAP_COLD
    gaps[key[bounds + 1]] = GAP_COLD
    return gaps, bounds


def _argsort_fold(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable-argsort fold, for streams whose keys overflow an int64.

    Returns the gaps and the position of each line's last access.
    """
    n = lines.size
    gaps = np.full(n, GAP_COLD, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted = np.full(n, GAP_COLD, dtype=np.int64)
    gaps_sorted[1:][same] = order[1:][same] - order[:-1][same]
    gaps[order] = gaps_sorted
    return gaps, order[np.append(np.flatnonzero(~same), n - 1)]


def reuse_time_gaps(
    addrs: np.ndarray, line_shift: int = LINE_SHIFT, *, last_seen: bool = False
):
    """Per-access reuse time gap at line granularity; ``GAP_COLD`` marks a
    first occurrence.

    This is the fold the working-set model is built on, shared by
    :meth:`WorkingSetCache.reuse_gaps` and the compiled reuse profiles in
    :mod:`repro.sim.reusepack`.  The gaps are **LLC-size-independent**:
    they depend only on the address stream and the line granularity,
    which is what lets one fold serve every capacity of a sweep.

    One in-place sort of packed ``(line - base, position)`` keys does the
    work (O(N log N), vectorised); a stream whose line span and length
    overflow 62 key bits falls back to a stable argsort of the lines.
    Both give the same gaps bit for bit.

    With ``last_seen`` the result is ``(gaps, state)``: ``state`` is the
    fold's dense last-seen table ``(base, table)`` — ``table[line -
    base]`` is the position of the last access to ``line``, ``-1`` if
    never touched — or ``None`` when the stream is too sparse for one
    (:func:`dense_span_fits`).  The table lets later folds carry on
    from this one (:meth:`repro.sim.reusepack.ReuseProfile.extend`).
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    if n == 0:
        gaps = np.full(0, GAP_COLD, dtype=np.int64)
        return (gaps, None) if last_seen else gaps
    lines = addrs >> line_shift
    base = int(lines.min())
    span = int(lines.max()) - base + 1
    bits = (n - 1).bit_length()
    if (span - 1).bit_length() + bits > _KEY_BITS:
        gaps, last = _argsort_fold(lines)
    else:
        gaps, bounds = _packed_fold(lines, base, bits)
        # ``lines`` now holds positions in line order; a bound ends a line.
        last = lines[np.append(bounds, n - 1)] if last_seen else None
    if not last_seen:
        return gaps
    if not dense_span_fits(span, n):
        return gaps, None
    table = np.full(span, -1, dtype=np.int64)
    table[(addrs[last] >> line_shift) - base] = last
    return gaps, (base, table)


#: Above this many accesses the int64 prefix of the finite gaps (each
#: smaller than the stream length) could overflow.
_MAX_SOLVE_ACCESSES = math.isqrt(int(GAP_COLD))


def window_threshold(sorted_gaps: np.ndarray, capacity_lines: int) -> int | None:
    """The largest reuse gap that hits a working-set LLC of ``capacity_lines``.

    ``f(W) = sum_i min(gap_i, W)`` is piecewise linear and increasing;
    the window W* solves ``f(W*) = capacity * T`` and an access hits iff
    its gap is at most W*.  Gaps are integers, so the solve needs only
    ``floor(W*)``, and ``GAP_COLD`` sorts last, so it never reads a gap
    past the first cold one.  On the int64 prefix ``P`` of the ascending
    finite gaps, ``f(g_k) = P[k] + g_k * (T - 1 - k)``; the first ``k``
    with ``f(g_k) >= capacity * T`` is a binary search of O(log T)
    scalar reads, and ``(capacity * T - P[k - 1]) // (T - k)`` is the
    threshold.  Returns ``None`` when the whole footprint fits (every
    reuse hits).  The hit mask is ``gaps <= threshold``, an int64
    compare.
    """
    t = int(sorted_gaps.size)
    target = int(capacity_lines) * t
    assert t <= _MAX_SOLVE_ACCESSES and target < GAP_COLD, (
        f"window solve over {t} accesses at {capacity_lines} lines "
        "overflows int64"
    )
    cold = int(np.searchsorted(sorted_gaps, GAP_COLD))
    prefix = np.cumsum(sorted_gaps[:cold], dtype=np.int64)

    def f(k: int) -> int:
        return int(prefix[k]) + int(sorted_gaps[k]) * (t - 1 - k)

    k = bisect.bisect_left(range(cold), target, key=f)
    if k >= t:
        return None
    below = int(prefix[k - 1]) if k else 0
    return (target - below) // (t - k)


def _check_geometry(size_bytes: int, line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise ConfigurationError(f"line size must be a power of two, got {line_size}")
    if size_bytes <= 0 or size_bytes % line_size:
        raise ConfigurationError(
            f"cache size {size_bytes} must be a positive multiple of the "
            f"line size {line_size}"
        )
    return size_bytes // line_size


class DirectMappedCache:
    """Exact direct-mapped cache with vectorised access simulation."""

    def __init__(self, size_bytes: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        if n_lines & (n_lines - 1):
            raise ConfigurationError(
                f"direct-mapped cache needs a power-of-two line count, got {n_lines}"
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.n_sets = n_lines
        # Resident line number per set; -1 = empty.
        self._resident = np.full(n_lines, -1, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache (cold state)."""
        self._resident.fill(-1)

    def access(self, addrs: np.ndarray) -> np.ndarray:
        """Simulate the address stream; returns a boolean hit mask.

        The simulation is exact: access *i* hits iff the most recent access
        to its set (within this call or carried over from earlier calls)
        touched the same line.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        lines = addrs >> self._line_shift
        sets = lines & (self.n_sets - 1)
        # Stable sort groups same-set accesses while keeping program order.
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        sorted_lines = lines[order]
        hits_sorted = np.empty(addrs.size, dtype=bool)
        # Within a same-set run, hit iff previous access touched the same line.
        same_set_as_prev = np.empty(addrs.size, dtype=bool)
        same_set_as_prev[0] = False
        same_set_as_prev[1:] = sorted_sets[1:] == sorted_sets[:-1]
        hits_sorted[1:] = same_set_as_prev[1:] & (sorted_lines[1:] == sorted_lines[:-1])
        # Run heads compare against the carried-over resident line.
        heads = ~same_set_as_prev
        head_idx = np.nonzero(heads)[0]
        hits_sorted[head_idx] = (
            self._resident[sorted_sets[head_idx]] == sorted_lines[head_idx]
        )
        # Update state: the last access of each set run becomes resident.
        tails = np.empty(addrs.size, dtype=bool)
        tails[:-1] = sorted_sets[:-1] != sorted_sets[1:]
        tails[-1] = True
        tail_idx = np.nonzero(tails)[0]
        self._resident[sorted_sets[tail_idx]] = sorted_lines[tail_idx]
        hits = np.empty(addrs.size, dtype=bool)
        hits[order] = hits_sorted
        return hits


class SetAssociativeCache:
    """Exact N-way set-associative LRU cache.

    LRU state is strictly per set, so :meth:`access` groups the stream by
    set with a stable argsort (the same trick as
    :class:`DirectMappedCache`) and replays each set's accesses in program
    order against plain Python ints — an order of magnitude faster than
    the naive per-access loop, which survives as
    :meth:`access_reference` for parity testing.  Intended for tests and
    validation studies on traces up to a few million accesses.
    """

    def __init__(self, size_bytes: int, ways: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        if ways <= 0 or n_lines % ways:
            raise ConfigurationError(
                f"cache with {n_lines} lines cannot have {ways} ways"
            )
        n_sets = n_lines // ways
        if n_sets & (n_sets - 1):
            raise ConfigurationError(
                f"set-associative cache needs a power-of-two set count, got {n_sets}"
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.ways = ways
        self.n_sets = n_sets
        # Each set is an LRU-ordered list of line numbers (MRU last).
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]

    def reset(self) -> None:
        """Empty the cache (cold state)."""
        self._sets = [[] for _ in range(self.n_sets)]

    def access(self, addrs: np.ndarray) -> np.ndarray:
        """Simulate the address stream; returns a boolean hit mask.

        Exact: bit-identical to :meth:`access_reference`, including state
        carried across calls (each set's LRU list continues where the
        previous call left it).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        lines = addrs >> self._line_shift
        set_ids = lines & (self.n_sets - 1)
        order = np.argsort(set_ids, kind="stable")
        sorted_sets = set_ids[order]
        sorted_lines = lines[order]
        boundaries = np.nonzero(sorted_sets[1:] != sorted_sets[:-1])[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_sets.size]))
        hits_sorted = np.empty(addrs.size, dtype=bool)
        ways = self.ways
        for start, end in zip(starts.tolist(), ends.tolist()):
            bucket = self._sets[int(sorted_sets[start])]
            for offset, line in enumerate(sorted_lines[start:end].tolist(), start):
                try:
                    bucket.remove(line)
                    hits_sorted[offset] = True
                except ValueError:
                    hits_sorted[offset] = False
                    if len(bucket) >= ways:
                        bucket.pop(0)
                bucket.append(line)
        hits = np.empty(addrs.size, dtype=bool)
        hits[order] = hits_sorted
        return hits

    def access_reference(self, addrs: np.ndarray) -> np.ndarray:
        """The naive per-access loop, kept as the parity oracle."""
        addrs = np.asarray(addrs, dtype=np.int64)
        hits = np.empty(addrs.size, dtype=bool)
        mask = self.n_sets - 1
        shift = self._line_shift
        sets = self._sets
        ways = self.ways
        for i, addr in enumerate(addrs):
            line = int(addr) >> shift
            bucket = sets[line & mask]
            try:
                bucket.remove(line)
                hits[i] = True
            except ValueError:
                hits[i] = False
                if len(bucket) >= ways:
                    bucket.pop(0)
            bucket.append(line)
        return hits


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
    It models a high-associativity LLC (the testbeds' 11-way L3), unlike
    :class:`DirectMappedCache` whose conflict misses evict hot lines under
    streaming pressure.

    The model is evaluated per run (one ``hit_mask`` call = one run, cold
    start), so runs are independent and deterministic.
    """

    def __init__(self, size_bytes: int, line_size: int = LINE_SIZE) -> None:
        n_lines = _check_geometry(size_bytes, line_size)
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.capacity_lines = n_lines

    def reset(self) -> None:
        """No-op: the model is stateless across runs."""

    def reuse_gaps(self, addrs: np.ndarray) -> np.ndarray:
        """Per-access reuse time gap; :data:`GAP_COLD` marks a first
        occurrence (see :func:`reuse_time_gaps`)."""
        return reuse_time_gaps(addrs, self._line_shift)

    def hit_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Boolean hit mask for one full run's address stream."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        gaps = self.reuse_gaps(addrs)
        threshold = window_threshold(np.sort(gaps), self.capacity_lines)
        if threshold is None:
            return gaps < GAP_COLD
        return gaps <= threshold
