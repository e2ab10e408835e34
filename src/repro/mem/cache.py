"""Last-level-cache simulators.

The LLC simulator turns an address stream into a per-access hit/miss mask.
It serves two roles in the reproduction:

1. The cost model charges memory time only for LLC misses (hits are folded
   into the compute term), so the miss mask determines execution time.
2. The ATMem profiler samples every k-th miss address, modelling PEBS
   configured on an LLC-miss event (paper Section 5.1).

Two implementations are provided:

- :class:`DirectMappedCache` — exact direct-mapped simulation, fully
  vectorised with NumPy (a stable sort groups accesses by set while
  preserving program order inside each set).  This is the default for
  benchmark-scale traces (millions of accesses).
- :class:`SetAssociativeCache` — exact N-way LRU simulation with a Python
  per-access loop; used in tests and small studies to validate that the
  direct-mapped approximation does not change experiment shapes.

Both keep their state across calls so a multi-phase trace is simulated as one
continuous stream.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.mem.cachejit import lru_kernel, reuse_gap_kernel

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT

#: Reuse gap reported for the first access to a line (cold miss); matches
#: :data:`repro.mem.stack_distance.COLD` so cold sets line up across the
#: exact and approximate models.
GAP_COLD = np.iinfo(np.int64).max

#: Arms every parity oracle when set (and not ``0``): kernel-folded
#: reuse gaps and incremental reuse extensions are re-checked against
#: the argsort refold, reuse-derived hit masks against the direct
#: simulation, and profile-priced runs against replay.
VERIFY_ENV = "REPRO_VERIFY"


def verify_armed() -> bool:
    """Whether ``REPRO_VERIFY`` arms the parity oracles."""
    return os.environ.get(VERIFY_ENV, "") not in ("", "0")

#: The dense last-seen table covers ``max - min + 1`` line slots; a
#: stream whose line span exceeds this multiple of its length is too
#: sparse for the table (the bump allocator makes real traces dense, so
#: this only trips on synthetic adversaries) and folds via argsort.
_DENSE_SPAN_FACTOR = 8


def _argsort_reuse_gaps(lines: np.ndarray) -> np.ndarray:
    """The vectorised O(N log N) reuse fold: one stable argsort."""
    n = lines.size
    gaps = np.full(n, GAP_COLD, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted = np.full(n, GAP_COLD, dtype=np.int64)
    gaps_sorted[1:][same] = order[1:][same] - order[:-1][same]
    gaps[order] = gaps_sorted
    return gaps


def dense_table_span(lines: np.ndarray) -> tuple[int, int] | None:
    """``(base, span)`` of a last-seen table for ``lines``, or ``None``.

    ``None`` means the stream is too sparse for a dense table (span more
    than :data:`_DENSE_SPAN_FACTOR` times the access count) and callers
    must stay on the argsort path.
    """
    if lines.size == 0:
        return None
    base = int(lines.min())
    span = int(lines.max()) - base + 1
    if span > max(1024, _DENSE_SPAN_FACTOR * lines.size):
        return None
    return base, span


def _kernel_reuse_gaps(lines: np.ndarray) -> np.ndarray | None:
    """The O(N) last-seen fold, or ``None`` when it does not apply."""
    kernel = reuse_gap_kernel()
    if kernel is None:
        return None
    geometry = dense_table_span(lines)
    if geometry is None:
        return None
    base, span = geometry
    last_seen = np.full(span, -1, dtype=np.int64)
    gaps = np.empty(lines.size, dtype=np.int64)
    kernel(lines, base, last_seen, gaps, GAP_COLD, 0)
    return gaps


def reuse_time_gaps(addrs: np.ndarray, line_shift: int = LINE_SHIFT) -> np.ndarray:
    """Per-access reuse time gap at line granularity; ``GAP_COLD`` marks a
    first occurrence.

    This is the fold the working-set model is built on, shared by
    :meth:`WorkingSetCache.reuse_gaps` and the compiled reuse profiles in
    :mod:`repro.sim.reusepack`.  The gaps are **LLC-size-independent**:
    they depend only on the address stream and the line granularity,
    which is what lets one fold serve every capacity of a sweep.

    Two implementations with bit-identical output: when numba is
    importable (and ``REPRO_JIT`` allows it), an O(N) single pass over a
    dense last-seen table (:func:`repro.mem.cachejit.reuse_gaps_py`);
    otherwise one stable argsort over line numbers (O(N log N)).
    ``REPRO_VERIFY=1`` re-runs the argsort fold after every kernel
    fold and raises :class:`~repro.errors.TraceError` on divergence
    (``reuse.parity_checks`` / ``reuse.parity_failures`` metrics).
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    if n == 0:
        return np.full(0, GAP_COLD, dtype=np.int64)
    lines = addrs >> line_shift
    gaps = _kernel_reuse_gaps(lines)
    if gaps is None:
        return _argsort_reuse_gaps(lines)
    if verify_armed():
        _verify_reuse_gaps(gaps, lines)
    return gaps


def _verify_reuse_gaps(gaps: np.ndarray, lines: np.ndarray) -> None:
    """The reuse parity oracle: the argsort fold must agree bit-for-bit."""
    from repro.obs.metrics import process_metrics

    registry = process_metrics()
    registry.inc("reuse.parity_checks")
    direct = _argsort_reuse_gaps(lines)
    if not np.array_equal(gaps, direct):
        registry.inc("reuse.parity_failures")
        raise TraceError(
            "last-seen reuse fold diverged from the argsort fold: "
            f"{int(np.count_nonzero(gaps != direct))} of {gaps.size} "
            "gaps differ"
        )


def gap_window_curve(
    sorted_gaps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums and window-function samples of ascending float64 gaps.

    Returns ``(prefix, f_at_gap)`` where ``prefix[k]`` is the sum of the
    ``k`` smallest gaps and ``f_at_gap[k] = f(g_k)`` samples the
    piecewise-linear window function ``f(W) = sum_i min(gap_i, W)`` at
    the k-th gap value.  Both are capacity-independent, so one curve
    prices every LLC size (see :func:`solve_window_curve`).
    """
    t = sorted_gaps.size
    prefix = np.concatenate(([0.0], np.cumsum(sorted_gaps)))
    remaining = t - 1 - np.arange(t, dtype=np.float64)
    f_at_gap = prefix[1:] + sorted_gaps * remaining
    return prefix, f_at_gap


def solve_window_curve(
    prefix: np.ndarray, f_at_gap: np.ndarray, capacity_lines: int
) -> float:
    """Solve ``f(W*) = capacity * T`` on a precomputed curve in O(log T).

    The closed form of :meth:`WorkingSetCache.solve_window`, split from
    the per-trace sort so a cached curve answers any capacity without
    re-sorting.  Returns ``inf`` when the whole footprint fits.
    """
    t = f_at_gap.size
    if t == 0:
        return float("inf")
    target = float(capacity_lines) * t
    k = int(np.searchsorted(f_at_gap, target, side="left"))
    if k >= t:
        return float("inf")
    # Solve prefix[k] + W * (t - k) = target on [g[k-1], g[k]].
    denom = t - k
    if denom <= 0:
        return float("inf")
    return (target - prefix[k]) / denom


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
    :meth:`access_reference` for parity testing.  When numba is
    installed (optional — see :mod:`repro.mem.cachejit`) the per-set
    replay runs as a compiled kernel over flat int64 state with
    bit-identical semantics; without it the Python loop is used.
    Intended for tests and validation studies on traces up to a few
    million accesses.
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
        kernel = lru_kernel()
        if kernel is not None:
            # Serialise only the touched sets into a compact (runs, ways)
            # matrix, replay in compiled code, and write the LRU lists
            # back — the Python lists stay the canonical state so the
            # fallback path and access_reference stay interchangeable.
            touched = sorted_sets[starts].tolist()
            n_runs = starts.size
            state = np.zeros((n_runs, ways), dtype=np.int64)
            fill = np.zeros(n_runs, dtype=np.int64)
            for row, set_id in enumerate(touched):
                bucket = self._sets[set_id]
                if bucket:
                    fill[row] = len(bucket)
                    state[row, : len(bucket)] = bucket
            compact = np.repeat(np.arange(n_runs, dtype=np.int64), ends - starts)
            kernel(compact, sorted_lines, starts, ends, state, fill, ways, hits_sorted)
            for row, set_id in enumerate(touched):
                self._sets[set_id] = state[row, : fill[row]].tolist()
        else:
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

    def solve_window(self, gaps: np.ndarray) -> float:
        """The window W* with average working-set size = cache capacity.

        ``f(W) = sum_i min(gap_i, W)`` is piecewise linear and increasing;
        solve ``f(W) = C * T`` on the sorted gaps in closed form.  Returns
        ``inf`` when the whole footprint fits (every reuse hits).
        """
        sorted_gaps = np.sort(gaps).astype(np.float64)
        prefix, f_at_gap = gap_window_curve(sorted_gaps)
        return solve_window_curve(prefix, f_at_gap, self.capacity_lines)

    def hit_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Boolean hit mask for one full run's address stream."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return np.empty(0, dtype=bool)
        gaps = self.reuse_gaps(addrs)
        window = self.solve_window(gaps)
        if np.isinf(window):
            return gaps < GAP_COLD
        return gaps <= window
