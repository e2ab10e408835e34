"""Unit and property tests for the reuse fold under the LLC model.

The key property: the blocked reuse fold must agree exactly with a
one-sort reference fold, because every hit mask, and so the profiler's
sample stream, is derived from its gaps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import cache as cache_module
from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    dense_span_fits,
    reuse_time_gaps,
    window_threshold,
)

#: Accesses per block of the blocked reuse fold.
BLOCK = cache_module._FOLD_BLOCK


def reference_reuse_gaps(addrs, line_shift=6):
    """The reuse fold as one stable argsort of the line numbers."""
    lines = np.asarray(addrs, dtype=np.int64) >> line_shift
    n = lines.size
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted = np.full(n, GAP_COLD, dtype=np.int64)
    gaps_sorted[1:][same] = order[1:][same] - order[:-1][same]
    gaps = np.empty(n, dtype=np.int64)
    gaps[order] = gaps_sorted
    return gaps


def reference_last_seen(addrs, line_shift=6):
    """``(base, table)``: the latest position per line via ``np.maximum.at``."""
    lines = np.asarray(addrs, dtype=np.int64) >> line_shift
    base = int(lines.min())
    table = np.full(int(lines.max()) - base + 1, -1, dtype=np.int64)
    np.maximum.at(table, lines - base, np.arange(lines.size, dtype=np.int64))
    return base, table


def global_packed_fold(addrs, line_shift=6):
    """The fold the blocked one replaced: one sort over the whole stream.

    Packs ``(line - base) << bits | position`` for every access into
    unique int64 keys, sorts them once, and reads the gaps off sorted
    neighbours; a stream whose keys overflow 62 bits takes the stable
    argsort of :func:`reference_reuse_gaps`.  Returns ``(gaps, state)``
    with ``state`` the dense last-seen table, or ``None`` when the span
    is too sparse for one.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    if n == 0:
        return np.full(0, GAP_COLD, dtype=np.int64), None
    key = addrs >> line_shift
    base = int(key.min())
    span = int(key.max()) - base + 1
    bits = (n - 1).bit_length()
    if (span - 1).bit_length() + bits > 62:
        gaps = reference_reuse_gaps(addrs, line_shift)
    else:
        gaps = np.arange(n, dtype=np.int64)
        key -= base
        key <<= bits
        key |= gaps
        key.sort()
        step = key[1:] - key[:-1]
        key &= (1 << bits) - 1
        bounds = np.flatnonzero(step > key[1:])
        gaps[key[1:]] = step
        gaps[key[0]] = GAP_COLD
        gaps[key[bounds + 1]] = GAP_COLD
    if not dense_span_fits(span, n):
        return gaps, None
    return gaps, reference_last_seen(addrs, line_shift)


def sorted_row_threshold(sorted_gaps, capacity_lines):
    """The window solve over the N-long ascending gap row it replaced.

    ``None`` when no index qualifies past the last gap (an empty row).
    """
    t = int(sorted_gaps.size)
    target = int(capacity_lines) * t
    cold = int(np.searchsorted(sorted_gaps, GAP_COLD))
    prefix = np.cumsum(sorted_gaps[:cold], dtype=np.int64)
    f_at = prefix + sorted_gaps[:cold] * (t - 1 - np.arange(cold))
    k = int(np.searchsorted(f_at, target, side="left"))
    if k >= t:
        return None
    below = int(prefix[k - 1]) if k else 0
    return (target - below) // (t - k)


def sorted_row_mask(gaps, capacity_lines):
    """Hit mask of the global fold's gaps under the sorted-row solve."""
    threshold = sorted_row_threshold(np.sort(gaps), capacity_lines)
    return gaps < GAP_COLD if threshold is None else gaps <= threshold


def assert_matches_global_fold(fold, addrs, capacities, line_shift=6):
    """``fold`` equals the global packed fold of ``addrs`` in every output:
    gaps, histogram, last-seen table, thresholds and hit masks."""
    gaps, state = global_packed_fold(addrs, line_shift)
    np.testing.assert_array_equal(fold.gaps, gaps)
    values, counts = np.unique(gaps[gaps < GAP_COLD], return_counts=True)
    np.testing.assert_array_equal(fold.values, values)
    np.testing.assert_array_equal(fold.counts, counts)
    if state is None:
        assert fold.state is None
    else:
        assert fold.state[0] == state[0]
        np.testing.assert_array_equal(fold.state[1], state[1])
    sorted_gaps = np.sort(gaps)
    for capacity in capacities:
        want = sorted_row_threshold(sorted_gaps, capacity)
        got = window_threshold(fold.values, fold.counts, gaps.size, capacity)
        assert type(got) is int
        assert got == want, f"capacity {capacity}"
        np.testing.assert_array_equal(
            fold.gaps <= got, sorted_row_mask(gaps, capacity)
        )


class TestReuseGapKernel:
    """The blocked reuse fold must be bit-identical to a stable argsort.

    :func:`reference_reuse_gaps` is the stable-argsort fold and
    :func:`reference_last_seen` the ``np.maximum.at`` table the fold's
    ``state`` must equal.
    """

    def test_first_touches_are_cold(self):
        addrs = np.array([0, LINE_SIZE, 2 * LINE_SIZE], dtype=np.int64)
        assert reuse_time_gaps(addrs).gaps.tolist() == [GAP_COLD] * 3

    def test_repeat_gap_counts_accesses(self):
        # a . . a  ->  the second touch of `a` has gap 3.
        addrs = np.array([0, 64, 128, 0], dtype=np.int64) * LINE_SIZE
        fold = reuse_time_gaps(addrs)
        assert fold.gaps.tolist() == [GAP_COLD, GAP_COLD, GAP_COLD, 3]
        assert (fold.values.tolist(), fold.counts.tolist()) == ([3], [1])

    def test_empty_and_single_access(self):
        fold = reuse_time_gaps(np.empty(0, dtype=np.int64))
        assert fold.gaps.size == 0 and fold.values.size == 0
        assert fold.state is None
        single = reuse_time_gaps(np.array([4096], dtype=np.int64))
        assert single.gaps.tolist() == [GAP_COLD]
        assert single.values.size == 0 and single.counts.size == 0
        base, table = single.state
        assert base == 4096 >> 6 and table.tolist() == [0]

    @given(
        addrs=st.lists(
            st.one_of(st.integers(0, 1 << 14), st.integers(0, 1 << 40)),
            min_size=0,
            max_size=400,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_argsort_fold(self, addrs):
        arr = np.array(addrs, dtype=np.int64)
        assert np.array_equal(reuse_time_gaps(arr).gaps, reference_reuse_gaps(arr))

    @given(
        pool=st.lists(
            st.integers(0, (1 << 63) - 1), min_size=1, max_size=40
        ),
        picks=st.lists(st.integers(0, 1 << 10), min_size=40, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_sparse_stream_takes_renumbering_path(self, pool, picks):
        # The stream spans 57 line bits: far too sparse for a last-seen
        # table, so the block loop must run over densely renumbered
        # lines — and agree with the reference.
        ends = [0, (1 << 63) - 1]
        arr = np.array(
            ends + [pool[i % len(pool)] for i in picks], dtype=np.int64
        )
        streams = []
        blocks = cache_module._fold_blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                cache_module,
                "_fold_blocks",
                lambda stream, *rest: streams.append(stream.copy())
                or blocks(stream, *rest),
            )
            fold = reuse_time_gaps(arr)
        distinct = np.unique(arr >> 6).size
        assert len(streams) == 1 and int(streams[0].max()) == distinct - 1
        assert fold.state is None
        assert np.array_equal(fold.gaps, reference_reuse_gaps(arr))

    @given(
        addrs=st.lists(
            st.one_of(st.integers(0, 1 << 16), st.integers(0, 1 << 30)),
            min_size=1,
            max_size=300,
        ),
        line_shift=st.sampled_from([0, 3, 6]),
    )
    @settings(max_examples=80, deadline=None)
    def test_last_seen_table_matches_maximum_at(self, addrs, line_shift):
        arr = np.array(addrs, dtype=np.int64)
        fold = reuse_time_gaps(arr, line_shift)
        assert np.array_equal(fold.gaps, reference_reuse_gaps(arr, line_shift))
        lines = arr >> line_shift
        span = int(lines.max()) - int(lines.min()) + 1
        if not dense_span_fits(span, arr.size):
            assert fold.state is None
            return
        base, table = reference_last_seen(arr, line_shift)
        assert fold.state[0] == base
        assert np.array_equal(fold.state[1], table)

    def test_dense_span_geometry(self):
        # Small spans are always dense (the 1024-slot floor) ...
        assert dense_span_fits(1024, 1)
        assert not dense_span_fits(1025, 1)
        # ... larger ones may cover up to 8 slots per access.
        assert dense_span_fits(8 * 4096, 4096)
        assert not dense_span_fits(8 * 4096 + 1, 4096)
        lines = np.array([7, 9], dtype=np.int64)
        base, table = reuse_time_gaps(lines, 0).state
        assert (base, table.tolist()) == (7, [0, -1, 1])
        sparse = reuse_time_gaps(np.array([0, 1 << 40], dtype=np.int64), 0)
        assert sparse.state is None


def block_stream(pattern: str, n: int, seed: int) -> np.ndarray:
    """``n`` byte addresses whose line reuse follows ``pattern``."""
    rng = np.random.default_rng(seed)
    pos = np.arange(n, dtype=np.int64)
    if pattern == "within":  # a small pool: most reuse inside one block
        lines = rng.integers(0, 48, size=n)
    elif pattern == "boundary":  # a sliding window: reuse spans one boundary
        lines = pos // 97 + rng.integers(0, 3, size=n)
    elif pattern == "many":  # a hot pool touched a few times per block
        lines = pos + 1000
        hot = rng.choice(n, size=max(1, n // 5000), replace=False)
        lines[hot] = rng.integers(0, 4, size=hot.size)
    elif pattern == "one-line":
        lines = np.zeros(n, dtype=np.int64)
    elif pattern == "distinct":
        lines = pos
    elif pattern == "sparse":  # a span too wide for a last-seen table
        pool = rng.integers(0, 1 << 40, size=64)
        lines = pool[rng.integers(0, pool.size, size=n)]
    else:  # "mixed": a stream, a hot set and random lines
        lines = np.where(
            rng.random(n) < 0.5, pos // 8, rng.integers(0, 1 << 12, size=n)
        )
    return (lines << 6) | rng.integers(0, 64, size=n)


#: Stream lengths around the block size: B - 1, B, B + 1 and k·B + r.
block_lengths = st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]) | st.builds(
    lambda k, r: k * BLOCK + r, st.integers(1, 3), st.integers(0, BLOCK - 1)
)
block_patterns = st.sampled_from(
    ["within", "boundary", "many", "one-line", "distinct", "sparse", "mixed"]
)


class TestBlockedFoldMatchesGlobalFold:
    """The blocked fold against the global packed-key fold it replaced:
    gaps, ``(values, counts)``, last-seen table, threshold and mask."""

    @given(
        pattern=block_patterns,
        n=block_lengths,
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_streams(self, pattern, n, seed, data):
        addrs = block_stream(pattern, n, seed)
        fold = reuse_time_gaps(addrs)
        finite = fold.gaps[fold.gaps < GAP_COLD]
        # Capacity 1, capacities tied to a gap value, and all-fit.
        capacities = [1, 64, 10**9]
        if finite.size:
            capacities.append(int(data.draw(st.sampled_from(finite.tolist()))))
        assert_matches_global_fold(fold, addrs, capacities)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_boundary_lengths(self, n):
        for pattern in ("within", "boundary", "many", "sparse"):
            addrs = block_stream(pattern, n, seed=n)
            assert_matches_global_fold(reuse_time_gaps(addrs), addrs, (1, 16, 10**9))

    def test_reuse_across_exactly_one_boundary(self):
        # Line 1 last touched at the block's final offset, reused first
        # thing in the next block: a cross-block gap of 1.
        lines = np.arange(2 * BLOCK, dtype=np.int64) + 10
        lines[BLOCK - 1] = lines[BLOCK] = 1
        addrs = lines << 6
        fold = reuse_time_gaps(addrs)
        assert fold.gaps[BLOCK] == 1
        assert (fold.values.tolist(), fold.counts.tolist()) == ([1], [1])
        assert_matches_global_fold(fold, addrs, (1, 2, 10**9))

    def test_one_line_stream_and_all_distinct_stream(self):
        same = np.zeros(2 * BLOCK + 3, dtype=np.int64)
        fold = reuse_time_gaps(same)
        assert (fold.values.tolist(), fold.counts.tolist()) == ([1], [same.size - 1])
        assert_matches_global_fold(fold, same, (1, 10**9))
        distinct = np.arange(2 * BLOCK + 3, dtype=np.int64) << 6
        fold = reuse_time_gaps(distinct)
        assert fold.values.size == 0 and (fold.gaps == GAP_COLD).all()
        assert_matches_global_fold(fold, distinct, (1, 10**9))

    def test_carried_fold_continues_the_block_loop(self):
        # Folding a stream in two calls, the second carrying the first's
        # table, gives the second half of the one-shot gaps.
        addrs = block_stream("mixed", 2 * BLOCK + 77, seed=3)
        cut = BLOCK + 41
        head = reuse_time_gaps(addrs[:cut])
        tail = reuse_time_gaps(addrs[cut:], carry=head.state, start=cut)
        whole = reuse_time_gaps(addrs)
        np.testing.assert_array_equal(
            np.concatenate([head.gaps, tail.gaps]), whole.gaps
        )
        assert tail.state[0] == whole.state[0]
        np.testing.assert_array_equal(tail.state[1], whole.state[1])
