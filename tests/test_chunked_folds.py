"""Chunked reuse folds and streamed store writes are bit-exact.

A sealed trace is one owned address buffer
(:meth:`repro.mem.trace.AccessTrace.seal`), so nothing in the package
folds a trace in chunks any more.  Two chunked paths remain and must
reproduce their one-shot twins *exactly* for every way a chunk boundary
can land (mid-phase, on a phase edge, one chunk swallowing the whole
trace, an empty tail): :func:`repro.sim.reusepack.fold_reuse_chunks`,
the named fold entry point the benchmark's layer wrappers patch, and
the trace store's write, which streams slices of the buffer.
"""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import LINE_SIZE
from repro.mem.trace import AccessKind, AccessTrace
from repro.sim import artifacts
from repro.sim.artifacts import TRACE, TRACE_WRITE_CHUNK_BYTES
from repro.sim.reusepack import (
    build_reuse_profile,
    fold_reuse_chunks,
    reuse_to_columnar,
)
from repro.sim.tracecache import trace_checksum


def make_trace(phase_sizes, seed=7) -> AccessTrace:
    """A trace with the given phase lengths and a graph-like address mix."""
    rng = np.random.default_rng(seed)
    trace = AccessTrace()
    for i, n in enumerate(phase_sizes):
        if i % 2:
            addrs = rng.integers(0, 1 << 20, size=n) * 8
            kind = AccessKind.RANDOM
        else:
            addrs = np.arange(i * 64, i * 64 + n * 8, 8, dtype=np.int64)
            kind = AccessKind.SEQUENTIAL
        trace.add(addrs, kind=kind, label=f"p{i}")
    return trace


phase_lists = st.lists(st.integers(min_value=0, max_value=257), max_size=6)
chunk_budgets = st.sampled_from((8, 16, 24, 72, 1 << 10, 1 << 20))


def buffer_slices(trace: AccessTrace, max_bytes: int) -> list[np.ndarray]:
    """The sealed buffer in program-order slices of at most ``max_bytes``."""
    flat = trace.all_addresses()
    step = max_bytes // 8
    return [flat[i : i + step] for i in range(0, flat.size, step)]


def same_profile(a, b) -> bool:
    """Bit-exact reuse-profile equality via the columnar serial form."""
    cols_a, meta_a = reuse_to_columnar(a)
    cols_b, meta_b = reuse_to_columnar(b)
    # tobytes, not array_equal: the columnar form uses NaN sentinels for
    # never-reused lines, and bit-exact means NaN == NaN here.
    return meta_a == meta_b and cols_a.tobytes() == cols_b.tobytes()


class TestChunkedReuseFold:
    @given(sizes=phase_lists, budget=chunk_budgets)
    @settings(max_examples=40, deadline=None)
    def test_fold_matches_one_shot_bit_exactly(self, sizes, budget):
        trace = make_trace(sizes)
        one_shot = build_reuse_profile(trace.all_addresses(), LINE_SIZE)
        chunked = fold_reuse_chunks(buffer_slices(trace, budget), LINE_SIZE)
        assert same_profile(chunked, one_shot)

    def test_empty_stream_folds_to_empty_profile(self):
        profile = fold_reuse_chunks(iter(()))
        empty = build_reuse_profile(np.empty(0, dtype=np.int64))
        assert same_profile(profile, empty)

    def test_empty_tail_chunks_are_ignored(self):
        trace = make_trace([64])
        chunks = buffer_slices(trace, 64) + [np.empty(0, dtype=np.int64)]
        folded = fold_reuse_chunks(iter(chunks))
        one_shot = build_reuse_profile(trace.all_addresses())
        assert same_profile(folded, one_shot)


class TestTraceChecksum:
    def test_crc_is_the_flat_byte_crc(self):
        trace = make_trace([33, 9])
        flat = np.ascontiguousarray(trace.all_addresses(), dtype=np.int64)
        assert trace_checksum(trace) == zlib.crc32(flat.view(np.uint8).data)


class TestStreamedStoreWrites:
    @given(sizes=phase_lists)
    @settings(max_examples=30, deadline=None)
    def test_encoded_chunks_are_zero_copy_slices(self, sizes):
        trace = make_trace(sizes)
        chunks, shape, record = TRACE.encode(trace, None)
        chunks = list(chunks)
        flat = trace.all_addresses()
        assert shape == flat.shape and record["total"] == flat.size
        assert all(np.shares_memory(c, flat) for c in chunks)
        assert all(c.nbytes <= TRACE_WRITE_CHUNK_BYTES for c in chunks)

    @given(sizes=phase_lists)
    @settings(max_examples=30, deadline=None)
    def test_encoded_chunks_reproduce_flat(self, sizes):
        trace = make_trace(sizes)
        chunks, _, _ = TRACE.encode(trace, None)
        chunks = list(chunks)
        flat = trace.all_addresses()
        joined = np.concatenate(chunks) if chunks else flat[:0]
        assert np.array_equal(joined, flat)

    def test_chunks_split_at_the_write_bound(self, monkeypatch):
        # Slices cut the buffer every 3 addresses, across phase edges.
        monkeypatch.setattr(artifacts, "TRACE_WRITE_CHUNK_BYTES", 24)
        trace = make_trace([4, 6])
        chunks, _, _ = TRACE.encode(trace, None)
        chunks = list(chunks)
        assert [c.size for c in chunks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate(chunks), trace.all_addresses())

    @given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_streamed_save_round_trips(self, sizes, tmp_path_factory):
        from repro.sim.tracestore import TraceStore

        trace = make_trace(sizes)
        root = tmp_path_factory.mktemp("chunkstore")
        store = TraceStore(root)
        assert store.save_trace(("k", tuple(sizes)), trace)
        loaded = store.load_trace(("k", tuple(sizes)))
        assert loaded is not None
        assert np.array_equal(loaded.all_addresses(), trace.all_addresses())
        assert [len(p) for p in loaded.phases] == [len(p) for p in trace.phases]

    def test_streamed_file_is_plain_npy(self, tmp_path):
        from repro.sim.tracestore import TRACE_ARRAY, TraceStore

        trace = make_trace([500, 77])
        store = TraceStore(tmp_path)
        store.save_trace("plain", trace)
        raw = np.load(store.entry_dir("plain") / TRACE_ARRAY)
        assert np.array_equal(raw, trace.all_addresses())
