"""Unit tests for access-trace containers."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mem.trace import AccessKind, AccessTrace, TracePhase, append_to_row
from repro.obs.metrics import process_metrics


def _counter(name: str) -> float:
    return process_metrics().counters.get(name, 0.0)


class TestTracePhase:
    def test_coerces_dtype(self):
        p = TracePhase(np.array([1, 2, 3], dtype=np.int32))
        assert p.addrs.dtype == np.int64

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            TracePhase(np.array([-1]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(TraceError):
            TracePhase(np.zeros((2, 2), dtype=np.int64))

    def test_len(self):
        assert len(TracePhase(np.arange(5))) == 5

    def test_defaults(self):
        p = TracePhase(np.arange(3))
        assert not p.is_write
        assert p.kind is AccessKind.RANDOM


class TestAccessTrace:
    def test_add_and_iterate(self):
        trace = AccessTrace()
        trace.add(np.arange(4), label="a")
        trace.add(np.arange(2), is_write=True, kind=AccessKind.SEQUENTIAL, label="b")
        labels = [p.label for p in trace]
        assert labels == ["a", "b"]
        assert trace.total_accesses == 6

    def test_add_drops_empty(self):
        trace = AccessTrace()
        trace.add(np.empty(0, dtype=np.int64))
        assert len(trace) == 0

    def test_all_addresses_preserves_order(self):
        trace = AccessTrace()
        trace.add(np.array([5, 6]))
        trace.add(np.array([1]))
        assert trace.all_addresses().tolist() == [5, 6, 1]

    def test_all_addresses_empty(self):
        trace = AccessTrace()
        addrs = trace.all_addresses()
        assert addrs.size == 0
        assert addrs.dtype == np.int64

    def test_appended(self):
        a = AccessTrace()
        a.add(np.array([1]))
        b = AccessTrace()
        b.add(np.array([2]))
        assert a.appended(b).all_addresses().tolist() == [1, 2]
        assert a.all_addresses().tolist() == [1]


class TestSealedTrace:
    """``all_addresses()`` seals a trace into one owned, read-only buffer."""

    @staticmethod
    def three_phase_trace() -> AccessTrace:
        trace = AccessTrace()
        trace.add(np.array([4, 5]), label="a")
        trace.add(np.array([6]), is_write=True, label="b")
        trace.add(np.array([7, 8, 9]), kind=AccessKind.SEQUENTIAL, label="c")
        return trace

    def test_phases_are_read_only_views_of_the_buffer(self):
        trace = self.three_phase_trace()
        flat = trace.all_addresses()
        assert flat.tolist() == [4, 5, 6, 7, 8, 9]
        assert not flat.flags.writeable
        assert isinstance(trace.phases, tuple)
        for phase in trace.phases:
            assert np.shares_memory(phase.addrs, flat)
            assert not phase.addrs.flags.writeable
        assert [p.label for p in trace] == ["a", "b", "c"]
        assert [p.is_write for p in trace] == [False, True, False]
        assert trace.phases[2].prefetchable

    def test_shifted_copy_is_sealed_and_leaves_the_original_open(self):
        trace = self.three_phase_trace()
        moved = trace.shifted(100)
        assert moved.all_addresses().tolist() == [104, 105, 106, 107, 108, 109]
        assert not moved.all_addresses().flags.writeable
        assert moved.phase_records() == trace.phase_records()
        trace.add(np.array([1]))  # the original was not sealed
        assert moved.shifted(-100).all_addresses().tolist() == [4, 5, 6, 7, 8, 9]

    def test_shift_below_zero_rejected(self):
        with pytest.raises(TraceError):
            self.three_phase_trace().shifted(-5)

    def test_unchanged_phases_reuse_cached_array(self):
        trace = self.three_phase_trace()
        first = trace.all_addresses()
        assert trace.all_addresses() is first
        assert trace.seal() is first

    def test_sealed_trace_rejects_growth(self):
        trace = self.three_phase_trace()
        trace.all_addresses()
        with pytest.raises(TraceError):
            trace.add(np.array([1]))
        assert trace.total_accesses == 6
        assert trace.all_addresses().tolist() == [4, 5, 6, 7, 8, 9]

    def test_sealed_phases_cannot_be_resized_in_place(self):
        trace = self.three_phase_trace()
        flat = trace.all_addresses()
        with pytest.raises(TypeError):
            del trace.phases[1]
        with pytest.raises(TypeError):
            trace.phases[0] = TracePhase(np.array([1]))
        with pytest.raises(AttributeError):
            trace.phases.append(TracePhase(np.array([1])))
        assert len(trace.phases) == 3
        assert trace.all_addresses() is flat

    def test_phase_addrs_cannot_be_reassigned(self):
        trace = self.three_phase_trace()
        trace.all_addresses()
        with pytest.raises(AttributeError):
            trace.phases[0].addrs = np.array([7, 8], dtype=np.int64)
        with pytest.raises(AttributeError):
            TracePhase(np.array([1])).addrs = np.array([2])

    def test_appending_leaves_the_appended_trace_open(self):
        source = self.three_phase_trace()
        arrays = [p.addrs for p in source.phases]
        head = AccessTrace()
        head.add(np.array([10]))
        grown = head.appended(source)
        assert grown.all_addresses().tolist() == [10, 4, 5, 6, 7, 8, 9]
        assert isinstance(source.phases, list)
        assert all(p.addrs is a for p, a in zip(source.phases, arrays))
        assert all(a.flags.writeable for a in arrays)
        assert source.all_addresses().tolist() == [4, 5, 6, 7, 8, 9]

    def test_from_columnar_copies_nothing(self):
        flat = np.arange(6, dtype=np.int64) * 8
        trace = AccessTrace.from_columnar(flat, self.three_phase_trace().phase_records())
        assert np.shares_memory(trace.all_addresses(), flat)
        assert all(np.shares_memory(p.addrs, flat) for p in trace.phases)
        assert not trace.all_addresses().flags.writeable
        assert [len(p) for p in trace.phases] == [2, 1, 3]
        with pytest.raises(TraceError):
            trace.add(np.array([1]))

    def test_sealing_retains_one_copy(self):
        """Sealing grows traced memory by far less than a second copy.

        The phase arrays are dropped as they are copied, so the net
        growth stays under the largest phase (a flat copy kept beside
        the phases would add ``8·n``).
        """
        sizes = (200_000, 300_000, 250_000)
        tracemalloc.start()
        try:
            trace = AccessTrace()
            for i, n in enumerate(sizes):
                trace.add(np.arange(n, dtype=np.int64) + i)
            before = tracemalloc.get_traced_memory()[0]
            trace.all_addresses()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 8 * max(sizes)
        assert trace.total_accesses == sum(sizes)


class TestChainRows:
    """``append_to_row``: prefix views of one append-only row."""

    @staticmethod
    def chunk(start: int, n: int = 4) -> np.ndarray:
        return np.arange(start, start + n, dtype=np.int64)

    def test_returns_a_read_only_prefix_view(self):
        view, row = append_to_row(self.chunk(0), None, self.chunk(10))
        assert view.tolist() == [0, 1, 2, 3, 10, 11, 12, 13]
        assert not view.flags.writeable
        assert np.shares_memory(view, row.buffer)
        assert row.used == view.size and row.buffer.size >= 2 * view.size
        with pytest.raises(ValueError):
            view[0] = 7

    def test_appends_at_the_tip_in_place(self):
        first, row = append_to_row(self.chunk(0), None, self.chunk(10))
        appends = _counter("chain.appends")
        second, same = append_to_row(first, row, self.chunk(20))
        assert same is row and _counter("chain.appends") == appends + 1
        assert np.shares_memory(first, second)
        assert second.tolist() == first.tolist() + self.chunk(20).tolist()

    def test_never_writes_below_the_used_length(self):
        short, row = append_to_row(self.chunk(0), None, self.chunk(10))
        longer, _ = append_to_row(short, row, self.chunk(20))
        kept = longer.copy()
        copies = _counter("chain.copies")
        # ``short`` no longer ends at the tip: a different delta must not
        # land over ``longer``'s bytes.
        other, fresh = append_to_row(short, row, self.chunk(30))
        assert fresh is not row and _counter("chain.copies") == copies + 1
        np.testing.assert_array_equal(longer, kept)
        assert other.tolist() == short.tolist() + self.chunk(30).tolist()
        assert row.used == longer.size

    def test_a_full_row_grows_into_a_fresh_one(self):
        view, row = append_to_row(self.chunk(0), None, self.chunk(10))
        expected = view.tolist()
        fresh = 0
        for start in range(20, 120, 10):
            view, grown = append_to_row(view, row, self.chunk(start))
            expected += self.chunk(start).tolist()
            fresh += grown is not row
            row = grown
        assert view.tolist() == expected
        assert 0 < fresh <= 3  # rows double: most appends are in place

    def test_appended_traces_share_one_row(self):
        base = TestSealedTrace.three_phase_trace()
        first = base.appended(TestSealedTrace.three_phase_trace())
        second = first.appended(TestSealedTrace.three_phase_trace())
        assert np.shares_memory(first.all_addresses(), second.all_addresses())
        assert not np.shares_memory(base.all_addresses(), first.all_addresses())
        assert second.all_addresses().tolist() == [4, 5, 6, 7, 8, 9] * 3
        assert second.phase_records() == base.phase_records() * 3
        assert all(
            np.shares_memory(p.addrs, second.all_addresses()) for p in second
        )
