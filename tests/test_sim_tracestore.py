"""The persistent trace store: layout, atomicity, integrity, budget.

The store's contract is that it is *invisible* in results: any mix of
cold builds, store loads, and memory hits must produce bit-identical
figures, and any corrupt entry (torn write, truncation, stale format)
must be rejected and rebuilt rather than trusted.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cachebudget import CACHE_BYTES_ENV, TRACE_STORE_ENV
from repro.config import nvm_dram_testbed
from repro.faults.chaos import committed_figures
from repro.faults.injector import injected
from repro.faults.plan import SITE_STORE_TORN, FaultPlan, FaultSpec
from repro.mem.cache import WorkingSetCache
from repro.mem.trace import AccessKind, AccessTrace
from repro.sim.parallel import AppSpec, JobSpec, execute_job
from repro.sim.tracecache import TraceCache, llc_signature
from repro.sim.reusepack import build_reuse_profile
from repro.sim.artifacts import MASK, PROFILE, REUSE, SPECS, TRACE
from repro.sim.profilepack import build_profile
from repro.errors import ConfigurationError
from repro.sim.tracestore import (
    STORE_POLICY_ENV,
    TRACE_ARRAY,
    TraceStore,
    process_trace_store,
    store_policy,
)

TINY_SCALE = 1 << 20


def small_trace(seed: int = 3) -> AccessTrace:
    rng = np.random.default_rng(seed)
    trace = AccessTrace()
    trace.add(
        rng.integers(0, 1 << 20, size=257),
        kind=AccessKind.SEQUENTIAL,
        is_write=True,
        label="offsets",
    )
    trace.add(
        rng.integers(0, 1 << 20, size=1031),
        kind=AccessKind.RANDOM,
        label="adjacency",
    )
    return trace


class TestTraceRoundtrip:
    def test_trace_survives_with_phases_intact(self, tmp_path):
        store = TraceStore(tmp_path)
        original = small_trace()
        assert store.save_trace("k1", original) is True
        assert store.has(TRACE, "k1")
        loaded = TraceStore(tmp_path).load_trace("k1")
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.all_addresses(), original.all_addresses()
        )
        assert len(loaded.phases) == len(original.phases)
        for got, want in zip(loaded.phases, original.phases):
            assert got.kind is want.kind
            assert got.is_write == want.is_write
            assert got.prefetchable == want.prefetchable
            assert got.label == want.label
            np.testing.assert_array_equal(got.addrs, want.addrs)

    def test_loaded_arrays_are_readonly_mmap_views(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        loaded = TraceStore(tmp_path).load_trace("k1")
        assert not loaded.phases[0].addrs.flags.writeable

    def test_save_is_idempotent(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.save_trace("k1", small_trace()) is True
        assert store.save_trace("k1", small_trace()) is False
        assert store.stats.trace_saves == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        llc = WorkingSetCache(1 << 14)
        mask = llc.hit_mask(small_trace().all_addresses())
        store.save_mask("k1", llc_signature(llc), mask)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_missing_key_loads_none(self, tmp_path):
        assert TraceStore(tmp_path).load_trace("nope") is None


class TestMaskRoundtrip:
    def test_mask_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        mask = llc.hit_mask(trace.all_addresses())
        assert store.save_mask("k1", sig, mask) is True
        loaded = TraceStore(tmp_path).load_mask("k1", sig, mask.size)
        np.testing.assert_array_equal(np.asarray(loaded), mask)

    def test_masks_are_stored_bit_packed(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        mask = llc.hit_mask(trace.all_addresses())
        store.save_mask("k1", llc_signature(llc), mask)
        array_path = store._paths(MASK, "k1", llc_signature(llc))[0]
        stored = np.load(array_path)
        assert stored.dtype == np.uint8
        assert stored.size == (mask.size + 7) // 8  # 8x smaller than bool

    def test_loaded_mask_is_readonly(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        mask = llc.hit_mask(trace.all_addresses())
        store.save_mask("k1", sig, mask)
        loaded = TraceStore(tmp_path).load_mask("k1", sig, mask.size)
        assert not loaded.flags.writeable

    def test_mask_length_mismatch_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        store.save_mask("k1", sig, llc.hit_mask(trace.all_addresses()))
        fresh = TraceStore(tmp_path)
        assert fresh.load_mask("k1", sig, 7) is None
        assert fresh.stats.rejects == 1
        # The bad mask pair is gone; the trace itself is untouched.
        assert not fresh.has(MASK, "k1", sig)
        assert fresh.load_trace("k1") is not None


class TestReuseRoundtrip:
    def test_reuse_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        profile = build_reuse_profile(trace.all_addresses())
        assert store.save_reuse("k1", profile.line_size, profile) is True
        assert store.has(REUSE, "k1", profile.line_size)
        loaded = TraceStore(tmp_path).load_reuse(
            "k1", profile.line_size, profile.n
        )
        np.testing.assert_array_equal(loaded.gaps, profile.gaps)
        np.testing.assert_array_equal(loaded.values, profile.values)
        np.testing.assert_array_equal(loaded.counts, profile.counts)

    def test_reuse_save_is_idempotent(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        profile = build_reuse_profile(trace.all_addresses())
        assert store.save_reuse("k1", profile.line_size, profile) is True
        assert store.save_reuse("k1", profile.line_size, profile) is False
        assert store.stats.reuse_saves == 1

    def test_corrupted_reuse_bytes_fail_crc(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        profile = build_reuse_profile(trace.all_addresses())
        store.save_reuse("k1", profile.line_size, profile)
        array_path = store._paths(REUSE, "k1", profile.line_size)[0]
        raw = bytearray(array_path.read_bytes())
        raw[-8] ^= 0xFF
        array_path.write_bytes(bytes(raw))
        fresh = TraceStore(tmp_path)
        assert fresh.load_reuse("k1", profile.line_size, profile.n) is None
        assert fresh.stats.rejects == 1


class TestReuseLayout:
    """Reuse artifact v4: gaps and their histogram as one int64 [n + 2m]."""

    def saved_profile(self, tmp_path):
        store = TraceStore(tmp_path)
        profile = build_reuse_profile(small_trace().all_addresses())
        assert store.save_reuse("k1", profile.line_size, profile) is True
        return store, profile

    def test_loaded_rows_are_readonly_int64_views(self, tmp_path):
        store, profile = self.saved_profile(tmp_path)
        stored = np.load(store._paths(REUSE, "k1", profile.line_size)[0])
        m = profile.values.size
        assert stored.dtype == np.int64 and stored.shape == (profile.n + 2 * m,)
        assert REUSE.nbytes(profile) == stored.nbytes == 8 * profile.n + 16 * m
        loaded = TraceStore(tmp_path).load_reuse(
            "k1", profile.line_size, profile.n
        )
        for row in (loaded.gaps, loaded.values, loaded.counts):
            assert row.dtype == np.int64
            assert not row.flags.writeable and not row.flags.owndata
        for size_bytes in (16 << 10, 32 << 10, 64 << 10, 128 << 10):
            llc = WorkingSetCache(size_bytes)
            np.testing.assert_array_equal(
                loaded.hit_mask_for(llc), profile.hit_mask_for(llc)
            )

    def assert_old_layout_ignored(self, tmp_path, version, array):
        # An entry of an older layout beside the current one is never read.
        store, profile = self.saved_profile(tmp_path)
        old = dataclasses.replace(REUSE, version=version)
        array_path, sidecar_path = store._paths(old, "k1", profile.line_size)
        np.save(array_path, array)
        current_sidecar = store._paths(REUSE, "k1", profile.line_size)[1]
        sidecar_path.write_text(current_sidecar.read_text())
        fresh = TraceStore(tmp_path)
        loaded = fresh.load_reuse("k1", profile.line_size, profile.n)
        np.testing.assert_array_equal(loaded.gaps, profile.gaps)
        current_sidecar.unlink()
        assert fresh.load_reuse("k1", profile.line_size, profile.n) is None
        assert fresh.stats.rejects == 0
        assert array_path.exists() and sidecar_path.exists()

    def test_v2_file_is_ignored(self, tmp_path):
        # The float64 [4, n + 1] layout with its window curve.
        n = small_trace().total_accesses
        self.assert_old_layout_ignored(
            tmp_path, 2, np.zeros((4, n + 1), dtype=np.float64)
        )

    def test_v3_file_is_ignored(self, tmp_path):
        # The int64 [2, n] layout: gaps and the N-long sorted row.
        gaps = build_reuse_profile(small_trace().all_addresses()).gaps
        self.assert_old_layout_ignored(tmp_path, 3, np.stack((gaps, np.sort(gaps))))


#: Each kind's sidecar field that sizes its array.
LENGTH_FIELD = {"trace": "total", "mask": "n", "profile": "nnz", "reuse": "n"}


def artifact_of(spec, trace):
    """``(sub-key, artifact, expected)`` of one kind, derived from ``trace``."""
    if spec is TRACE:
        return None, trace, None
    if spec is REUSE:
        profile = build_reuse_profile(trace.all_addresses())
        return profile.line_size, profile, profile.n
    llc = WorkingSetCache(1 << 14)
    mask = llc.hit_mask(trace.all_addresses())
    if spec is MASK:
        return llc_signature(llc), mask, mask.size
    profile = build_profile(trace, mask)
    return llc_signature(llc), profile, (len(trace.phases), trace.total_accesses)


def columnar(spec, sub, artifact):
    """An artifact's on-disk form: concatenated array bytes plus record."""
    chunks, _, record = spec.encode(artifact, sub)
    return np.concatenate([np.ravel(c) for c in chunks]), record


@pytest.fixture(params=SPECS, ids=lambda spec: spec.kind)
def saved(request, tmp_path):
    """One artifact of every kind, committed under key ``k1``."""
    spec = request.param
    sub, artifact, expected = artifact_of(spec, small_trace())
    store = TraceStore(tmp_path)
    assert store.save(spec, "k1", sub, artifact) is True
    return spec, sub, artifact, expected, store


class TestArtifactTable:
    """Every kind of the spec table through the one save/load path."""

    def reload(self, saved):
        spec, sub, _, expected, store = saved
        fresh = TraceStore(store.root)
        return fresh, fresh.load(spec, "k1", sub, expected)

    def assert_rejected(self, saved):
        spec, sub, _, _, _ = saved
        fresh, loaded = self.reload(saved)
        assert loaded is None
        assert fresh.stats.rejects == 1
        assert not fresh.has(spec, "k1", sub)  # dropped, ready to rebuild

    def test_round_trip(self, saved):
        spec, sub, artifact, _, store = saved
        assert store.has(spec, "k1", sub)
        fresh, loaded = self.reload(saved)
        got, got_record = columnar(spec, sub, loaded)
        want, want_record = columnar(spec, sub, artifact)
        np.testing.assert_array_equal(got, want)
        assert got_record == want_record
        assert getattr(fresh.stats, f"{spec.kind}_loads") == 1

    def test_save_is_idempotent(self, saved):
        spec, sub, artifact, _, store = saved
        assert store.save(spec, "k1", sub, artifact) is False
        assert getattr(store.stats, f"{spec.kind}_saves") == 1

    def test_flipped_byte_fails_crc(self, saved):
        spec, sub, _, _, store = saved
        array_path = store._paths(spec, "k1", sub)[0]
        raw = bytearray(array_path.read_bytes())
        raw[-1] ^= 0xFF
        array_path.write_bytes(bytes(raw))
        self.assert_rejected(saved)

    def test_truncated_array_rejected(self, saved):
        spec, sub, _, _, store = saved
        array_path = store._paths(spec, "k1", sub)[0]
        data = array_path.read_bytes()
        array_path.write_bytes(data[: len(data) // 2])
        self.assert_rejected(saved)

    def test_length_mismatch_rejected(self, saved):
        spec, sub, _, _, store = saved
        sidecar_path = store._paths(spec, "k1", sub)[1]
        sidecar = json.loads(sidecar_path.read_text())
        sidecar[LENGTH_FIELD[spec.kind]] += 1
        sidecar_path.write_text(json.dumps(sidecar))
        self.assert_rejected(saved)

    @pytest.mark.parametrize("bad", [None, "7", "missing"])
    def test_malformed_numeric_field_rejected(self, saved, bad):
        spec, sub, _, _, store = saved
        sidecar_path = store._paths(spec, "k1", sub)[1]
        sidecar = json.loads(sidecar_path.read_text())
        for field in (LENGTH_FIELD[spec.kind], "crc32"):
            tampered = dict(sidecar)
            if bad == "missing":
                del tampered[field]
            else:
                tampered[field] = bad
            sidecar_path.write_text(json.dumps(tampered))
            self.assert_rejected(saved)
            assert store.save(spec, "k1", sub, saved[2]) is True

    def test_artifact_of_another_trace_length_rejected(self, saved):
        spec, sub, _, expected, store = saved
        fresh = TraceStore(store.root)
        if spec is TRACE:
            # A trace is its own key's content: it fits every caller.
            assert fresh.load(spec, "k1", sub, 9) is not None
            return
        assert store.save_trace("k1", small_trace()) is True
        other = expected + 1 if isinstance(expected, int) else (
            expected[0], expected[1] + 1
        )
        assert fresh.load(spec, "k1", sub, other) is None
        assert fresh.stats.rejects == 1
        assert not fresh.has(spec, "k1", sub)  # dropped, ready to rebuild
        assert fresh.load_trace("k1") is not None  # the trace is untouched

    def test_other_format_version_is_never_found(self, saved):
        spec, sub, _, expected, store = saved
        other = dataclasses.replace(spec, version=spec.version + 1)
        fresh = TraceStore(store.root)
        assert fresh.load(other, "k1", sub, expected) is None
        assert fresh.stats.rejects == 0
        assert fresh.load(spec, "k1", sub, expected) is not None


class TestIntegrity:
    def test_truncated_array_fails_crc_and_is_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        array_path = store.entry_dir("k1") / TRACE_ARRAY
        data = array_path.read_bytes()
        array_path.write_bytes(data[: len(data) // 2])
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1
        assert not fresh.has(TRACE, "k1")  # dropped, ready for recompute

    def test_flipped_bytes_fail_crc(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        array_path = store.entry_dir("k1") / TRACE_ARRAY
        raw = bytearray(array_path.read_bytes())
        raw[-8] ^= 0xFF
        array_path.write_bytes(bytes(raw))
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1

    def test_torn_write_fault_commits_rejectable_entry(self, tmp_path):
        plan = FaultPlan((FaultSpec(SITE_STORE_TORN),), seed=11)
        store = TraceStore(tmp_path)
        with injected(plan) as injector:
            store.save_trace("k1", small_trace())
            assert len(injector.log) == 1
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1
        # After rejection a clean rewrite works.
        assert fresh.save_trace("k1", small_trace()) is True
        assert TraceStore(tmp_path).load_trace("k1") is not None


class TestConcurrency:
    def test_racing_writers_commit_one_valid_entry(self, tmp_path):
        # Two handles (standing in for two worker processes) save the
        # same deterministic artifact; temp names are unique per writer,
        # the last rename wins, and the survivor is valid.
        first, second = TraceStore(tmp_path), TraceStore(tmp_path)
        trace = small_trace()
        results = [first.save_trace("k1", trace), second.save_trace("k1", trace)]
        assert results == [True, False]
        loaded = TraceStore(tmp_path).load_trace("k1")
        np.testing.assert_array_equal(
            loaded.all_addresses(), trace.all_addresses()
        )

    def test_stale_temp_files_are_ignored_and_not_loaded(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        entry = store.entry_dir("k1")
        (entry / f".{TRACE_ARRAY}.9999.1.tmp").write_bytes(b"garbage")
        assert TraceStore(tmp_path).load_trace("k1") is not None


class TestBudget:
    def test_over_budget_entries_evicted_oldest_first(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_BYTES_ENV, "4096")
        store = TraceStore(tmp_path)
        store.save_trace("old", small_trace(seed=1))
        old_entry = store.entry_dir("old")
        os.utime(old_entry, (1, 1))  # make it the eviction candidate
        store.save_trace("new", small_trace(seed=2))
        assert not old_entry.exists()
        assert store.has(TRACE, "new")  # the just-written entry is protected

    def test_budget_disabled_keeps_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_BYTES_ENV, "0")
        store = TraceStore(tmp_path)
        store.save_trace("a", small_trace(seed=1))
        store.save_trace("b", small_trace(seed=2))
        assert store.has(TRACE, "a") and store.has(TRACE, "b")


class TestWritePolicy:
    @pytest.mark.parametrize(
        "raw, expected",
        [("", "adaptive"), (" Adaptive ", "adaptive"), ("never", "never"), ("nevr", None)],
    )
    def test_store_policy_env(self, tmp_path, monkeypatch, raw, expected):
        monkeypatch.setenv(STORE_POLICY_ENV, raw)
        if expected is not None:
            assert store_policy() == expected
            return
        # A typo must not silently fall through to persisting every write.
        with pytest.raises(ConfigurationError, match=STORE_POLICY_ENV):
            store_policy()
        with pytest.raises(ConfigurationError):
            TraceStore(tmp_path).should_persist(1)


class TestProcessStore:
    def test_env_binding_and_rebinding(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_STORE_ENV, raising=False)
        assert process_trace_store() is None
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "a"))
        first = process_trace_store()
        assert first is not None and first.root == tmp_path / "a"
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "b"))
        assert process_trace_store().root == tmp_path / "b"


class TestCacheIntegration:
    def test_memory_miss_falls_through_to_store(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        builds = []

        def builder():
            builds.append(1)
            return small_trace()

        writer = TraceCache(max_traces=2, store=store)
        writer.trace("k1", builder)
        assert builds == [1]
        reader = TraceCache(max_traces=2, store=TraceStore(tmp_path))
        loaded = reader.trace("k1", builder)
        assert builds == [1]  # served from the store, not rebuilt
        assert reader.stats.store_trace_hits == 1
        np.testing.assert_array_equal(
            loaded.all_addresses(), trace.all_addresses()
        )

    def test_figures_bit_identical_serial_cold_warm(self, tmp_path):
        spec = JobSpec(
            app=AppSpec.make("PR", "twitter", scale=TINY_SCALE),
            platform=nvm_dram_testbed(scale=512),
            flow="cell",
            placement="fast",
        )
        serial = committed_figures(
            execute_job(spec, trace_cache=TraceCache(store=None))
        )
        cold = committed_figures(
            execute_job(spec, trace_cache=TraceCache(store=TraceStore(tmp_path)))
        )
        warm_cache = TraceCache(store=TraceStore(tmp_path))
        warm = committed_figures(execute_job(spec, trace_cache=warm_cache))
        assert cold == serial
        assert warm == serial
        assert warm_cache.stats.store_trace_hits >= 1
        assert warm_cache.stats.store_mask_hits >= 1
