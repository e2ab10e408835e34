"""The unified observability plane: bus, metrics, tracer, and wiring.

Covers the contracts the rest of the harness now leans on:

- event-bus pub/sub semantics, including the drain/absorb shipping
  contract that carries worker events across the pool boundary;
- span nesting/ordering invariants and the Chrome trace-event export;
- tracer on/off parity — committed figures must be bit-identical with
  tracing enabled, because observation must not perturb the model;
- :class:`repro.mem.telemetry.TierTraffic` utilization edge cases;
- metrics snapshot determinism across two same-seed runs;
- pool-health classification under the cache schedule with retries and
  worker restarts, now merged from worker-buffered events;
- idempotent absorb — a worker obs blob delivered twice folds once.
"""

import json
import os

import pytest

import repro.graph.datasets as datasets_mod
import repro.sim.tracecache as tracecache_mod
from repro.config import nvm_dram_testbed
from repro.faults import (
    FAULT_PLAN_ENV,
    SITE_POOL_CRASH,
    SITE_POOL_EXIT,
    FaultPlan,
    FaultSpec,
    injected,
    reset,
)
from repro.mem.telemetry import TierTraffic
from repro.mem.tier import MemoryTier
from repro.obs import absorb_all, drain_all, reset_all
from repro.obs.bus import Event, EventBus, process_bus
from repro.obs.metrics import (
    MetricsRegistry,
    load_snapshot,
    process_metrics,
    render_snapshot,
)
from repro.obs.tracer import (
    TRACE_ENV,
    process_tracer,
    read_jsonl,
    span,
    to_chrome,
)
from repro.serve import ServiceConfig, generate_arrivals, serve_trace
from repro.sim.parallel import (
    JOB_BACKOFF_ENV,
    JOB_RETRIES_ENV,
    JOB_TIMEOUT_ENV,
    AppSpec,
    ExperimentPool,
    JobSpec,
    execute_job,
)

TINY_SCALE = 1 << 20


@pytest.fixture(autouse=True)
def _fresh_obs(monkeypatch):
    """Isolated obs state per test; tracing off unless a test arms it."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    for env in (FAULT_PLAN_ENV, JOB_TIMEOUT_ENV, JOB_RETRIES_ENV):
        monkeypatch.delenv(env, raising=False)
    monkeypatch.setenv(JOB_BACKOFF_ENV, "0")
    reset()
    reset_all()
    yield
    reset()
    reset_all()


def _cell_spec():
    return JobSpec(
        app=AppSpec.make("PR", "twitter", scale=TINY_SCALE),
        platform=nvm_dram_testbed(scale=512),
        flow="cell",
        placement="fast",
        tag="obs/PR/twitter",
    )


def _atmem_specs():
    platform = nvm_dram_testbed(scale=512)
    return [
        JobSpec(
            app=AppSpec.make(app, "twitter", scale=TINY_SCALE),
            platform=platform,
            flow="atmem",
            tag=f"obs/{app}",
        )
        for app in ("PR", "BFS")
    ]


def _config(**kw) -> ServiceConfig:
    kw.setdefault("platform", nvm_dram_testbed(scale=512))
    return ServiceConfig(**kw)


def _by_name(records, name):
    return [r for r in records if r.get("name") == name]


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_prefix_subscription_filters_kinds(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, prefix="pool.")
        bus.emit("pool.retry", "job 1")
        bus.emit("migration.commit", "obj")
        assert [e.kind for e in seen] == ["pool.retry"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit("a")
        unsubscribe()
        bus.emit("b")
        assert [e.kind for e in seen] == ["a"]

    def test_drain_empties_and_absorb_republishes(self):
        worker, parent = EventBus(), EventBus()
        worker.emit("pool.cache_use", "store", amount=1.0, source="pool")
        batch = [e.as_dict() for e in worker.drain()]
        assert len(worker) == 0
        seen = []
        parent.subscribe(seen.append, prefix="pool.")
        assert parent.absorb(batch) == 1
        assert seen[0].detail == "store"
        assert seen[0].amount == 1.0

    def test_event_dict_round_trip(self):
        event = Event("x", "d", amount=2.5, source="s", attrs={"k": 1})
        assert Event.from_dict(event.as_dict()) == event

    def test_buffer_is_bounded(self):
        bus = EventBus(buffer=4)
        for i in range(10):
            bus.emit(f"k{i}")
        assert len(bus) == 4
        assert [e.kind for e in bus] == ["k6", "k7", "k8", "k9"]


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestSpanInvariants:
    def _arm(self, monkeypatch, tmp_path):
        target = tmp_path / "run.trace"
        monkeypatch.setenv(TRACE_ENV, str(target))
        return target, process_tracer()

    def test_nesting_depth_and_close_order(self, monkeypatch, tmp_path):
        _, tracer = self._arm(monkeypatch, tmp_path)
        with span("outer", cat="t"):
            with span("inner", cat="t"):
                pass
        inner, outer = tracer.records
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["depth"] == outer["depth"] + 1
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_sibling_spans_are_ordered_and_same_depth(
        self, monkeypatch, tmp_path
    ):
        _, tracer = self._arm(monkeypatch, tmp_path)
        with span("a", cat="t"):
            pass
        with span("b", cat="t"):
            pass
        a, b = tracer.records
        assert a["depth"] == b["depth"] == 0
        assert a["ts"] + a["dur"] <= b["ts"]

    def test_exception_annotates_and_unwinds_depth(
        self, monkeypatch, tmp_path
    ):
        _, tracer = self._arm(monkeypatch, tmp_path)
        with pytest.raises(ValueError):
            with span("boom", cat="t"):
                raise ValueError("x")
        with span("after", cat="t"):
            pass
        boom, after = tracer.records
        assert boom["args"]["error"] == "ValueError"
        assert after["depth"] == 0

    def test_chrome_export_rebases_and_tags_phases(
        self, monkeypatch, tmp_path
    ):
        target, tracer = self._arm(monkeypatch, tmp_path)
        with span("work", cat="t"):
            tracer.instant("marker", cat="t")
        tracer.flush(target)
        payload = to_chrome(read_jsonl(target))
        events = payload["traceEvents"]
        assert min(e["ts"] for e in events) == 0.0
        assert {e["ph"] for e in events} == {"X", "i"}
        instant_event = next(e for e in events if e["ph"] == "i")
        assert instant_event["s"] == "t"
        assert all(0 <= e["tid"] < 2**31 for e in events)

    def test_off_means_no_records_and_null_span(self):
        tracer = process_tracer()
        assert not tracer.enabled
        with span("ignored", cat="t") as live:
            live.set(anything=1)
        assert tracer.records == []


class TestTracerParity:
    def test_figures_identical_with_tracing_on(self, monkeypatch, tmp_path):
        """Observation must not perturb the model: same bits either way."""
        spec = _cell_spec()
        off = execute_job(spec)
        reset_all()
        target = tmp_path / "cell.trace"
        monkeypatch.setenv(TRACE_ENV, str(target))
        reset_all()
        on = execute_job(spec)
        process_tracer().flush(target)
        for label in ("baseline", "reference", "atmem"):
            assert getattr(on, label).seconds == getattr(off, label).seconds
        assert on.atmem.data_ratio == off.atmem.data_ratio
        names = {r["name"] for r in read_jsonl(target)}
        assert {"phase.register", "phase.profile", "phase.analyze",
                "phase.migrate", "phase.measure", "executor.run"} <= names

    def test_pool_run_traces_dispatch_and_jobs(self, monkeypatch, tmp_path):
        target = tmp_path / "pool.trace"
        monkeypatch.setenv(TRACE_ENV, str(target))
        reset_all()
        pool = ExperimentPool(2)
        pool.run(_atmem_specs())
        process_tracer().flush(target)
        records = read_jsonl(target)
        names = [r["name"] for r in records]
        assert "pool.dispatch" in names
        jobs = [r for r in records if r["name"] == "pool.job"]
        assert len(jobs) >= 2
        if pool.last_mode.startswith("parallel"):
            parent_pid = {
                r["pid"] for r in records if r["name"] == "pool.dispatch"
            }
            assert {r["pid"] for r in jobs} - parent_pid, (
                "worker job spans should carry worker pids"
            )

    def test_retried_job_span_comes_home_in_the_blob(self, tmp_path, monkeypatch):
        target = tmp_path / "retry.trace"
        monkeypatch.setenv(TRACE_ENV, str(target))
        plan = FaultPlan((FaultSpec(SITE_POOL_CRASH, times=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        reset_all()
        pool = ExperimentPool(2)
        with injected(plan):
            pool.run(_atmem_specs())
        assert pool.health.retries >= 1
        process_tracer().flush(target)
        jobs = _by_name(read_jsonl(target), "pool.job")
        retried = [r for r in jobs if r["args"]["attempt"] >= 1]
        assert retried, "the retried job's span never came home"
        if pool.last_mode.startswith("parallel"):
            assert {r["pid"] for r in retried} != {os.getpid()}
        # The blob is the only channel home: no per-worker side files.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["retry.trace"]

    def test_tracing_off_keeps_serve_results_identical(
        self, tmp_path, monkeypatch
    ):
        jobs = generate_arrivals(12, seed=17)

        def fingerprint(report):
            return json.dumps(
                {
                    "statuses": report["statuses"],
                    "table": [
                        {"name": t["name"], "placements": t["placements"]}
                        for t in report["tenant_table"]
                    ],
                },
                sort_keys=True,
            )

        off = fingerprint(serve_trace(jobs, _config()))
        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "on.trace"))
        reset_all()
        on = fingerprint(serve_trace(jobs, _config()))
        assert off == on


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_merge_adds_counters_and_combines_timings(self):
        worker = MetricsRegistry()
        worker.inc("pool.retries", 2)
        worker.observe("job.wall", 0.5)
        parent = MetricsRegistry()
        parent.inc("pool.retries")
        parent.observe("job.wall", 1.5)
        parent.merge(worker.drain())
        assert parent.counters["pool.retries"] == 3
        timing = parent.timings["job.wall"]
        assert timing.count == 2
        assert timing.minimum == 0.5
        assert timing.maximum == 1.5
        assert worker.counters == {}

    def test_snapshot_write_and_load_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("a.b", 3)
        registry.gauge("a.g", 0.5)
        path = registry.write_snapshot(tmp_path / "m.json")
        loaded = load_snapshot(path)
        assert loaded["counters"] == {"a.b": 3.0}
        assert loaded["gauges"] == {"a.g": 0.5}

    def test_render_hides_wall_sums_by_default(self):
        registry = MetricsRegistry()
        registry.inc("n", 1)
        registry.observe("wall", 1.234)
        report = render_snapshot(registry.snapshot())
        assert "counts only" in report
        assert "1.234" not in report
        assert "1.234" in render_snapshot(registry.snapshot(), timings=True)

    def test_deterministic_snapshot_across_same_seed_runs(self, monkeypatch):
        # Both runs start cold (fresh process graph and trace caches), so
        # the counters cannot differ by cache hits that earlier tests or
        # the first run warmed.
        spec = _cell_spec()
        snapshots = []
        for _ in range(2):
            monkeypatch.setattr(datasets_mod, "_CACHE", {})
            monkeypatch.setattr(tracecache_mod, "_PROCESS_CACHE", None)
            reset_all()
            execute_job(spec)
            snapshots.append(process_metrics().deterministic_snapshot())
        first, second = snapshots
        assert first == second
        assert first["counters"]  # the run actually recorded something
        assert "stage.graph_build" in first["timing_counts"]  # and ran cold


class TestDrainAbsorb:
    def test_round_trip_moves_all_three_families(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "t.trace"))
        reset_all()
        process_bus().emit("pool.note", "hello", source="pool")
        process_metrics().inc("x", 2)
        with span("s", cat="t"):
            pass
        blob = drain_all()
        assert len(process_bus()) == 0
        assert process_metrics().counters == {}
        assert process_tracer().records == []
        absorb_all(blob)
        assert process_bus().count("pool.note") == 1
        assert process_metrics().counters["x"] == 2
        assert [r["name"] for r in process_tracer().records] == ["s"]

    def test_absorb_tolerates_empty_blob(self):
        absorb_all({})
        absorb_all(None)


class TestIdempotentAbsorb:
    def test_blob_absorbed_at_most_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "blob.trace"))
        reset_all()
        process_metrics().inc("pool.warm_jobs")
        with process_tracer().span("pool.job", cat="pool"):
            pass
        blob = drain_all()
        assert blob["blob_id"]
        assert absorb_all(blob) is True
        assert absorb_all(blob) is False
        snapshot = process_metrics().snapshot()
        assert snapshot["counters"]["pool.warm_jobs"] == 1
        assert len(_by_name(process_tracer().records, "pool.job")) == 1

    def test_blob_without_id_always_folds(self):
        blob = {"events": [], "metrics": {"counters": {"pool.retries": 1}}}
        assert absorb_all(blob) is True
        assert absorb_all(blob) is True
        assert process_metrics().snapshot()["counters"]["pool.retries"] == 2

    def test_empty_blob_is_a_noop(self):
        assert absorb_all({}) is False
        assert absorb_all(None) is False


# ----------------------------------------------------------------------
# tier traffic edge cases
# ----------------------------------------------------------------------
class TestTierTraffic:
    def _tier(self, amplification=1.0):
        return MemoryTier(
            name="T",
            capacity_bytes=None,
            read_latency_ns=100.0,
            write_latency_ns=100.0,
            read_bandwidth_gbps=10.0,
            write_bandwidth_gbps=10.0,
            single_thread_bandwidth_gbps=5.0,
            random_access_amplification=amplification,
        )

    def test_zero_duration_run_reports_zero_utilization(self):
        traffic = TierTraffic(tier=self._tier(), read_lines=1000)
        assert traffic.utilization(0.0) == 0.0
        assert traffic.utilization(-1.0) == 0.0

    def test_amplification_one_means_device_equals_line_bytes(self):
        traffic = TierTraffic(
            tier=self._tier(amplification=1.0),
            read_lines=100,
            random_lines=100,
        )
        assert traffic.device_bytes == traffic.bytes_moved

    def test_utilization_clamps_at_one(self):
        traffic = TierTraffic(tier=self._tier(), read_lines=10**9)
        assert traffic.utilization(1e-9) == 1.0

    def test_no_traffic_is_zero_everywhere(self):
        traffic = TierTraffic(tier=self._tier())
        assert traffic.bytes_moved == 0
        assert traffic.device_bytes == 0
        assert traffic.utilization(1.0) == 0.0


# ----------------------------------------------------------------------
# pool health under the cache schedule (worker-event merging)
# ----------------------------------------------------------------------
class TestPoolHealthCacheSchedule:
    def _run(self, monkeypatch, tmp_path, plan=None, runs=1):
        from repro.cachebudget import TRACE_STORE_ENV

        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        if plan is not None:
            monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        pools = []
        for _ in range(runs):
            pool = ExperimentPool(2)
            pool.run(_atmem_specs())
            pools.append(pool)
        return pools

    def test_every_job_classified_exactly_once(self, monkeypatch, tmp_path):
        (pool,) = self._run(monkeypatch, tmp_path)
        health = pool.health
        tallied = health.cold_jobs + health.warm_jobs + health.store_jobs
        assert tallied == 2, health.as_dict()

    def test_second_pool_serves_jobs_from_the_store(
        self, monkeypatch, tmp_path
    ):
        _, second = self._run(monkeypatch, tmp_path, runs=2)
        health = second.health
        assert health.cold_jobs == 0, health.as_dict()
        assert health.store_jobs + health.warm_jobs == 2

    def test_retried_jobs_keep_classification_exact(
        self, monkeypatch, tmp_path
    ):
        from repro.faults import injected

        plan = FaultPlan((FaultSpec(SITE_POOL_CRASH, times=0),))
        from repro.cachebudget import TRACE_STORE_ENV

        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        pool = ExperimentPool(2)
        with injected(plan):
            pool.run(_atmem_specs())
        health = pool.health
        assert health.retries >= 1
        tallied = health.cold_jobs + health.warm_jobs + health.store_jobs
        assert tallied == 2, (
            "a retried job must be cache-classified exactly once: "
            f"{health.as_dict()}"
        )

    def test_worker_restart_keeps_classification_exact(
        self, monkeypatch, tmp_path
    ):
        from repro.faults import injected

        plan = FaultPlan((FaultSpec(SITE_POOL_EXIT, times=0),))
        from repro.cachebudget import TRACE_STORE_ENV

        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        pool = ExperimentPool(2)
        with injected(plan):
            pool.run(_atmem_specs())
        health = pool.health
        if pool.last_mode.startswith("parallel"):
            assert health.pool_restarts >= 1
        tallied = health.cold_jobs + health.warm_jobs + health.store_jobs
        assert tallied == 2, health.as_dict()

    def test_worker_counters_arrive_via_bus_merge(
        self, monkeypatch, tmp_path
    ):
        (pool,) = self._run(monkeypatch, tmp_path)
        if not pool.last_mode.startswith("parallel"):
            pytest.skip("pool fell back to serial on this host")
        counters = process_metrics().counters
        assert counters.get("executor.runs", 0) > 0, (
            "worker metrics should merge into the parent registry"
        )
        assert process_bus().count("pool.cache_use") == 2
