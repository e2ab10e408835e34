"""Tests for the resident serving layer (:mod:`repro.serve`).

The robustness contracts under test:

- **admission-order fairness** — the bounded queue is FIFO: jobs settle
  in submission order, no tenant starves another by arriving first in a
  burst;
- **deadline rollback** — an expired admission leaves the allocator and
  page table bit-identical to the pre-admit snapshot (the transactional
  migrator plus ``depart`` undo everything);
- **tiered shedding** — overload degrades service (stale reads, typed
  rejections) without perturbing committed state;
- **circuit breaker** — repeated per-tenant failures trip a breaker
  whose deterministic jittered backoff rejects fast, then recovers;
- **journal recovery** — warm state survives a kill and replays through
  torn-line and corrupt-checkpoint damage.
"""

import asyncio
import json

import pytest

from repro.config import nvm_dram_testbed
from repro.errors import ReproError
from repro.obs.metrics import LatencyTracker
from repro.serve import (
    OP_ADMIT,
    OP_DEPART,
    OP_MEASURE,
    OP_PHASE_CHANGE,
    AdmissionRejected,
    BreakerPolicy,
    PlacementService,
    QoS,
    ServiceConfig,
    ServiceJournal,
    ShedPolicy,
    TenantJob,
    generate_arrivals,
    serve_trace,
)
from repro.sim.parallel import AppSpec
from repro.sim.tracecache import TraceCache

TINY = 1 << 20  # datasets collapse to their floor size: fast tests


class StepClock:
    """Manually advanced clock so deadlines and backoffs are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _config(**kw) -> ServiceConfig:
    kw.setdefault("platform", nvm_dram_testbed(scale=512))
    return ServiceConfig(**kw)


def _app(app: str = "PR", dataset: str = "twitter") -> AppSpec:
    return AppSpec.make(app, dataset, scale=TINY)


def _state_fingerprint(system) -> tuple:
    """Allocator + page-table state, comparable across points in time."""
    return tuple(
        (
            allocator.used_bytes,
            tuple(sorted(system.address_space.mapped_frames_on(tier))),
        )
        for tier, allocator in enumerate(system.allocators)
    )


class TestRequests:
    def test_unknown_op_rejected(self):
        with pytest.raises(ReproError):
            TenantJob("defragment", "a")

    def test_admit_requires_app(self):
        with pytest.raises(ReproError):
            TenantJob(OP_ADMIT, "a")

    def test_job_round_trips_through_json(self):
        job = TenantJob(
            OP_ADMIT,
            "a",
            app=_app(),
            qos=QoS(reserve_fast_bytes=4096, deadline_s=2.5),
        )
        clone = TenantJob.from_json(job.to_json())
        assert clone.op == job.op and clone.tenant == job.tenant
        assert clone.qos == job.qos
        assert clone.app.trace_key() == job.app.trace_key()


class TestAppSpecJson:
    def test_round_trip_preserves_trace_key(self):
        spec = _app("BFS", "rmat24")
        clone = AppSpec.from_json(spec.to_json())
        assert clone.trace_key() == spec.trace_key()
        assert clone == spec


class TestLatencyTracker:
    def test_percentiles_nearest_rank(self):
        tracker = LatencyTracker()
        for v in range(1, 101):  # 1..100 ms
            tracker.observe(v / 1000)
        assert tracker.percentile(50) == pytest.approx(0.050)
        assert tracker.percentile(99) == pytest.approx(0.099)
        assert tracker.summary()["max"] == pytest.approx(0.100)

    def test_empty_tracker_reports_zeros(self):
        assert LatencyTracker().summary() == {
            "count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0,
            "samples_dropped": 0,
        }

    def test_cap_reservoir_keeps_true_count_and_max(self):
        tracker = LatencyTracker(cap=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            tracker.observe(v)
        assert len(tracker) == 4  # true observation count, not reservoir size
        summary = tracker.summary()
        assert summary["count"] == 4
        assert summary["max"] == 4.0  # exact even if 4.0 lost the coin flip
        assert summary["samples_dropped"] == 1

    def test_cap_reservoir_is_deterministic(self):
        def _filled():
            tracker = LatencyTracker(cap=50)
            for v in range(1, 1001):
                tracker.observe(v / 1000)
            return tracker

        assert _filled().summary() == _filled().summary()

    def test_cap_reservoir_is_unbiased_not_recency_windowed(self):
        # 10k early samples at 1ms, then 10k late at 100ms: a recency
        # window reports p50=100ms, an unbiased reservoir straddles both.
        tracker = LatencyTracker(cap=200)
        for _ in range(10_000):
            tracker.observe(0.001)
        for _ in range(10_000):
            tracker.observe(0.100)
        summary = tracker.summary()
        assert summary["count"] == 20_000
        assert summary["samples_dropped"] == 20_000 - 200
        # Both eras must be represented in the reservoir.
        assert tracker.percentile(5) == pytest.approx(0.001)
        assert tracker.percentile(95) == pytest.approx(0.100)


class TestAdmissionFairness:
    def test_jobs_settle_in_submission_order(self):
        async def _run():
            service = PlacementService(_config(), clock=StepClock())
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))
            order: list[int] = []

            async def _measure(i: int):
                outcome = await service.submit(TenantJob(OP_MEASURE, "a"))
                order.append(i)
                return outcome

            outcomes = await asyncio.gather(*[_measure(i) for i in range(6)])
            await service.stop()
            return order, outcomes

        order, outcomes = asyncio.run(_run())
        assert order == sorted(order), "queue must be FIFO"
        assert all(o.ok for o in outcomes)

    def test_duplicate_admit_rejected_typed(self):
        async def _run():
            service = PlacementService(_config(), clock=StepClock())
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))
            with pytest.raises(AdmissionRejected) as exc:
                await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))
            reason = exc.value.reason
            await service.stop()
            return reason

        assert asyncio.run(_run()) == "duplicate"

    def test_unknown_tenant_rejected_at_submit(self):
        async def _run():
            service = PlacementService(_config(), clock=StepClock())
            await service.start()
            with pytest.raises(AdmissionRejected) as exc:
                await service.submit(TenantJob(OP_MEASURE, "ghost"))
            reason = exc.value.reason
            await service.stop()
            return reason

        assert asyncio.run(_run()) == "unknown-tenant"

    def test_fast_tier_reservations_enforced(self):
        async def _run():
            service = PlacementService(_config(), clock=StepClock())
            await service.start()
            capacity = service._fast_capacity
            await service.submit(
                TenantJob(
                    OP_ADMIT, "greedy", app=_app(),
                    qos=QoS(reserve_fast_bytes=capacity),
                )
            )
            with pytest.raises(AdmissionRejected) as exc:
                await service.submit(
                    TenantJob(
                        OP_ADMIT, "late", app=_app(),
                        qos=QoS(reserve_fast_bytes=1),
                    )
                )
            reason = exc.value.reason
            await service.stop()
            return reason

        assert asyncio.run(_run()) == "reservation"


class TestDeadlineRollback:
    def test_expired_admit_restores_pre_admit_state(self):
        """The acceptance criterion: allocator and page table revert."""

        async def _run():
            clock = StepClock()
            service = PlacementService(_config(), clock=clock)
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "resident", app=_app()))
            before = _state_fingerprint(service.host.system)
            outcome = await service.submit(
                TenantJob(
                    OP_ADMIT, "doomed", app=_app("BFS", "rmat24"),
                    qos=QoS(deadline_s=0.0),
                )
            )
            after = _state_fingerprint(service.host.system)
            resident = {t["name"] for t in service.tenant_table()}
            audit = service.host.system.check_consistency()
            await service.stop()
            return outcome, before, after, resident, audit

        outcome, before, after, resident, audit = asyncio.run(_run())
        assert outcome.status == "expired"
        assert after == before, "expired admit must leave no trace"
        assert resident == {"resident"}
        assert audit == []

    def test_expired_measure_settles_without_side_effects(self):
        async def _run():
            service = PlacementService(_config(), clock=StepClock())
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))
            before = _state_fingerprint(service.host.system)
            outcome = await service.submit(
                TenantJob(OP_MEASURE, "a", qos=QoS(deadline_s=0.0))
            )
            after = _state_fingerprint(service.host.system)
            await service.stop()
            return outcome, before, after

        outcome, before, after = asyncio.run(_run())
        assert outcome.status == "expired" and after == before


class TestShedding:
    def test_overload_sheds_in_tiers(self):
        config = _config(
            shed=ShedPolicy(
                queue_limit=8, skip_optimize_at=0.25,
                stale_at=0.4, reject_at=0.8,
            )
        )

        async def _run():
            service = PlacementService(config, clock=StepClock())
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))

            async def _try():
                try:
                    return await service.submit(TenantJob(OP_MEASURE, "a"))
                except AdmissionRejected as exc:
                    return exc

            burst = await asyncio.gather(*[_try() for _ in range(10)])
            health = service.health()
            await service.stop()
            return burst, health

        burst, health = asyncio.run(_run())
        rejected = [r for r in burst if isinstance(r, AdmissionRejected)]
        stale = [
            r for r in burst
            if not isinstance(r, AdmissionRejected) and r.degraded == "stale"
        ]
        fresh = [
            r for r in burst
            if not isinstance(r, AdmissionRejected) and not r.degraded
        ]
        assert rejected and stale and fresh, (rejected, stale, fresh)
        assert all(r.reason in ("shed", "queue-full") for r in rejected)
        assert health["counters"]["measured.stale"] == len(stale)

    def test_depart_is_never_shed(self):
        """Shedding a departure would leak the tenant's pages forever."""
        config = _config(shed=ShedPolicy(queue_limit=4, reject_at=0.25))

        async def _run():
            service = PlacementService(config, clock=StepClock())
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))

            async def _submit(job):
                try:
                    return await service.submit(job)
                except AdmissionRejected as exc:
                    return exc

            results = await asyncio.gather(
                _submit(TenantJob(OP_MEASURE, "a")),
                _submit(TenantJob(OP_MEASURE, "a")),
                _submit(TenantJob(OP_DEPART, "a")),
            )
            await service.stop()
            return results

        results = asyncio.run(_run())
        depart = results[-1]
        assert not isinstance(depart, AdmissionRejected)
        assert depart.status == "ok"


class TestCircuitBreaker:
    def test_breaker_trips_rejects_then_recovers(self):
        clock = StepClock()
        config = _config(breaker=BreakerPolicy(failure_threshold=2))

        async def _run():
            service = PlacementService(config, clock=clock)
            await service.start()
            await service.submit(TenantJob(OP_ADMIT, "a", app=_app()))

            real = service.host.measure_tenant

            def _boom(name, plan, baseline):
                raise ReproError("induced measurement failure")

            service.host.measure_tenant = _boom
            failures = [
                (await service.submit(TenantJob(OP_MEASURE, "a"))).status
                for _ in range(2)
            ]
            with pytest.raises(AdmissionRejected) as exc:
                await service.submit(TenantJob(OP_MEASURE, "a"))
            reason = exc.value.reason
            service.host.measure_tenant = real
            clock.advance(60.0)  # beyond max backoff + jitter
            recovered = await service.submit(TenantJob(OP_MEASURE, "a"))
            health = service.health()
            await service.stop()
            return failures, reason, recovered, health

        failures, reason, recovered, health = asyncio.run(_run())
        assert failures == ["failed", "failed"]
        assert reason == "breaker-open"
        assert recovered.status == "ok"
        assert health["counters"]["breaker_trips"] >= 1

    def test_backoff_is_deterministic_per_seed(self):
        from repro.serve.service import _Breaker

        def _trip(seed: int) -> float:
            clock = StepClock()
            config = _config(
                breaker=BreakerPolicy(failure_threshold=1), seed=seed
            )
            service = PlacementService(config, clock=clock)
            breaker = _Breaker()
            service._breakers["t"] = breaker
            service._breaker_failure("t")
            return breaker.open_until

        assert _trip(7) == _trip(7)
        assert _trip(7) != _trip(8)


class TestJournalRecovery:
    @staticmethod
    def _table(report) -> str:
        return json.dumps(
            [
                {
                    "name": t["name"],
                    "app": t.get("app"),
                    "phase": t.get("phase", 0),
                    "placements": t["placements"],
                }
                for t in report["tenant_table"]
            ],
            sort_keys=True,
        )

    def test_kill_and_recover_resumes_bit_identical(self, tmp_path):
        jobs = generate_arrivals(12, seed=23)
        platform = nvm_dram_testbed(scale=512)
        _table = self._table
        quiet = serve_trace(
            jobs,
            ServiceConfig(platform=platform, journal_root=tmp_path / "a"),
        )
        partial = serve_trace(
            jobs,
            ServiceConfig(platform=platform, journal_root=tmp_path / "b"),
            kill_after=6,
        )
        assert partial["killed"]
        resumed = serve_trace(
            jobs[6:],
            ServiceConfig(platform=platform, journal_root=tmp_path / "b"),
        )
        assert resumed["health"]["counters"].get("recoveries", 0) == 1
        assert _table(resumed) == _table(quiet)

    def test_recovery_through_a_surviving_trace_cache(self, tmp_path):
        """A trace cache that outlives the killed service stays exact.

        The recovered service re-admits its tenants at new addresses;
        traces cached before the kill must reach it relocated.
        """
        # Seed 17 departs a tenant before the kill, so the recovered
        # layout differs from the one the cached traces were built on.
        jobs, kill = generate_arrivals(16, seed=17), 10
        platform = nvm_dram_testbed(scale=512)
        quiet = serve_trace(
            jobs, ServiceConfig(platform=platform, journal_root=tmp_path / "a")
        )
        cache = TraceCache(store=None)
        config = ServiceConfig(platform=platform, journal_root=tmp_path / "b")
        partial = serve_trace(jobs, config, kill_after=kill, trace_cache=cache)
        assert partial["killed"]
        resumed = serve_trace(jobs[kill:], config, trace_cache=cache)
        assert resumed["health"]["counters"].get("recoveries", 0) == 1
        assert cache.stats.trace_hits > 0
        assert self._table(resumed) == self._table(quiet)

    def test_torn_journal_line_recovers_valid_prefix(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append({"op": "admit", "tenant": "a"})
        journal.append({"op": "admit", "tenant": "b"})
        path = tmp_path / "journal.jsonl"
        torn = path.read_text().rstrip("\n")[:-7]  # tear the last record
        path.write_text(torn + "\n")

        fresh = ServiceJournal(tmp_path)
        state, records = fresh.load()
        assert state is None
        assert [r["tenant"] for r in records] == ["a"]
        assert fresh.corruptions, "the torn tail must be flagged"

    def test_corrupt_checkpoint_falls_back_to_journal(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append({"op": "admit", "tenant": "a"})
        journal.checkpoint({"tenants": [{"name": "a"}]})
        (tmp_path / "state.json").write_text('{"tenants": "garbage"')

        fresh = ServiceJournal(tmp_path)
        state, records = fresh.load()
        assert state is None
        assert [r["tenant"] for r in records] == ["a"]
        assert fresh.corruptions


    def test_checkpoint_with_retired_slo_fields_still_recovers(self, tmp_path):
        # Older checkpoints carried an "slo" error-budget block and a
        # per-job QoS "latency_slo_s"; recovery ignores both.
        jobs = [
            TenantJob(OP_ADMIT, "a", app=_app(), qos=QoS(reserve_fast_bytes=4096)),
            TenantJob(OP_ADMIT, "b", app=_app("BFS")),
            TenantJob(OP_PHASE_CHANGE, "a"),
        ]
        table = serve_trace(jobs, _config(), clock=StepClock())["tenant_table"]
        assert [t["name"] for t in table] == ["a", "b"]
        written = json.loads(json.dumps(table))
        for tenant in written:
            tenant["qos"]["latency_slo_s"] = 0.25
        budget = {"total": 3, "bad": 1}
        policy = {
            "latency_target_s": 0.25, "latency_objective": 0.99,
            "admission_objective": 0.999, "window_s": 60.0,
            "short_window_s": 5.0, "fast_burn": 14.4, "slow_burn": 6.0,
        }
        ServiceJournal(tmp_path).checkpoint(
            {
                "tenants": written,
                "slo": {
                    "a": {"policy": policy, "latency": budget, "admission": budget}
                },
            }
        )

        async def _run():
            service = PlacementService(
                _config(journal_root=tmp_path), clock=StepClock()
            )
            await service.start()
            recovered = service.tenant_table()
            health = await service.stop()
            return recovered, health

        recovered, health = asyncio.run(_run())
        for tenant in written:
            del tenant["qos"]["latency_slo_s"]
        assert recovered == written
        assert health["counters"]["recoveries"] == 1
        assert health["resident_tenants"] == 2
        assert not health["journal_corruptions"]


class TestPhaseRecovery:
    """Phase counters are journaled and restored bit-exact on recovery."""

    @staticmethod
    def _phases(report) -> dict:
        return {
            t["name"]: t.get("phase", 0) for t in report["tenant_table"]
        }

    def test_phase_change_advances_tenant_table(self):
        jobs = [
            TenantJob(OP_ADMIT, "a", app=_app()),
            TenantJob(OP_PHASE_CHANGE, "a"),
            TenantJob(OP_PHASE_CHANGE, "a"),
        ]
        report = serve_trace(jobs, _config())
        assert self._phases(report) == {"a": 2}

    def test_phase_changes_survive_kill_and_recover(self, tmp_path):
        jobs = [
            TenantJob(OP_ADMIT, "a", app=_app()),
            TenantJob(OP_PHASE_CHANGE, "a"),
            TenantJob(OP_ADMIT, "b", app=_app("BFS")),
            TenantJob(OP_PHASE_CHANGE, "a"),
            TenantJob(OP_PHASE_CHANGE, "b"),
            TenantJob(OP_MEASURE, "a"),
        ]
        platform = nvm_dram_testbed(scale=512)
        quiet = serve_trace(
            jobs,
            ServiceConfig(platform=platform, journal_root=tmp_path / "a"),
        )
        assert self._phases(quiet) == {"a": 2, "b": 1}
        partial = serve_trace(
            jobs,
            ServiceConfig(platform=platform, journal_root=tmp_path / "b"),
            kill_after=3,
        )
        assert partial["killed"]
        resumed = serve_trace(
            jobs[3:],
            ServiceConfig(platform=platform, journal_root=tmp_path / "b"),
        )
        assert resumed["health"]["counters"].get("recoveries", 0) == 1
        assert self._phases(resumed) == self._phases(quiet)

    def test_old_journal_without_phase_field_implies_increment(self, tmp_path):
        # Pre-phase-stamp journals carry phase_change records with no
        # "phase" key: recovery must fall back to counting them.
        journal = ServiceJournal(tmp_path)
        journal.append(
            {"op": OP_ADMIT, "tenant": "a", "app": _app().to_json()}
        )
        journal.append({"op": OP_PHASE_CHANGE, "tenant": "a"})
        journal.append({"op": OP_PHASE_CHANGE, "tenant": "a"})

        async def _run():
            service = PlacementService(
                _config(journal_root=tmp_path), clock=StepClock()
            )
            await service.start()
            table = service.tenant_table()
            await service.stop()
            return table

        table = asyncio.run(_run())
        assert [(t["name"], t["phase"]) for t in table] == [("a", 2)]
