"""Parallel experiment engine: parity with serial, errors, determinism."""

import dataclasses

import pytest

from repro.cachebudget import TRACE_STORE_ENV
from repro.config import mcdram_dram_testbed, nvm_dram_testbed
from repro.errors import ConfigurationError
from repro.faults.chaos import committed_figures
from repro.mem.cache import LINE_SIZE
from repro.obs import reset_all
from repro.obs.metrics import process_metrics
from repro.sim import parallel
from repro.sim.artifacts import TRACE
from repro.sim.tracecache import TraceCache
from repro.sim.parallel import (
    AppSpec,
    ExperimentJobError,
    ExperimentPool,
    JobSpec,
    execute_job,
    resolve_jobs,
    run_jobs,
)

#: Huge divisor -> every dataset collapses to its floor size; jobs stay tiny.
TINY = 1 << 20


@pytest.fixture(scope="module")
def platform():
    return nvm_dram_testbed(scale=512)


def _grid_specs(platform):
    return [
        JobSpec(
            app=AppSpec.make(app, ds, scale=TINY),
            platform=platform,
            flow="cell",
            placement="fast",
            tag=f"{app}/{ds}",
        )
        for app in ("BFS", "PR")
        for ds in ("twitter", "rmat24")
    ]


class TestParitySerialVsParallel:
    def test_pool_matches_serial_exactly(self, platform):
        """The tentpole invariant: fan-out must not change a single bit."""
        specs = _grid_specs(platform)
        parallel_pool = ExperimentPool(max_workers=4)
        parallel = parallel_pool.run(specs)
        serial_pool = ExperimentPool(max_workers=1)
        serial = serial_pool.run(specs)
        assert serial_pool.last_mode == "serial"
        assert len(parallel) == len(serial) == len(specs)
        for spec, par, ser in zip(specs, parallel, serial):
            assert par.baseline.seconds == ser.baseline.seconds, spec.tag
            assert par.reference.seconds == ser.reference.seconds, spec.tag
            assert par.atmem.seconds == ser.atmem.seconds, spec.tag
            assert par.atmem.data_ratio == ser.atmem.data_ratio, spec.tag
            assert (
                par.atmem.migration.bytes_moved == ser.atmem.migration.bytes_moved
            ), spec.tag
            assert par.atmem.migration.seconds == ser.atmem.migration.seconds, spec.tag
            assert (
                par.atmem.migration.pages_touched == ser.atmem.migration.pages_touched
            ), spec.tag

    def test_results_come_back_in_submission_order(self, platform):
        specs = _grid_specs(platform)
        results = run_jobs(specs, jobs=2)
        for spec, result in zip(specs, results):
            direct = execute_job(spec)
            assert result.atmem.seconds == direct.atmem.seconds, spec.tag


def _cold_specs(platform):
    """Four tiny cells over three trace keys; the BFS/twitter key is shared."""
    bfs = AppSpec.make("BFS", "twitter", scale=TINY)
    pr = AppSpec.make("PR", "rmat24", scale=TINY)
    cc = AppSpec.make("CC", "twitter", scale=TINY)
    return [
        JobSpec(app=bfs, platform=platform, flow="cell", placement="fast"),
        JobSpec(app=bfs, platform=platform, flow="static", placement="fast"),
        JobSpec(app=pr, platform=platform, flow="atmem"),
        JobSpec(app=cc, platform=platform, flow="coarse"),
    ]


def _folds() -> int:
    """Reuse folds recorded in this process's registry since the last reset."""
    folds = process_metrics().timings.get("stage.reuse_build")
    return folds.count if folds else 0


class TestColdPriming:
    """A cold store-armed 2-worker pass primes each key once, then matches serial."""

    def _serial(self, monkeypatch, specs):
        monkeypatch.delenv(TRACE_STORE_ENV, raising=False)
        return [committed_figures(r) for r in ExperimentPool(1).run(specs)]

    def _cold_pool(self, monkeypatch, tmp_path, specs):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        pool = ExperimentPool(2)
        figures = [committed_figures(r) for r in pool.run(specs)]
        if not pool.last_mode.startswith("parallel"):
            pytest.skip("pool fell back to serial on this host")
        return pool, figures

    def test_store_armed_pool_matches_serial(self, monkeypatch, tmp_path, platform):
        specs = _cold_specs(platform)
        serial = self._serial(monkeypatch, specs)
        reset_all()
        pool, figures = self._cold_pool(monkeypatch, tmp_path, specs)
        assert figures == serial
        keys = {spec.trace_key() for spec in specs}
        assert pool.health.cold_keys == len(keys) == 3, pool.health.as_dict()
        # The serial reference released its keys, so the workers fork
        # with a cold cache and each prime folds its key.
        assert _folds() == len(keys)
        store = parallel.process_trace_store()
        for key in keys:
            assert store.has(TRACE, key), key

    def test_failed_priming_is_rebuilt_by_the_cells(
        self, monkeypatch, tmp_path, platform
    ):
        specs = _cold_specs(platform)
        serial = self._serial(monkeypatch, specs)
        real_prime = parallel.prime_artifacts

        def flaky_prime(spec, geometries, cache=None):
            if spec.app.app == "PR":
                raise RuntimeError("injected priming failure")
            real_prime(spec, geometries, cache)

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(parallel, "prime_artifacts", flaky_prime)
        pool, figures = self._cold_pool(monkeypatch, tmp_path, specs)
        assert figures == serial
        health = pool.health
        assert any("priming failed" in note for note in health.notes), health.notes
        assert health.retries == 0, health.as_dict()


class TestErrorPropagation:
    def test_worker_exception_carries_its_spec(self, platform):
        """A failing job surfaces as ExperimentJobError with the spec attached."""
        bad = JobSpec(
            app=AppSpec.make("PR", "twitter", scale=TINY, bogus_kwarg=1),
            platform=platform,
            flow="atmem",
            tag="doomed",
        )
        good = _grid_specs(platform)[0]
        with pytest.raises(ExperimentJobError) as excinfo:
            ExperimentPool(max_workers=2).run([good, bad])
        err = excinfo.value
        assert err.spec is bad
        assert err.spec.tag == "doomed"
        assert err.kind  # the worker-side exception type name
        assert "bogus_kwarg" in str(err) or "bogus_kwarg" in err.worker_traceback

    def test_unknown_flow_rejected_at_construction(self, platform):
        with pytest.raises(ConfigurationError):
            JobSpec(
                app=AppSpec.make("PR", "twitter", scale=TINY),
                platform=platform,
                flow="warp",
            )

    def test_multitenant_flow_requires_tenants(self, platform):
        with pytest.raises(ConfigurationError):
            JobSpec(app=None, platform=platform, flow="multitenant")


class TestDeterministicSeeding:
    def test_job_seed_depends_on_content_not_order(self, platform):
        specs = _grid_specs(platform)
        seeds = [s.job_seed() for s in specs]
        assert len(set(seeds)) == len(seeds), "distinct cells get distinct seeds"
        # Rebuilding the same spec reproduces the same seed.
        rebuilt = _grid_specs(platform)
        assert [s.job_seed() for s in rebuilt] == seeds

    def test_explicit_seed_wins(self, platform):
        spec = dataclasses.replace(_grid_specs(platform)[0], seed=1234)
        assert spec.job_seed() == 1234


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


def _two_geometry_specs():
    """Fig. 5-style and Fig. 6-style cells over the same four trace keys."""
    return [
        dataclasses.replace(spec, platform=testbed(scale=512), tag=f"{name}/{spec.tag}")
        for name, testbed in (("nvm", nvm_dram_testbed), ("knl", mcdram_dram_testbed))
        for spec in _grid_specs(testbed(scale=512))
    ]


class TestColdPlan:
    """Which keys a store-armed pool primes, how many at once, for which LLCs."""

    def _jobs(self, specs):
        return [parallel._Job(spec=spec, index=i) for i, spec in enumerate(specs)]

    def test_cold_admitted(self, monkeypatch, tmp_path, platform):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        jobs = self._jobs(_cold_specs(platform))  # three trace keys
        pool = ExperimentPool(4)
        for workers, cpus, admitted in ((4, 1, 1), (4, 2, 2), (4, 8, 3), (2, 8, 2)):
            monkeypatch.setattr(parallel, "pool_cpus", lambda cpus=cpus: cpus)
            plan = pool._cold_plan(jobs, workers)
            assert plan.admitted == pool.health.cold_admitted == admitted
            assert pool.health.cold_keys == len(plan.jobs_by_key) == 3

    def test_every_llc_geometry_of_a_key_is_recorded(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        specs = _two_geometry_specs()
        plan = ExperimentPool(2)._cold_plan(self._jobs(specs), 2)
        both = tuple(
            sorted(
                (testbed(scale=512).llc_bytes, LINE_SIZE)
                for testbed in (nvm_dram_testbed, mcdram_dram_testbed)
            )
        )
        assert len(set(both)) == 2
        assert set(plan.geometries) == {spec.trace_key() for spec in specs}
        assert all(g == both for g in plan.geometries.values()), plan.geometries


class TestTwoGeometryStore:
    """One fold per key primes both testbeds' masks; no reuse profile is stored."""

    def _pass(self, specs):
        """One 2-worker pass: pool, figures, reuse folds, stored-reuse loads."""
        reset_all()
        pool = ExperimentPool(2)
        figures = [committed_figures(r) for r in pool.run(specs)]
        if not pool.last_mode.startswith("parallel"):
            pytest.skip("pool fell back to serial on this host")
        reuse_loads = process_metrics().counters.get("cache.store_reuse_hits", 0)
        return pool, figures, _folds(), reuse_loads

    def test_cold_then_warm_folds_each_key_once(self, monkeypatch, tmp_path):
        specs = _two_geometry_specs()
        keys = {spec.trace_key() for spec in specs}
        root = tmp_path / "store"
        monkeypatch.setenv(TRACE_STORE_ENV, str(root))
        # Workers fork from this process: start them with no cached traces.
        parallel.process_trace_cache().clear()
        cold_pool, cold, cold_folds, _ = self._pass(specs)
        assert cold_pool.health.cold_keys == len(keys) == 4
        # Every cold-pass cell found both testbeds' masks and profiles
        # already built by the primes: none had to build one itself.
        assert cold_pool.health.cold_jobs == 0, cold_pool.health.as_dict()
        assert cold_folds == len(keys)
        assert not list(root.rglob("reuse-v*"))
        warm_pool, warm, warm_folds, warm_reuse_loads = self._pass(specs)
        assert warm_pool.health.cold_keys == 0
        assert warm_folds == 0
        assert warm_reuse_loads == 0
        monkeypatch.delenv(TRACE_STORE_ENV)
        serial = [committed_figures(r) for r in ExperimentPool(1).run(specs)]
        assert warm == cold == serial


class TestKeyGroupedSerial:
    """A serial batch runs one trace key at a time and releases it after."""

    def _batch(self, monkeypatch):
        """Fig. 5 then Fig. 6 cells: a key's two cells are four jobs apart."""
        monkeypatch.delenv(TRACE_STORE_ENV, raising=False)
        specs = _two_geometry_specs()
        keys = [spec.trace_key() for spec in specs]
        assert all(a != b for a, b in zip(keys, keys[1:]))
        cache = parallel.process_trace_cache()
        cache.clear()
        # A one-key LRU: run in spec order, every cell would refold its key.
        monkeypatch.setattr(cache, "max_traces", 1)
        reset_all()
        return specs

    def test_each_key_folds_once_and_is_released(self, monkeypatch):
        specs = self._batch(monkeypatch)
        pool = ExperimentPool(1)
        figures = [committed_figures(r) for r in pool.run(specs)]
        assert pool.last_mode == "serial"
        keys = {spec.trace_key() for spec in specs}
        assert _folds() == len(keys) == 4
        assert len(parallel.process_trace_cache()) == 0
        assert process_metrics().counters["cache.releases"] == len(keys)
        fresh = [
            committed_figures(execute_job(spec, trace_cache=TraceCache(store=None)))
            for spec in specs
        ]
        assert figures == fresh

    def test_a_retried_job_releases_its_key_after_the_retry(self, monkeypatch):
        specs = self._batch(monkeypatch)
        monkeypatch.setenv(parallel.JOB_BACKOFF_ENV, "0")
        flaky = specs[4]  # the knl twin: the last job of the first key
        events = []
        real_execute = parallel.execute_job
        real_release = TraceCache.release

        def execute_once_flaky(spec, **kwargs):
            if spec is flaky and ("fail", spec.tag) not in events:
                events.append(("fail", spec.tag))
                raise RuntimeError("injected serial failure")
            result = real_execute(spec, **kwargs)
            events.append(("ok", spec.tag))
            return result

        def logged_release(cache, key):
            events.append(("release", key))
            real_release(cache, key)

        monkeypatch.setattr(parallel, "execute_job", execute_once_flaky)
        monkeypatch.setattr(TraceCache, "release", logged_release)
        pool = ExperimentPool(1)
        pool.run(specs)
        assert pool.health.retries == 1
        expected = [("ok", specs[0].tag), ("fail", flaky.tag), ("ok", flaky.tag)]
        expected.append(("release", specs[0].trace_key()))
        for nvm, knl in zip(specs[1:4], specs[5:]):
            expected += [("ok", nvm.tag), ("ok", knl.tag), ("release", nvm.trace_key())]
        assert events == expected


class TestSerialFallback:
    def test_single_worker_never_forks(self, platform):
        pool = ExperimentPool(max_workers=1)
        pool.run(_grid_specs(platform)[:1])
        assert pool.last_mode == "serial"

    def test_single_spec_batch_runs_serially(self, platform):
        pool = ExperimentPool(max_workers=8)
        pool.run(_grid_specs(platform)[:1])
        assert pool.last_mode == "serial"

    def test_empty_batch(self):
        pool = ExperimentPool(max_workers=4)
        assert pool.run([]) == []
        assert pool.last_mode == "empty"
