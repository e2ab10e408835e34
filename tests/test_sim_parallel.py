"""Parallel experiment engine: parity with serial, errors, determinism."""

import dataclasses

import pytest

from repro.cachebudget import TRACE_STORE_ENV
from repro.config import nvm_dram_testbed
from repro.errors import ConfigurationError, TraceError
from repro.faults.chaos import committed_figures
from repro.sim import parallel
from repro.sim.artifacts import TRACE
from repro.sim.parallel import (
    AppSpec,
    ExperimentJobError,
    ExperimentPool,
    JobSpec,
    execute_job,
    resolve_jobs,
    run_jobs,
    worker_byte_budget,
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
        pool, figures = self._cold_pool(monkeypatch, tmp_path, specs)
        assert figures == serial
        keys = {spec.trace_key() for spec in specs}
        assert pool.health.cold_keys == len(keys) == 3, pool.health.as_dict()
        store = parallel.process_trace_store()
        for key in keys:
            assert store.has(TRACE, key), key

    def test_failed_priming_is_rebuilt_by_the_cells(
        self, monkeypatch, tmp_path, platform
    ):
        specs = _cold_specs(platform)
        serial = self._serial(monkeypatch, specs)
        real_prime = parallel.prime_artifacts

        def flaky_prime(spec, cache=None):
            if spec.app.app == "PR":
                raise RuntimeError("injected priming failure")
            real_prime(spec, cache)

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


class TestWorkerByteBudget:
    def test_default_is_one_gib(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKER_BYTES_ENV, raising=False)
        assert worker_byte_budget() == parallel.DEFAULT_WORKER_BYTES == 1 << 30

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKER_BYTES_ENV, "4096")
        assert worker_byte_budget() == 4096

    def test_non_positive_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKER_BYTES_ENV, "0")
        assert worker_byte_budget() == parallel.DEFAULT_WORKER_BYTES

    def test_non_integer_raises(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKER_BYTES_ENV, "1GiB")
        with pytest.raises(TraceError):
            worker_byte_budget()


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
