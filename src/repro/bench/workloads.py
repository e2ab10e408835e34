"""Benchmark configuration and the shared, memoised run cache.

The paper's overall evaluation (Figures 5-8, Table 3) derives from one grid
of runs: {5 apps} x {5 datasets} x {baseline, reference, ATMem} on each
testbed.  ``overall_results`` computes each cell once per process and every
figure/table renders from the cache.

Whole grids go through :func:`prime_overall_grid`, which fans the cells
out across the :class:`repro.sim.parallel.ExperimentPool` (``REPRO_JOBS``
workers, serial when 1).  A cell job runs its three placements against one
shared trace-cache entry, so the app's deterministic trace and LLC hit
mask are computed once per (app, dataset) rather than once per run.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 2048, i.e. 1/2048 of the published input sizes; platform capacity
scaling tracks it automatically).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.config import PlatformConfig, platform_by_name
from repro.graph.datasets import DATASET_NAMES
from repro.sim.experiment import AtMemRunResult, StaticRunResult
from repro.sim.parallel import AppSpec, JobSpec, run_jobs

#: Apps in the order of the paper's figures.
BENCH_APPS = ("BFS", "SSSP", "PR", "BC", "CC")
BENCH_DATASETS = DATASET_NAMES

#: Per-app constructor arguments used across all benchmarks.
APP_KWARGS = {
    "BFS": {},
    "SSSP": {},
    "PR": {"num_sweeps": 2},
    "BC": {"num_sources": 2},
    "CC": {},
}


def bench_scale() -> int:
    """The input/capacity scale for benchmark runs (env-tunable)."""
    return int(os.environ.get("REPRO_BENCH_SCALE", "2048"))


def bench_platform(name: str) -> PlatformConfig:
    """A testbed preset whose capacities track the benchmark scale.

    Capacities use half the graph scale: the CSR stores both directions of
    every undirected edge, doubling the byte size relative to the paper's
    directed edge counts, and the capacity geometry that drives Figure 6
    (adjacency *just* fits MCDRAM for twitter/friendster while the whole
    dataset does not) must be preserved.
    """
    return platform_by_name(name, scale=max(1, bench_scale() // 2))


def app_factory(app_name: str, dataset: str) -> AppSpec:
    """A zero-argument factory building a fresh app on the cached dataset.

    Returns a picklable :class:`repro.sim.parallel.AppSpec`, so the same
    factory drives in-process runs (call it) and pool fan-out (ship it).
    """
    return AppSpec.make(
        app_name, dataset, scale=bench_scale(), **APP_KWARGS[app_name]
    )


def reference_placement(platform_name: str) -> str:
    """The paper's reference placement for a testbed.

    All-DRAM on the NVM testbed; MCDRAM-preferred (``numactl -p``) on the
    capacity-limited KNL testbed.
    """
    return "fast" if platform_name == "nvm_dram" else "preferred"


@dataclass
class OverallCell:
    """One (app, dataset) cell of the overall-performance grid."""

    baseline: StaticRunResult
    reference: StaticRunResult  # all-fast ideal (NVM) or MCDRAM-p (KNL)
    atmem: AtMemRunResult

    @property
    def speedup(self) -> float:
        """ATMem speedup over the all-slow baseline."""
        return self.baseline.seconds / self.atmem.seconds

    @property
    def slowdown_vs_reference(self) -> float:
        """ATMem time relative to the reference placement."""
        return self.atmem.seconds / self.reference.seconds


_OVERALL_CACHE: dict[tuple[str, str, str], OverallCell] = {}


def _cell_spec(platform_name: str, app_name: str, dataset: str) -> JobSpec:
    return JobSpec(
        app=app_factory(app_name, dataset),
        platform=bench_platform(platform_name),
        flow="cell",
        placement=reference_placement(platform_name),
        tag=f"{platform_name}/{app_name}/{dataset}",
    )


def prime_overall_grid(
    platform_name: str,
    apps: Sequence[str] = BENCH_APPS,
    datasets: Iterable[str] = BENCH_DATASETS,
    *,
    jobs: int | None = None,
) -> None:
    """Compute (and cache) every missing cell of a grid, in parallel.

    Cached cells are skipped; a fully-cached grid costs nothing.
    """
    pending = [
        (app, ds)
        for app in apps
        for ds in datasets
        if (platform_name, app, ds) not in _OVERALL_CACHE
    ]
    if not pending:
        return
    specs = [_cell_spec(platform_name, app, ds) for app, ds in pending]
    cells = run_jobs(specs, jobs)
    for (app, ds), cell in zip(pending, cells):
        _OVERALL_CACHE[(platform_name, app, ds)] = OverallCell(
            baseline=cell.baseline, reference=cell.reference, atmem=cell.atmem
        )


def overall_results(platform_name: str, app_name: str, dataset: str) -> OverallCell:
    """Compute (memoised) one cell of the overall grid.

    The reference placement follows the paper: all-DRAM on the NVM testbed,
    MCDRAM-preferred (``numactl -p``) on the capacity-limited KNL testbed.
    Single cells run in-process (one cell cannot fan out), but still share
    the process trace cache with everything else.
    """
    key = (platform_name, app_name, dataset)
    if key in _OVERALL_CACHE:
        return _OVERALL_CACHE[key]
    from repro.sim.parallel import execute_job

    cell = execute_job(_cell_spec(platform_name, app_name, dataset))
    result = OverallCell(
        baseline=cell.baseline, reference=cell.reference, atmem=cell.atmem
    )
    _OVERALL_CACHE[key] = result
    return result
