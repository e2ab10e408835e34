"""One function per paper figure.

Each returns renderable :class:`~repro.bench.report.Table` /
:class:`~repro.bench.report.Series` objects; the ``benchmarks/`` files call
them, print/save the artifacts, and assert the shape conditions.

Every builder that consumes a whole grid first primes it through
:func:`repro.bench.workloads.prime_overall_grid`, so its cells fan out
across the :class:`repro.sim.parallel.ExperimentPool` (``REPRO_JOBS``
workers) instead of being computed one by one on cache misses.
"""

from __future__ import annotations

from repro.bench.report import Series, Table
from repro.bench.workloads import (
    BENCH_APPS,
    BENCH_DATASETS,
    app_factory,
    bench_platform,
    overall_results,
    prime_overall_grid,
)
from repro.core.analyzer import AnalyzerConfig
from repro.core.runtime import RuntimeConfig
from repro.sim.parallel import JobSpec, run_jobs

#: The subset of apps shown in the motivation figure.
FIG1_APPS = ("PR", "SSSP", "BC")


def fig1a() -> Table:
    """Fig. 1a: all-on-NVM time normalised to all-on-DRAM, per app/dataset."""
    table = Table(
        title="Figure 1a: normalized execution time, NVM vs DRAM (NVM-DRAM testbed)",
        columns=["app", "dataset", "t_nvm_ms", "t_dram_ms", "normalized"],
        notes=["paper: slowdowns of up to 10x, largest for gather-heavy apps"],
    )
    prime_overall_grid("nvm_dram", FIG1_APPS)
    for app in FIG1_APPS:
        for ds in BENCH_DATASETS:
            cell = overall_results("nvm_dram", app, ds)
            t_nvm = cell.baseline.seconds
            t_dram = cell.reference.seconds
            table.add_row(app, ds, t_nvm * 1e3, t_dram * 1e3, t_nvm / t_dram)
    return table


def fig1b() -> Table:
    """Fig. 1b: all-on-DRAM time normalised to MCDRAM-preferred (KNL)."""
    table = Table(
        title="Figure 1b: normalized execution time, DRAM vs MCDRAM-p (KNL testbed)",
        columns=["app", "dataset", "t_dram_ms", "t_mcdram_p_ms", "normalized"],
        notes=["paper: up to ~3x; limited MCDRAM capacity caps the gain"],
    )
    prime_overall_grid("mcdram_dram", FIG1_APPS)
    for app in FIG1_APPS:
        for ds in BENCH_DATASETS:
            cell = overall_results("mcdram_dram", app, ds)
            t_dram = cell.baseline.seconds
            t_pref = cell.reference.seconds
            table.add_row(app, ds, t_dram * 1e3, t_pref * 1e3, t_dram / t_pref)
    return table


def fig5() -> Table:
    """Fig. 5: NVM-DRAM overall — baseline / ATMem / all-DRAM times."""
    table = Table(
        title="Figure 5: execution time on NVM-DRAM (baseline=all-NVM, ideal=all-DRAM)",
        columns=[
            "app",
            "dataset",
            "baseline_ms",
            "atmem_ms",
            "ideal_ms",
            "speedup",
            "vs_ideal",
        ],
        notes=["paper: 1.25x-8.4x improvement over the all-NVM baseline"],
    )
    prime_overall_grid("nvm_dram")
    for app in BENCH_APPS:
        for ds in BENCH_DATASETS:
            cell = overall_results("nvm_dram", app, ds)
            table.add_row(
                app,
                ds,
                cell.baseline.seconds * 1e3,
                cell.atmem.seconds * 1e3,
                cell.reference.seconds * 1e3,
                cell.speedup,
                cell.slowdown_vs_reference,
            )
    return table


def fig6() -> Table:
    """Fig. 6: MCDRAM-DRAM overall — baseline / ATMem / MCDRAM-p times."""
    table = Table(
        title="Figure 6: execution time on MCDRAM-DRAM (baseline=all-DRAM, ref=MCDRAM-p)",
        columns=[
            "app",
            "dataset",
            "baseline_ms",
            "atmem_ms",
            "mcdram_p_ms",
            "speedup",
            "vs_mcdram_p",
        ],
        notes=[
            "paper: 1.1x-3x over baseline; ATMem beats MCDRAM-p on the "
            "datasets that exceed MCDRAM capacity"
        ],
    )
    prime_overall_grid("mcdram_dram")
    for app in BENCH_APPS:
        for ds in BENCH_DATASETS:
            cell = overall_results("mcdram_dram", app, ds)
            table.add_row(
                app,
                ds,
                cell.baseline.seconds * 1e3,
                cell.atmem.seconds * 1e3,
                cell.reference.seconds * 1e3,
                cell.speedup,
                cell.slowdown_vs_reference,
            )
    return table


def fig7() -> Table:
    """Fig. 7: data ratio placed in DRAM on the NVM-DRAM testbed."""
    return _data_ratio_table(
        "nvm_dram",
        "Figure 7: data ratio placed on DRAM (NVM-DRAM testbed)",
        "paper: 5%-18% of data selected",
    )


def fig8() -> Table:
    """Fig. 8: data ratio placed in MCDRAM on the KNL testbed."""
    return _data_ratio_table(
        "mcdram_dram",
        "Figure 8: data ratio placed on MCDRAM (MCDRAM-DRAM testbed)",
        "paper: 3.8%-18.2% of data selected",
    )


def _data_ratio_table(platform_name: str, title: str, note: str) -> Table:
    table = Table(
        title=title,
        columns=["app", "dataset", "data_ratio", "selected_KiB", "total_KiB"],
        notes=[note],
    )
    prime_overall_grid(platform_name)
    for app in BENCH_APPS:
        for ds in BENCH_DATASETS:
            cell = overall_results(platform_name, app, ds)
            decision = cell.atmem.decision
            table.add_row(
                app,
                ds,
                cell.atmem.data_ratio,
                decision.selected_bytes() / 1024.0,
                decision.total_bytes / 1024.0,
            )
    return table


EPSILON_SWEEP = (0.02, 0.05, 0.10, 0.18, 0.25, 0.35, 0.5, 0.7, 0.9)


def ratio_sweep(platform_name: str, datasets=BENCH_DATASETS, *, jobs=None) -> Series:
    """Figs. 9/10: sweep epsilon in Eq. 5 -> (data ratio, BFS time) curves.

    Every (dataset, epsilon) point and every static endpoint is an
    independent job, so the whole sweep fans out across the pool; each
    worker computes a dataset's BFS trace and hit mask once and reuses
    them for all of that dataset's points it runs.
    """
    figure = "Figure 9" if platform_name == "nvm_dram" else "Figure 10"
    series = Series(
        title=(
            f"{figure}: data-ratio impact on BFS time ({platform_name}); "
            "each point is one epsilon value"
        ),
        x_label="data ratio on fast memory",
        y_label="BFS time (s)",
    )
    platform = bench_platform(platform_name)
    specs: list[JobSpec] = []
    for ds in datasets:
        factory = app_factory("BFS", ds)
        for eps in EPSILON_SWEEP:
            config = RuntimeConfig(
                analyzer=AnalyzerConfig(m=4, base_tr_threshold=0.5, epsilon=eps)
            )
            specs.append(
                JobSpec(
                    app=factory,
                    platform=platform,
                    flow="atmem",
                    runtime_config=config,
                    value=eps,
                    tag=ds,
                )
            )
        # Anchor the curve with the static endpoints.
        specs.append(
            JobSpec(app=factory, platform=platform, flow="static", placement="slow", tag=ds)
        )
        if platform_name == "nvm_dram":
            specs.append(
                JobSpec(app=factory, platform=platform, flow="static", placement="fast", tag=ds)
            )
    results = run_jobs(specs, jobs)
    for spec, result in zip(specs, results):
        if spec.flow == "atmem":
            series.add_point(spec.tag, result.data_ratio, result.seconds)
        else:
            x = 1.0 if spec.placement == "fast" else 0.0
            series.add_point(spec.tag, x, result.seconds)
    return series
