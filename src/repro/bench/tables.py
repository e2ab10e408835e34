"""One function per paper table (plus the Section 7.4 overhead analysis).

Grid-shaped tables prime their cells through
:func:`repro.bench.workloads.prime_overall_grid`; Table 4's paired
ATMem/mbind runs are independent jobs and fan out directly across the
:class:`repro.sim.parallel.ExperimentPool` (``REPRO_JOBS`` workers).
"""

from __future__ import annotations

from repro.bench.report import Table
from repro.bench.workloads import (
    BENCH_APPS,
    BENCH_DATASETS,
    app_factory,
    bench_platform,
    overall_results,
    prime_overall_grid,
)
from repro.core.runtime import RuntimeConfig
from repro.sim.parallel import ExperimentPool, JobSpec


def table3() -> Table:
    """Table 3: ATMem slowdown vs the all-DRAM ideal, min/max per app."""
    table = Table(
        title="Table 3: ATMem vs all-DRAM ideal on NVM-DRAM (slowdown per app)",
        columns=["app", "min_slowdown", "max_slowdown"],
        notes=[
            "paper: min 9%-54%, max 1.8x-3.0x across apps "
            "(slowdown = atmem_time/ideal_time - 1, shown as e.g. 0.25 = 25%)"
        ],
    )
    prime_overall_grid("nvm_dram")
    for app in BENCH_APPS:
        slowdowns = [
            overall_results("nvm_dram", app, ds).slowdown_vs_reference - 1.0
            for ds in BENCH_DATASETS
        ]
        table.add_row(app, min(slowdowns), max(slowdowns))
    return table


def table4() -> Table:
    """Table 4: mbind vs ATMem migration — TLB misses and migration time.

    PR on every dataset, both testbeds; values are mbind's numbers
    normalised to ATMem's (higher = ATMem better), as in the paper.
    """
    table = Table(
        title="Table 4: mbind / ATMem ratios after PR migration",
        columns=[
            "platform",
            "dataset",
            "tlb_miss_ratio",
            "migration_time_ratio",
        ],
        notes=[
            "paper: NVM-DRAM avg 20.98x TLB, 2.07x time; "
            "MCDRAM-DRAM avg 1.72x TLB, 5.32x time"
        ],
    )
    cells = []
    specs: list[JobSpec] = []
    for platform_name in ("nvm_dram", "mcdram_dram"):
        platform = bench_platform(platform_name)
        for ds in BENCH_DATASETS:
            factory = app_factory("PR", ds)
            cells.append((platform_name, ds))
            specs.append(
                JobSpec(
                    app=factory,
                    platform=platform,
                    flow="atmem",
                    count_tlb=True,
                    tag=f"{platform_name}/{ds}/atmem",
                )
            )
            specs.append(
                JobSpec(
                    app=factory,
                    platform=platform,
                    flow="atmem",
                    runtime_config=RuntimeConfig(migration_mechanism="mbind"),
                    count_tlb=True,
                    tag=f"{platform_name}/{ds}/mbind",
                )
            )
    results = ExperimentPool().run(specs)
    for i, (platform_name, ds) in enumerate(cells):
        atmem, mbind = results[2 * i], results[2 * i + 1]
        tlb_ratio = mbind.second_iteration.tlb_misses / max(
            1, atmem.second_iteration.tlb_misses
        )
        time_ratio = mbind.migration.seconds / max(
            1e-12, atmem.migration.seconds
        )
        table.add_row(platform_name, ds, tlb_ratio, time_ratio)
    return table


def overhead_analysis() -> Table:
    """Section 7.4: profiling overhead and one-time cost amortisation."""
    table = Table(
        title="Section 7.4: ATMem overhead analysis (NVM-DRAM)",
        columns=[
            "app",
            "dataset",
            "profiling_pct_of_iter1",
            "migration_ms",
            "gain_per_iter_ms",
            "iters_to_amortize",
        ],
        notes=[
            "paper: profiling < 10% of the first iteration; most benchmarks "
            "amortize the one-time costs within a few iterations"
        ],
    )
    prime_overall_grid("nvm_dram", datasets=("rmat24", "friendster"))
    for app in BENCH_APPS:
        for ds in ("rmat24", "friendster"):
            cell = overall_results("nvm_dram", app, ds)
            at = cell.atmem
            profiling_pct = (
                100.0 * at.profiling_overhead_seconds / at.first_iteration.seconds
            )
            gain = cell.baseline.seconds - at.seconds
            one_time = at.one_time_overhead_seconds
            iters = one_time / gain if gain > 0 else float("inf")
            table.add_row(
                app,
                ds,
                profiling_pct,
                at.migration.seconds * 1e3,
                gain * 1e3,
                iters,
            )
    return table
