"""One workload pass in a fresh process: the benchmark's child program.

``run.py`` starts this script once per pass (and once per set-up sample)
with a scrubbed environment, and reads back the JSON record it writes::

    python3 perfbench/runner.py --workload fig5-cold --seed 7 \\
        --scratch DIR --out record.json --spawned-at <monotonic> [--trace]

The workloads (see ``README.md`` for why each was chosen):

- ``fig5-cold`` — the Fig. 5 NVM grid, serial, no trace store;
- ``grids-store-2`` — the Fig. 5 and Fig. 6 grids through a 2-worker pool
  over a fresh trace store: a cold pass, then a warm pass;
- ``serve-churn`` — a 200-job arrival stream through the placement
  service, one client, each job settled before the next is sent.

``--seed`` is the graph generator seed of every app.  The program only
ever sees the generated inputs.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.workloads import (  # noqa: E402
    APP_KWARGS,
    BENCH_APPS,
    BENCH_DATASETS,
    reference_placement,
)
from repro.config import platform_by_name  # noqa: E402
from repro.serve import PlacementService, ServiceConfig, generate_arrivals  # noqa: E402
from repro.serve.arrivals import DEFAULT_ROSTER  # noqa: E402
from repro.serve.requests import AdmissionRejected  # noqa: E402
from repro.sim.parallel import (  # noqa: E402
    AppSpec,
    ExperimentJobError,
    ExperimentPool,
    JobSpec,
)
from repro.sim.tracecache import TraceCache  # noqa: E402

WORKLOADS = ("fig5-cold", "grids-store-2", "serve-churn")
#: The seed whose cell and job digests ``digests.json`` records.
DEFAULT_SEED = 7
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

GRID_SCALE = 4096
SERVE_SCALE = 8192
SERVE_JOBS = 200
#: The arrival stream is fixed: its op mix (how many admits and how
#: deep the phase chains get) sets most of the stream's cost, and it
#: swings the wall time 2.5x between generator seeds.  With the stream
#: fixed, ``--seed`` varies the tenants' graphs only.
ARRIVAL_SEED = 17

FIG5 = ("nvm_dram",)
FIG5_FIG6 = ("nvm_dram", "mcdram_dram")


def _mb(nbytes: float) -> float:
    return nbytes / 2**20


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MiB.

    ``ru_maxrss`` is KiB on Linux; for ``RUSAGE_CHILDREN`` it is the
    largest single descendant that has been waited for, which is the
    largest pool worker once the pool has shut down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024, child / 1024


def host_fingerprint() -> dict:
    """What the run's numbers depend on besides the code."""
    import numpy
    from repro.mem.cachejit import lru_kernel

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        # Without numba the JIT kernels resolve to None and every fold
        # takes the numpy path: the JIT layer is inert on such a host.
        "jit_active": lru_kernel() is not None,
        "load1_start": os.getloadavg()[0],
        "free_mb_start": _mb(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")),
    }


def _hex(value: float) -> str:
    return float(value).hex()


def cell_digest(cell) -> str:
    """Digest of a grid cell's simulated results."""
    fields = (
        _hex(cell.baseline.seconds),
        _hex(cell.reference.seconds),
        _hex(cell.atmem.seconds),
        _hex(cell.atmem.data_ratio),
        str(int(cell.atmem.migration.bytes_moved)),
    )
    return hashlib.sha256("|".join(fields).encode()).hexdigest()[:16]


def outcome_digest(outcome) -> str:
    """Digest of a served job's status and simulated result."""
    result = outcome.result or {}
    fields = [outcome.job.op, outcome.job.tenant, outcome.status]
    for name in sorted(result):
        value = result[name]
        fields.append(f"{name}={_hex(value) if isinstance(value, float) else value}")
    return hashlib.sha256("|".join(fields).encode()).hexdigest()[:16]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def grid_specs(
    platforms,
    seed: int,
    scale: int = GRID_SCALE,
    apps=BENCH_APPS,
    datasets=BENCH_DATASETS,
) -> list[JobSpec]:
    """The overall-grid cells (``flow="cell"``) of each platform."""
    specs = []
    for platform_name in platforms:
        platform = platform_by_name(platform_name, scale=max(1, scale // 2))
        for app in apps:
            for dataset in datasets:
                specs.append(
                    JobSpec(
                        app=AppSpec.make(
                            app, dataset, scale=scale, dataset_seed=seed,
                            **APP_KWARGS.get(app, {}),
                        ),
                        platform=platform,
                        flow="cell",
                        placement=reference_placement(platform_name),
                        tag=f"{platform_name}/{app}/{dataset}",
                    )
                )
    return specs


def run_cells(workers: int, specs: list[JobSpec]) -> dict:
    """Run every cell through a fresh pool; a raising cell does not abort.

    ``ExperimentPool.run`` raises on a cell that fails past its retries
    and drops the batch, so the failed cell is set aside and the rest are
    run again.
    """
    remaining = list(specs)
    failures: dict[str, str] = {}
    modes = []
    while remaining:
        pool = ExperimentPool(workers)
        try:
            cells = pool.run(remaining)
        except ExperimentJobError as exc:
            failures[exc.spec.tag] = f"{exc.kind}: {exc}"
            remaining = [spec for spec in remaining if spec != exc.spec]
            continue
        finally:
            modes.append(pool.last_mode)
            for name in pool.last_segments:
                if _leaked(name):
                    failures[f"shm:{name}"] = "graph segment outlived its pool"
        return {
            "digests": {s.tag: cell_digest(c) for s, c in zip(remaining, cells)},
            "speedups": [cell.speedup for cell in cells],
            "failures": failures,
            "modes": modes,
        }
    return {"digests": {}, "speedups": [], "failures": failures, "modes": modes}


def _leaked(segment: str) -> bool:
    """Whether a published graph segment outlived its pool (then unlink it)."""
    from multiprocessing import shared_memory

    try:
        leftover = shared_memory.SharedMemory(name=segment)
    except FileNotFoundError:
        return False
    leftover.close()
    leftover.unlink()
    return True


def _dir_mb(path: Path) -> float:
    return _mb(sum(f.stat().st_size for f in path.rglob("*") if f.is_file()))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Pass:
    """A set-up workload: ``run(clock)`` times one pass, ``close()`` cleans up."""

    def __init__(self, run, close=lambda: None) -> None:
        self.run = run
        self.close = close


def setup_fig5_cold(seed: int, scratch: Path, scale: int = GRID_SCALE) -> Pass:
    specs = grid_specs(FIG5, seed, scale)

    def run(clock) -> dict:
        start = clock()
        cells = run_cells(1, specs)
        return {"wall_s": clock() - start, "attempted": len(specs), **cells}

    return Pass(run)


def setup_grids_store_2(seed: int, scratch: Path, scale: int = GRID_SCALE) -> Pass:
    store = Path(os.environ["REPRO_TRACE_STORE"])
    store.mkdir(parents=True, exist_ok=False)
    specs = grid_specs(FIG5_FIG6, seed, scale)

    def run(clock) -> dict:
        start = clock()
        cold = run_cells(2, specs)
        wall = clock() - start
        store_mb = _dir_mb(store)
        start = clock()
        warm = run_cells(2, specs)
        warm_wall = clock() - start
        # A warm cell must reproduce its cold twin bit for bit.
        disagree = {
            tag: "warm digest differs from cold"
            for tag, digest in warm["digests"].items()
            if cold["digests"].get(tag, digest) != digest
        }
        return {
            "wall_s": wall,
            "warm_wall_s": warm_wall,
            "store_mb": store_mb,
            "attempted": 2 * len(specs),
            "digests": cold["digests"],
            "speedups": cold["speedups"],
            "failures": {
                **{f"cold:{t}": m for t, m in cold["failures"].items()},
                **{f"warm:{t}": m for t, m in warm["failures"].items()},
                **{f"warm:{t}": m for t, m in disagree.items()},
            },
            "modes": cold["modes"] + warm["modes"],
        }

    return Pass(run, lambda: shutil.rmtree(store, ignore_errors=True))


def serve_roster(seed: int, scale: int = SERVE_SCALE) -> tuple[AppSpec, ...]:
    return tuple(
        AppSpec.make(app, dataset, scale=scale, dataset_seed=seed)
        for app, dataset in DEFAULT_ROSTER
    )


def setup_serve_churn(
    seed: int, scratch: Path, scale: int = SERVE_SCALE, n_jobs: int = SERVE_JOBS
) -> Pass:
    jobs = generate_arrivals(n_jobs, seed=ARRIVAL_SEED, roster=serve_roster(seed, scale))
    config = ServiceConfig(
        platform=platform_by_name("nvm_dram", scale=max(1, scale // 2)),
        journal_root=scratch / "journal",
        seed=seed,
        audit=True,
    )
    service = PlacementService(config, trace_cache=TraceCache(store=None))
    loop = asyncio.new_event_loop()
    loop.run_until_complete(service.start())

    async def drive(clock) -> dict:
        latencies, digests, speedups, failures = [], {}, [], {}
        start = clock()
        for index, job in enumerate(jobs):
            label = f"{index:03d}:{job.op}:{job.tenant}"
            sent = clock()
            try:
                outcome = await service.submit(job)
            except AdmissionRejected as exc:
                latencies.append(clock() - sent)
                failures[label] = f"rejected: {exc.reason}"
                continue
            latencies.append(clock() - sent)
            digests[label] = outcome_digest(outcome)
            if not outcome.ok:
                failures[label] = f"{outcome.status}: {outcome.detail}"
            elif outcome.result:
                speedups.append(outcome.result["speedup"])
        return {
            "wall_s": clock() - start,
            "attempted": len(jobs),
            "latencies_s": latencies,
            "digests": digests,
            "speedups": speedups,
            "failures": failures,
        }

    def close() -> None:
        if not loop.is_closed():
            loop.run_until_complete(service.stop())
            loop.close()
        shutil.rmtree(config.journal_root, ignore_errors=True)

    return Pass(lambda clock: loop.run_until_complete(drive(clock)), close)


SETUPS = {
    "fig5-cold": setup_fig5_cold,
    "grids-store-2": setup_grids_store_2,
    "serve-churn": setup_serve_churn,
}


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (p95 of 200 leaves 10 above it)."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def summarize(raw: dict) -> dict:
    """Turn a timed pass's raw output into the record's metrics."""
    record = {
        key: raw[key]
        for key in ("wall_s", "warm_wall_s", "store_mb", "attempted", "digests", "modes")
        if key in raw
    }
    record["sim_speedup_geomean"] = geomean(raw["speedups"])
    latencies = sorted(raw.get("latencies_s", []))
    if latencies:
        record["decision_p50_ms"] = 1e3 * nearest_rank(latencies, 0.50)
        record["decision_p95_ms"] = 1e3 * nearest_rank(latencies, 0.95)
        record["decision_samples"] = len(latencies)
    record["failures"] = dict(raw["failures"])
    return record


def check_recorded(record: dict, workload: str, seed: int) -> dict:
    """At the default seed every digest must equal the recorded one."""
    if seed != DEFAULT_SEED:
        return {}
    recorded = json.loads(DIGESTS_PATH.read_text())
    table = recorded["serve" if workload == "serve-churn" else "cells"]
    return {
        f"recorded:{label}": "digest differs from digests.json"
        for label, digest in record["digests"].items()
        if table.get(label) != digest
    }


def record_digests(workload: str, record: dict) -> None:
    """Store a default-seed pass's digests as the reference."""
    recorded = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    recorded["seed"] = DEFAULT_SEED
    table = "serve" if workload == "serve-churn" else "cells"
    recorded[table] = dict(sorted({**recorded.get(table, {}), **record["digests"]}.items()))
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def run_pass(
    workload: str,
    seed: int,
    scratch: Path,
    spawned_at: float,
    *,
    trace: bool = False,
    setup_only: bool = False,
    check_digests: bool = True,
) -> dict:
    """Set up, time one pass, and return the pass record."""
    host = host_fingerprint()
    workload_pass = SETUPS[workload](seed, scratch)
    first_call = time.monotonic()
    record = {"workload": workload, "seed": seed, "setup_s": first_call - spawned_at}
    armed = None
    try:
        if setup_only:
            return record
        if trace:
            armed = layers.arm(scratch / "spans")
            first_call = time.monotonic()
        raw = workload_pass.run(time.monotonic)
        window = time.monotonic() - first_call
    finally:
        if armed is not None:
            armed.disarm()
        workload_pass.close()
    record.update(summarize(raw))
    if check_digests:
        record["failures"].update(check_recorded(record, workload, seed))
    record["window_s"] = window
    record["peak_rss_mb"], worker_peak = peak_rss_mb()
    if any(mode.startswith("parallel") for mode in record.get("modes", [])):
        record["worker_peak_rss_mb"] = worker_peak
    host["load1_end"] = os.getloadavg()[0]
    host["free_mb_end"] = _mb(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    host["loaded_at_start"] = host["load1_start"] > host["nproc"]
    record["host"] = host
    if armed is not None:
        armed.recorder.spill()
        spans, caches = layers.load_spans(scratch / "spans")
        metrics, table = layers.layer_metrics(
            spans, caches, armed.recorder.root_pid, window
        )
        record["layers"] = metrics
        record["layer_table"] = table
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"write this pass's digests to {DIGESTS_PATH.name}",
    )
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    record = run_pass(
        args.workload,
        args.seed,
        args.scratch,
        args.spawned_at,
        trace=args.trace,
        setup_only=args.setup_only,
        check_digests=not args.record_digests,
    )
    if args.record_digests and not args.setup_only:
        record_digests(args.workload, record)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
