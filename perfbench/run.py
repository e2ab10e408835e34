"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload fig5-cold --seed 7 --seconds 10 --trace 0

Every pass runs in a fresh child process (``runner.py``) whose environment
has no ``REPRO_*`` variable except those the workload sets, and whose
trace store, journal and temporary files live in a scratch directory under
the checkout that is deleted when the run ends.  Passes repeat until
``--seconds`` have gone by (at least one pass); set-up time is sampled in
extra set-up-only children and reported as a median.

With ``--trace 0`` the run prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it makes one untraced and one traced
pass and prints the per-layer metrics, the self-time table and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from layers import LAYER_METRICS, LAYER_OF

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER = HERE / "runner.py"
SCRATCH = ROOT / ".perfbench-scratch"

WORKLOADS = ("fig5-cold", "grids-store-2", "serve-churn")
#: Set-up-only children per run, on top of the set-up of every pass.
SETUP_SAMPLES = 6
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0

#: The calibration kernel's median time on the reference host (2 vCPUs,
#: no co-tenant load).
CAL_REF_S = 0.17

END_TO_END = {
    "setup_s": "s",
    "ref_wall_s": "s",
    "peak_rss_mb": "MiB",
    "sim_speedup_geomean": "x",
}
#: End-to-end figures that are not gated: host-speed-sensitive raw times
#: and those only some workloads have.  They are measured with tracing
#: off and reported with the per-layer metrics.
WORKLOAD_METRICS = {
    "wall_s": "s",
    "calibration_s": "s",
    "warm_wall_s": "s",
    "decision_p50_ms": "ms",
    "decision_p95_ms": "ms",
    "decision_samples": "count",
    "worker_peak_rss_mb": "MiB",
    "store_mb": "MiB",
    "failed_ratio": "ratio",
    "trace_overhead": "ratio",
}


def calibrate(reps: int = 5) -> float:
    """Median seconds of a fixed numpy sort plus interpreter loop, now.

    Co-tenants on a shared host make every process up to a third faster
    or slower for a minute or two at a time.  Timed right before and
    after each pass, this kernel measures that factor, and ``ref_wall_s``
    divides it out of the pass's wall time.
    """
    keys = np.random.default_rng(0).integers(0, 1 << 40, 1 << 20)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        np.argsort(keys, kind="stable")
        sum(i & 7 for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ChildFailed(RuntimeError):
    """A child pass exited abnormally or ran out of the run's time budget."""


def child_env(scratch: Path, workload: str) -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if workload == "grids-store-2":
        env["REPRO_TRACE_STORE"] = str(scratch / "store")
    return env


def run_child(
    workload: str, seed: int, scratch: Path, deadline: float, *extra: str
) -> dict:
    """Run one child pass in its own session and return its record."""
    scratch.mkdir(parents=True)
    out = scratch / "record.json"
    argv = [
        sys.executable, str(RUNNER),
        "--workload", workload, "--seed", str(seed),
        "--scratch", str(scratch), "--out", str(out),
    ]
    env = child_env(scratch, workload)
    spawned_at = time.monotonic()
    child = subprocess.Popen(
        argv + ["--spawned-at", repr(spawned_at), *extra],
        env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Pool workers or trackers left in the child's session go too.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        # A killed pool parent cannot release its graph segments.
        for segment in Path("/dev/shm").glob(f"repro-{child.pid:x}-*"):
            segment.unlink(missing_ok=True)
        reason = "timed out" if code is None else f"exited with {code}"
        raise ChildFailed(f"{workload} pass {reason}")
    record = json.loads(out.read_text())
    shutil.rmtree(scratch)
    return record


def aggregate(setups: list[float], passes: list[dict], traced: dict | None) -> dict:
    """Combine the passes of one run (and its traced pass) into its result."""
    first = passes[0]
    checked = passes + ([traced] if traced is not None else [])
    failures = {}
    for index, record in enumerate(checked):
        failures.update({f"pass{index}:{k}": v for k, v in record["failures"].items()})
        if record["digests"] != first["digests"]:
            failures[f"pass{index}"] = "digests differ from the first pass"
    attempted = sum(r["attempted"] for r in checked)
    failed = len(failures)

    def median(key: str) -> float:
        return statistics.median(r[key] for r in passes)

    for record in passes:
        record["ref_wall_s"] = record["wall_s"] * CAL_REF_S / record["calibration_s"]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ref_wall_s": median("ref_wall_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "sim_speedup_geomean": first["sim_speedup_geomean"],
    }
    extra = {key: median(key) for key in WORKLOAD_METRICS if key in first}
    extra["failed_ratio"] = failed / attempted if attempted else 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "extra": extra,
    }


def print_report(args, setups, passes, result, traced=None) -> None:
    first = passes[0]
    host = first["host"]
    print(
        f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
        f"set-up samples={len(setups)} modes={first.get('modes', [])}"
    )
    print(
        f"host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"numba_imports={host['numba_imports']} jit_active={host['jit_active']}"
        + ("" if host["jit_active"] else " (JIT layer inert)")
    )
    for index, record in enumerate(passes):
        h = record["host"]
        print(
            f"  pass {index}: load1 {h['load1_start']:.2f} -> {h['load1_end']:.2f}, "
            f"free {h['free_mb_start']:.0f} -> {h['free_mb_end']:.0f} MiB, "
            f"wall {record['wall_s']:.3f} s, calibration {1e3 * record['calibration_s']:.1f} ms"
        )
    if any(r["host"]["loaded_at_start"] for r in passes):
        print("  warning: a pass started with its 1-minute load above nproc")
    units = {**END_TO_END, **WORKLOAD_METRICS}
    for name, value in {**result["end_to_end"], **result["extra"]}.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setups)})"
        elif name == "decision_p95_ms":
            n = int(result["extra"]["decision_samples"])
            note = f"  (nearest rank; {n - math.ceil(0.95 * n)} of {n} samples beyond it)"
        elif name == "ref_wall_s":
            note = f"  (wall_s x {CAL_REF_S} s / calibration_s"
            note += f"; median of {len(passes)} passes)" if len(passes) > 1 else ")"
        elif name in ("wall_s", "peak_rss_mb") and len(passes) > 1:
            note = f"  (median of {len(passes)} passes)"
        print(f"  {name:<22} {value:>14.4f} {units[name]}{note}")
    print(f"checks: attempted={result['attempted']} failed={result['failed']}")
    for label, reason in sorted(result["failures"].items())[:20]:
        print(f"  FAILED {label}: {reason}")
    if traced is not None:
        print_layers(traced)


def print_layers(traced: dict) -> None:
    table = traced["layer_table"]
    print(
        f"layers (traced window {traced['window_s']:.3f} s; "
        "self = benchmark process, worker = pool workers):"
    )
    print(f"  {'span':<30} {'layer':<14} {'calls':>8} {'total_s':>10} {'self_s':>10} {'worker_s':>10}")
    for name in sorted(table, key=lambda n: (LAYER_OF.get(n, n), n)):
        row = table[name]
        print(
            f"  {name:<30} {LAYER_OF.get(name, '?'):<14} {row['calls']:>8d} "
            f"{row['total_s']:>10.3f} {row['self_s']:>10.3f} {row['worker_self_s']:>10.3f}"
        )
    attributed = sum(row["self_s"] for row in table.values())
    unattributed = traced["layers"]["unattributed_s"]
    print(f"  {'unattributed_s':<30} {'':<14} {'':>8} {'':>10} {unattributed:>10.3f}")
    print(f"  {'sum = window':<30} {'':<14} {'':>8} {'':>10} {attributed + unattributed:>10.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="write this run's digests to digests.json (default seed only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = SCRATCH / f"run-{os.getpid()}"
    children = itertools.count()

    def child(*extra: str) -> dict:
        flags = list(extra) + (["--record-digests"] if args.record_digests else [])
        return run_child(
            args.workload, args.seed, scratch / f"c{next(children)}", deadline, *flags
        )

    try:
        setups = [child("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
        passes = []
        traced = None
        calibrations = [calibrate()]
        started = time.monotonic()
        while not passes or (not args.trace and time.monotonic() - started < args.seconds):
            passes.append(child())
            calibrations.append(calibrate())
            passes[-1]["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2
        if args.trace:
            traced = child("--trace")
            calibrations.append(calibrate())
            traced["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2
        setups += [r["setup_s"] for r in passes]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    result = aggregate(setups, passes, traced)
    print_report(args, setups, passes, result, traced)
    if traced is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    else:
        values = dict.fromkeys(WORKLOAD_METRICS, 0.0)
        values.update(result["extra"])
        untraced = passes[0]["window_s"] / passes[0]["calibration_s"]
        values["trace_overhead"] = traced["window_s"] / traced["calibration_s"] / untraced - 1.0
        values.update(traced["layers"])
        units = {**LAYER_METRICS, **WORKLOAD_METRICS}
        metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
