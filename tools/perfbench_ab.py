"""A/B the benchmark: alternating base/change pairs and the gain verdict.

Usage (from the root of the repository, or ``make perfbench-ab``)::

    python tools/perfbench_ab.py --base HEAD~1 --workload fig5-cold --pairs 10
    python tools/perfbench_ab.py --workload grids-store-2 --workload serve-churn
    python tools/perfbench_ab.py --base HEAD --workload serve-churn --record benchmarks/ab

``--base`` is exported with ``git archive`` into a temporary directory
(no worktree, nothing written under the repository) and the working
tree is the change.  ``--workload`` may be repeated; each workload gets
its own pairs.  Each pair runs one untraced
``perfbench/run.py --seconds 1`` pass on each side, alternating which
side goes first.  For every end-to-end metric of ``BENCHMARK.json`` the
report gives each side's median and quartiles, the pairs the change
won, the verdict of the sandbox rule for claiming a gain (the change
wins at least nine tenths of the pairs, ties counting for neither side,
and the medians differ, in the better direction, by more than the
base's own interquartile range), and a ``worse`` flag when the change's
median is worse than the base's by more than the metric's ``bound``,
read as a fraction of the base median.  A pass that exits non-zero,
reports a failed job or is not ``correct`` drops its pair and makes the
command exit non-zero.

``--record DIR`` also writes one ``<workload>-seed<seed>.json`` per
workload into ``DIR``: the base revision, each metric's bound, samples,
quartiles, wins, margin and verdicts, and a host fingerprint (CPUs,
Python and NumPy versions, the one-minute load average before and after
the pairs), so a committed A/B result can be read back and judged
without re-running it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def verdict(
    base: list[float], change: list[float], better: str, bound: float = 0.0
) -> dict:
    """Summarise paired samples (``base[i]`` ran beside ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``.  ``gain`` is True only when
    the change won at least 9 of every 10 pairs *and* its median beats
    the base median by more than the base's interquartile range.
    ``worse`` is True when the change's median is worse than the base
    median by more than ``bound`` times the base median's magnitude
    (``bound`` 0.24 allows a 24 % regression).
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same non-zero number of samples per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    base_q = np.percentile(base, (25, 50, 75))
    change_q = np.percentile(change, (25, 50, 75))
    iqr = float(base_q[2] - base_q[0])
    margin = sign * float(base_q[1] - change_q[1])
    return {
        "pairs": len(base),
        "wins": int(wins),
        "base": [float(q) for q in base_q],
        "change": [float(q) for q in change_q],
        "base_iqr": iqr,
        "margin": margin,
        "gain": 10 * wins >= 9 * len(base) and margin > iqr,
        "worse": -margin > bound * abs(float(base_q[1])),
    }


def run_pass(checkout: Path, workload: str, seed: int) -> dict | None:
    """One untraced ``--seconds 1`` pass: its final JSON line, or ``None``.

    ``None`` means the pass exited non-zero; its stderr tail is printed.
    """
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"{workload} pass in {checkout} exited {proc.returncode}:\n{tail}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def format_row(name: str, unit: str, summary: dict) -> str:
    b, c = summary["base"], summary["change"]
    flags = "GAIN" if summary["gain"] else "no gain"
    if summary["worse"]:
        flags += ", WORSE than bound"
    return (
        f"{name:<20} {unit:<4} base {b[1]:10.4f} [{b[0]:.4f}, {b[2]:.4f}]  "
        f"change {c[1]:10.4f} [{c[0]:.4f}, {c[2]:.4f}]  "
        f"won {summary['wins']}/{summary['pairs']}  "
        f"margin {summary['margin']:+.4f} vs IQR {summary['base_iqr']:.4f}  "
        f"{flags}"
    )


def resolve(rev: str) -> str:
    """The commit ``rev`` names."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def host_fingerprint() -> dict:
    """What the host looks like now: CPUs, versions, one-minute load."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load1": os.getloadavg()[0],
    }


def summarise(samples: dict, metrics: list) -> dict:
    """Each sampled metric's unit, bound, samples and :func:`verdict`."""
    return {
        m["name"]: {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "samples": samples[m["name"]],
            **verdict(
                samples[m["name"]]["base"], samples[m["name"]]["change"],
                m["better"], m["bound"],
            ),
        }
        for m in metrics
        if samples[m["name"]]["base"]
    }


def race(
    sides: dict,
    workload: str,
    pairs: int,
    seed: int,
    metrics: list,
    *,
    record: Path | None = None,
    base: dict | None = None,
) -> int:
    """Run ``pairs`` alternating pairs of ``workload``; print its report.

    Returns the number of failed passes.  A pair with a failed pass is
    left out of the samples.  With ``record`` (a directory) the report
    is also written there as ``<workload>-seed<seed>.json``, with
    ``base`` (the base revision) and the host fingerprint.
    """
    host_start = host_fingerprint()
    samples = {m["name"]: {"base": [], "change": []} for m in metrics}
    failed = 0
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        results = {side: run_pass(sides[side], workload, seed) for side in order}
        bad = [
            side for side, result in results.items()
            if result is None or result["failed"] or not result["correct"]
        ]
        failed += len(bad)
        if not bad:
            for name, cell in samples.items():
                for side, result in results.items():
                    cell[side].append(float(result["metrics"][name]["value"]))
        state = f"failed on {', '.join(bad)}" if bad else "done"
        print(f"{workload} pair {pair + 1}/{pairs} {state} ({order[0]} first)", flush=True)
    print(f"{workload}, seed {seed}: {failed} failed")
    summaries = summarise(samples, metrics)
    for name, summary in summaries.items():
        print(format_row(name, summary["unit"], summary))
    print(json.dumps({"workload": workload, "seed": seed, "samples": samples}))
    if record is not None:
        host_end = host_fingerprint()
        host = {k: v for k, v in host_start.items() if k != "load1"}
        host.update(load1_start=host_start["load1"], load1_end=host_end["load1"])
        record.mkdir(parents=True, exist_ok=True)
        path = record / f"{workload}-seed{seed}.json"
        body = {
            "workload": workload,
            "seed": seed,
            "base": base,
            "pairs": pairs,
            "failed": failed,
            "host": host,
            "metrics": summaries,
        }
        path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
        print(f"recorded {path}")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument(
        "--workload", action="append",
        help="a perfbench workload; repeat for several (default fig5-cold)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--record", type=Path, metavar="DIR",
        help="also write each workload's report as JSON into DIR",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or ["fig5-cold"]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    failed = 0
    base = {"rev": args.base, "commit": resolve(args.base)}
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        base_dir = Path(tmp)
        export(args.base, base_dir)
        print(f"base {args.base}, seed {args.seed}, {args.pairs} pairs per workload")
        for workload in workloads:
            failed += race(
                {"base": base_dir, "change": ROOT},
                workload, args.pairs, args.seed, metrics,
                record=args.record, base=base,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
