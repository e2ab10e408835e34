"""A/B the benchmark: alternating base/change pairs and the gain verdict.

Usage (from the root of the repository, or ``make perfbench-ab``)::

    python tools/perfbench_ab.py --base HEAD~1 --workload fig5-cold --pairs 10

``--base`` is exported with ``git archive`` into a temporary directory
(no worktree, nothing written under the repository) and the working
tree is the change.  Each pair runs one untraced
``perfbench/run.py --seconds 1`` pass on each side, alternating which
side goes first.  For every end-to-end metric of ``BENCHMARK.json`` the
report gives each side's median and quartiles, the pairs the change
won, and the verdict of the sandbox rule for claiming a gain: the
change wins at least nine tenths of the pairs (ties count for neither
side) and the medians differ, in the better direction, by more than
the base's own interquartile range.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: list[float], change: list[float], better: str) -> dict:
    """Summarise paired samples (``base[i]`` ran beside ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``.  ``gain`` is True only when
    the change won at least 9 of every 10 pairs *and* its median beats
    the base median by more than the base's interquartile range.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same non-zero number of samples per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
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
    }


def run_pass(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced ``--seconds 1`` pass; returns its final JSON line."""
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0",
        ],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def format_row(name: str, unit: str, summary: dict) -> str:
    b, c = summary["base"], summary["change"]
    return (
        f"{name:<20} {unit:<4} base {b[1]:10.4f} [{b[0]:.4f}, {b[2]:.4f}]  "
        f"change {c[1]:10.4f} [{c[0]:.4f}, {c[2]:.4f}]  "
        f"won {summary['wins']}/{summary['pairs']}  "
        f"margin {summary['margin']:+.4f} vs IQR {summary['base_iqr']:.4f}  "
        f"{'GAIN' if summary['gain'] else 'no gain'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--workload", default="fig5-cold")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    samples = {m["name"]: {"base": [], "change": []} for m in metrics}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        base_dir = Path(tmp)
        export(args.base, base_dir)
        sides = {"base": base_dir, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_pass(sides[side], args.workload, args.seed)
                failed += int(result["failed"]) + (not result["correct"])
                for name, cell in samples.items():
                    cell[side].append(float(result["metrics"][name]["value"]))
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", flush=True)
    print(f"{args.workload}, seed {args.seed}, base {args.base}: {failed} failed")
    for m in metrics:
        cell = samples[m["name"]]
        print(format_row(m["name"], m["unit"], verdict(cell["base"], cell["change"], m["better"])))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": samples}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
