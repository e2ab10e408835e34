"""Tests of the benchmark's own code (tiny inputs; a few seconds).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
from repro.sim.parallel import AppSpec, JobSpec  # noqa: E402
from repro.sim.tracecache import process_trace_cache  # noqa: E402

#: Graphs collapse toward their 64-vertex floor at this scale.
TINY = 1 << 16
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_specs(seed: int = 3) -> list[JobSpec]:
    return runner.grid_specs(
        ("nvm_dram",), seed, TINY, apps=("BFS", "PR"), datasets=("pokec", "rmat24")
    )


def cold_run(workers: int, specs: list[JobSpec]) -> dict:
    """Run cells with nothing left in this process's trace cache."""
    process_trace_cache().clear()
    return runner.run_cells(workers, specs)


def traced(tmp_path: Path, workers: int, specs: list[JobSpec]):
    """Run cells with the layer wrappers armed; return result, spans, window."""
    armed = layers.arm(tmp_path / "spans")
    start = time.monotonic()
    try:
        result = cold_run(workers, specs)
    finally:
        window = time.monotonic() - start
        armed.disarm()
    armed.recorder.spill()
    spans, caches = layers.load_spans(tmp_path / "spans")
    return result, spans, caches, window, armed.recorder.root_pid


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_and_untraced_runs_give_identical_digests(tmp_path, workers):
    specs = tiny_specs()
    plain = cold_run(workers, specs)
    result, spans, _, _, root = traced(tmp_path, workers, specs)
    assert plain["failures"] == {} and result["failures"] == {}
    assert result["digests"] == plain["digests"]
    assert len(result["digests"]) == len(specs)
    names = {span["name"] for span in spans}
    assert {"pool.run", "apps.run_once", "reusepack.fold", "tracecache.hit_mask"} <= names
    if workers == 2 and plain["modes"] == ["parallel[2]"]:
        assert any(span["pid"] != root for span in spans), "no worker spans merged"


def test_wrappers_are_removed_on_disarm(tmp_path):
    import repro.sim.parallel as parallel
    from repro.sim.tracecache import TraceCache

    before = (parallel.execute_job, TraceCache.hit_mask)
    layers.arm(tmp_path / "spans").disarm()
    assert (parallel.execute_job, TraceCache.hit_mask) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_layer_self_times_plus_unattributed_sum_to_wall(tmp_path, workers):
    _, spans, caches, window, root = traced(tmp_path, workers, tiny_specs(seed=5))
    metrics, table = layers.layer_metrics(spans, caches, root, window)
    attributed = sum(row["self_s"] for row in table.values())
    assert attributed > 0
    assert attributed + metrics["unattributed_s"] == pytest.approx(window, abs=1e-9)
    assert 0 <= metrics["unattributed_s"] < window
    assert set(metrics) == set(layers.LAYER_METRICS)
    if workers == 1:
        assert metrics["pool.busy_s"] == metrics["pool.idle_s"] == 0


def test_self_time_subtracts_child_coverage():
    spans = [
        {"pid": 1, "id": 0, "parent": None, "name": "a", "t0": 0.0, "t1": 10.0},
        {"pid": 1, "id": 1, "parent": 0, "name": "b", "t0": 1.0, "t1": 4.0},
        {"pid": 1, "id": 2, "parent": 0, "name": "c", "t0": 5.0, "t1": 6.0},
        {"pid": 1, "id": 3, "parent": 1, "name": "d", "t0": 2.0, "t1": 3.0},
    ]
    selfs = layers.self_times(spans)
    assert selfs == {(1, 0): 6.0, (1, 1): 2.0, (1, 2): 1.0, (1, 3): 1.0}


def test_every_metric_and_workload_name_is_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    names = workloads + end_to_end + per_layer
    assert all(NAME.fullmatch(name) for name in names), [
        n for n in names if not NAME.fullmatch(n)
    ]
    assert len(set(names)) == len(names)
    assert tuple(workloads) == run.WORKLOADS == runner.WORKLOADS
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == [*layers.LAYER_METRICS, *run.WORKLOAD_METRICS]
    units = {**run.END_TO_END, **layers.LAYER_METRICS, **run.WORKLOAD_METRICS}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_a_raising_cell_is_counted_and_does_not_abort_the_run(monkeypatch):
    monkeypatch.setenv("REPRO_JOB_BACKOFF", "0")
    specs = tiny_specs()
    bad = JobSpec(
        app=AppSpec.make("BFS", "no-such-dataset", scale=TINY),
        platform=specs[0].platform,
        flow="cell",
        placement="fast",
        tag="nvm_dram/BFS/no-such-dataset",
    )
    result = cold_run(1, [specs[0], bad, *specs[1:]])
    assert list(result["failures"]) == [bad.tag]
    assert set(result["digests"]) == {spec.tag for spec in specs}
    record = runner.summarize({**result, "wall_s": 1.0, "attempted": len(specs) + 1})
    record["peak_rss_mb"] = 1.0
    record["calibration_s"] = run.CAL_REF_S
    aggregated = run.aggregate([0.1], [record], None)
    assert aggregated["extra"]["failed_ratio"] == pytest.approx(1 / (len(specs) + 1))


def test_p95_leaves_ten_of_two_hundred_samples_beyond_it():
    values = [float(i) for i in range(200)]
    p95 = runner.nearest_rank(values, 0.95)
    assert sum(v > p95 for v in values) == 10


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
