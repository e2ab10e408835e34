"""Observability overhead gate.

Runs one representative figure cell (PR/twitter smoke) serially twice:
with the telemetry plane **off** (no ``REPRO_TRACE``, the zero-cost
``_NULL_SPAN`` path) and **on** (span tracing armed to a scratch file,
metrics registry live).  Two guarantees are checked:

1. the produced figures are **bit-identical** between modes — tracing
   must observe the run, never perturb it;
2. the wall-clock overhead of the *on* mode stays under
   :data:`OVERHEAD_LIMIT` (3%).

Both modes replay the same memory-resident trace cache (primed once
before any timing), so the comparison isolates instrumentation cost
from trace construction.
"""

import os
import time

from repro.bench.workloads import _cell_spec
from repro.obs import reset_all
from repro.obs.tracer import TRACE_ENV, reset_process_tracer
from repro.sim.parallel import execute_job
from repro.sim.tracecache import TraceCache

#: Maximum tolerated fractional wall overhead with telemetry armed.
OVERHEAD_LIMIT = 0.03

#: Timing repetitions per mode; the minimum is what the machine can do.
ROUNDS = 5


def _figures(cell) -> tuple:
    """The deterministic figure payload of one cell result."""
    return (
        cell.baseline.seconds,
        cell.reference.seconds,
        cell.atmem.seconds,
        cell.atmem.data_ratio,
        cell.atmem.migration.bytes_moved,
    )


def _best_of(n, fn):
    best, result = float("inf"), None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_obs_overhead(once, tmp_path):
    spec = _cell_spec("nvm_dram", "PR", "twitter")
    cache = TraceCache(store=None)
    once(lambda: execute_job(spec, trace_cache=cache))  # prime, untimed mode

    saved = os.environ.get(TRACE_ENV)
    try:
        os.environ.pop(TRACE_ENV, None)
        reset_process_tracer()
        reset_all()
        off_seconds, off_cell = _best_of(
            ROUNDS, lambda: execute_job(spec, trace_cache=cache)
        )

        os.environ[TRACE_ENV] = str(tmp_path / "obs-overhead.trace")
        reset_process_tracer()
        reset_all()
        on_seconds, on_cell = _best_of(
            ROUNDS, lambda: execute_job(spec, trace_cache=cache)
        )
    finally:
        if saved is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = saved
        reset_process_tracer()
        reset_all()

    # Zero-cost-off means zero-effect-on: same inputs, same figures.
    assert _figures(off_cell) == _figures(on_cell)

    overhead = on_seconds / max(off_seconds, 1e-9) - 1.0
    assert overhead < OVERHEAD_LIMIT, (
        f"telemetry overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_LIMIT:.0%} budget "
        f"(on={on_seconds:.4f}s off={off_seconds:.4f}s)"
    )
