"""Simulation driver: runs applications on the simulated memory system.

- :mod:`repro.sim.executor` — charges an access trace against the LLC,
  page table, TLB, and cost model, optionally feeding the ATMem profiler.
- :mod:`repro.sim.experiment` — the paper's experiment flows: static
  placements (all-slow baseline, all-fast ideal, preferred), the full ATMem
  two-iteration flow, and the coarse-grained whole-object baseline.
- :mod:`repro.sim.metrics` — small result containers and derived metrics.
- :mod:`repro.sim.parallel` — the parallel experiment engine: picklable
  job specs fanned out across a process pool, with serial fallback.
- :mod:`repro.sim.tracecache` — content-keyed cache reusing deterministic
  traces and LLC hit masks across placements and sweep points.
- :mod:`repro.sim.reusepack` — compiled reuse profiles: one
  capacity-independent fold per trace, stored as two int64 gap rows,
  from which every working-set LLC geometry's hit mask (and miss-ratio
  curve) derives by one integer threshold solve.
- :mod:`repro.sim.profilepack` — compiled miss profiles: per-(phase,
  page) histograms that price placements in O(pages) without replay.
- :mod:`repro.sim.tracestore` — persistent content-keyed store sharing
  all four artifacts across worker processes and sessions.
"""

from repro.sim.executor import TraceExecutor
from repro.sim.experiment import (
    AtMemRunResult,
    StaticRunResult,
    run_atmem,
    run_coarse_grained,
    run_static,
)
from repro.sim.metrics import RunCost
from repro.sim.parallel import (
    AppSpec,
    CellResult,
    ExperimentJobError,
    ExperimentPool,
    JobSpec,
    execute_job,
    resolve_jobs,
    run_jobs,
)
from repro.sim.tracecache import TraceCache, process_trace_cache

__all__ = [
    "AppSpec",
    "AtMemRunResult",
    "CellResult",
    "ExperimentJobError",
    "ExperimentPool",
    "JobSpec",
    "RunCost",
    "StaticRunResult",
    "TraceCache",
    "TraceExecutor",
    "execute_job",
    "process_trace_cache",
    "resolve_jobs",
    "run_atmem",
    "run_coarse_grained",
    "run_jobs",
    "run_static",
]
