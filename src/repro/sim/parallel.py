"""Parallel experiment engine: process-pool fan-out of experiment cells.

The paper's evaluation is a large grid — apps x datasets x placements,
plus parameter sweeps — and every cell is *independent*: it builds its own
simulated memory system, registers a fresh application, and reports its
own result.  This module fans those cells out across worker processes:

- :class:`AppSpec` — a picklable, callable recipe for an application
  (app name, dataset name, scale, constructor kwargs).  It satisfies the
  ``app_factory`` contract of :mod:`repro.sim.experiment`, so the same
  object drives serial and parallel runs.
- :class:`JobSpec` — one experiment cell: an app spec, a platform, a flow
  (``static`` / ``atmem`` / ``coarse`` / ``cell`` / ``multitenant``), and
  the cell's knobs.  Specs are frozen, hashable, and picklable.
- :class:`ExperimentPool` — runs a batch of specs on a
  ``ProcessPoolExecutor``, collecting results in submission order.  A
  worker failure surfaces as :class:`ExperimentJobError` with the failing
  spec attached.  ``max_workers=1`` (or a pool that cannot start) falls
  back to in-process serial execution of the *same* job path.

The serial path is **key-grouped**: it runs the pending jobs one trace
key at a time (keys in first-appearance order, a key's jobs in spec
order) and releases each key from the process
:class:`~repro.sim.tracecache.TraceCache` after its last job succeeds.
A serial batch so holds one key's trace and artifacts at a time, and a
key whose cells span two LLC geometries (Fig. 5 and Fig. 6) folds once.

The pool is **self-healing**: each job gets a wall-clock budget
(``REPRO_JOB_TIMEOUT`` seconds; unset disables) and a bounded retry
budget (``REPRO_JOB_RETRIES``, default 2) with exponential backoff
(``REPRO_JOB_BACKOFF`` base seconds).  A job that crashes is retried; a
worker that dies outright (``BrokenProcessPool``) or hangs past the
timeout gets the whole pool killed and re-created, with every unfinished
job resubmitted at the next attempt number.  Attempt numbers feed the
:mod:`repro.faults` job context, so chaos faults gated on ``max_attempt``
fire exactly once and the retried batch converges to fault-free results
(jobs re-seed their RNG from spec content, so a rerun is bit-identical).
:class:`PoolHealth` on the pool records timeouts, crashes, retries, and
pool restarts for post-run inspection.

The pool is **cache-aware**: before fanning out it derives a dispatch
plan from the jobs' trace keys and the persistent trace store
(:mod:`repro.sim.tracestore`).  Store-cold keys are **primed** first:
one worker stage per key builds the trace, saves it to the store, and
derives the hit mask and page profile of every LLC geometry among the
key's cells from one reuse fold, so the key's cells dispatch
store-warm.  Priming concurrency is **admission-clamped** to the CPUs
this process may run on.  Priming is best effort: a key whose stage
fails is rebuilt by its cells under the store's single-flight lease.
The cells then fan out longest-expected-first.  The parent also
pre-builds every referenced dataset and publishes its CSR arrays as
read-only shared-memory segments (:mod:`repro.graph.shm`), released in a ``finally`` even when workers
crash.  Per-job cache telemetry (cold / warm / warm-from-store), the
admission decision, and peak worker RSS land in :class:`PoolHealth`.

Determinism: every job runs :func:`execute_job`, which seeds NumPy's
global RNG from the spec's content hash before executing, and all model
randomness (sampling profiler, dataset generators) is already locally
seeded.  Workers share no *mutable* state — each process keeps its own
memoised datasets and :class:`repro.sim.tracecache.TraceCache`, and the
shared store/segments hold immutable content-keyed artifacts — so a
parallel grid is bit-identical to a serial one regardless of dispatch
order (results are indexed by submission order; see
``tests/test_sim_parallel.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
import zlib
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.config import PlatformConfig
from repro.core.runtime import RuntimeConfig
from repro.errors import ConfigurationError, ReproError
from repro.faults.injector import (
    InjectedWorkerCrash,
    fault_point,
    is_injected,
    job_context,
)
from repro.faults.plan import SITE_POOL_CRASH, SITE_POOL_EXIT, SITE_POOL_HANG
from repro.graph import shm as graph_shm
from repro.mem.cache import LINE_SIZE, WorkingSetCache
from repro.obs import absorb_all, drain_all, reset_all
from repro.obs.bus import Event, process_bus
from repro.obs.metrics import process_metrics
from repro.obs.tracer import span
from repro.sim.artifacts import TRACE
from repro.sim.experiment import (
    AtMemRunResult,
    StaticRunResult,
    run_atmem,
    run_coarse_grained,
    run_static,
)
from repro.sim.tracecache import TraceCache, process_trace_cache
from repro.sim.tracestore import process_trace_store

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Per-job wall-clock budget in seconds (unset / <= 0 disables).
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Retries per failed / timed-out job (default 2).
JOB_RETRIES_ENV = "REPRO_JOB_RETRIES"

#: Base seconds of the exponential retry backoff (default 0.05).
JOB_BACKOFF_ENV = "REPRO_JOB_BACKOFF"

#: How long an injected ``pool.hang`` sleeps when the spec has no param.
DEFAULT_HANG_SECONDS = 30.0

FLOWS = ("static", "atmem", "coarse", "cell", "multitenant")


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit arg, else ``REPRO_JOBS``, else 1."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(JOBS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    return 1


def pool_cpus() -> int:
    """How many CPUs priming may assume: this process's CPU affinity.

    Worker *count* is a user choice; priming *concurrency* is an
    admission decision — priming jobs are CPU- and memory-bound, so
    running more of them than there are usable cores only adds
    contention.  ``taskset`` narrows the affinity, and so the clamp.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity API (macOS)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AppSpec:
    """Picklable application recipe; calling it instantiates the app.

    Datasets are resolved by name in whatever process the spec is called
    in (memoised per process by :mod:`repro.graph.datasets`), so shipping
    an ``AppSpec`` to a worker costs a few hundred bytes, not a graph.
    """

    app: str
    dataset: str
    scale: int = 1024
    kwargs: tuple[tuple[str, Any], ...] = ()
    dataset_seed: int = 7

    @classmethod
    def make(
        cls, app: str, dataset: str, *, scale: int = 1024, dataset_seed: int = 7, **kwargs
    ) -> "AppSpec":
        """Build a spec from plain constructor kwargs."""
        return cls(
            app=app,
            dataset=dataset,
            scale=scale,
            dataset_seed=dataset_seed,
            kwargs=tuple(sorted(kwargs.items())),
        )

    def trace_key(self) -> tuple:
        """Content key of this app's deterministic access trace."""
        return (self.app, self.dataset, self.scale, self.kwargs, self.dataset_seed)

    def to_json(self) -> dict:
        """JSON-safe form for journals; inverse of :meth:`from_json`.

        ``kwargs`` values must themselves be JSON-representable scalars
        (they are, for every app the registry ships); tuples inside
        kwargs would come back as lists and change the trace key.
        """
        return {
            "app": self.app,
            "dataset": self.dataset,
            "scale": self.scale,
            "kwargs": [[k, v] for k, v in self.kwargs],
            "dataset_seed": self.dataset_seed,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AppSpec":
        """Rebuild a spec from :meth:`to_json` output (bit-identical key)."""
        return cls(
            app=str(payload["app"]),
            dataset=str(payload["dataset"]),
            scale=int(payload["scale"]),
            kwargs=tuple((str(k), v) for k, v in payload.get("kwargs", [])),
            dataset_seed=int(payload.get("dataset_seed", 7)),
        )

    def expected_cost(self) -> float:
        """Relative cold cost of tracing this app (bigger graph = costlier)."""
        from repro.graph.datasets import PAPER_SIZES

        _, paper_edges = PAPER_SIZES.get(self.dataset, (0, 30_000_000))
        return paper_edges / max(1, self.scale)

    def __call__(self):
        from repro.apps import make_app
        from repro.graph.datasets import dataset_by_name

        graph = dataset_by_name(self.dataset, scale=self.scale, seed=self.dataset_seed)
        return make_app(self.app, graph, **dict(self.kwargs))


@dataclass(frozen=True)
class JobSpec:
    """One experiment cell, fully described by picklable values.

    ``flow`` selects the experiment:

    - ``"static"`` — :func:`repro.sim.experiment.run_static` under
      ``placement``;
    - ``"atmem"`` — the full ATMem flow with ``runtime_config``;
    - ``"coarse"`` — the whole-object baseline;
    - ``"cell"`` — one overall-grid cell: baseline (all-slow), reference
      (``placement``), and ATMem, sharing one trace-cache entry;
    - ``"multitenant"`` — a shared-host scenario over ``tenants``.

    ``value`` and ``tag`` are caller bookkeeping (sweep coordinate, series
    label) carried through untouched.
    """

    app: AppSpec | None
    platform: PlatformConfig
    flow: str = "atmem"
    placement: str = "slow"
    runtime_config: RuntimeConfig | None = None
    count_tlb: bool = False
    value: float | None = None
    seed: int | None = None
    tag: str = ""
    tenants: tuple[tuple[str, AppSpec], ...] = ()

    def __post_init__(self) -> None:
        if self.flow not in FLOWS:
            raise ConfigurationError(
                f"unknown flow {self.flow!r}; expected one of {FLOWS}"
            )
        if self.flow == "multitenant":
            if not self.tenants:
                raise ConfigurationError("multitenant flow requires tenants")
        elif self.app is None:
            raise ConfigurationError(f"flow {self.flow!r} requires an app spec")

    def trace_key(self) -> tuple:
        """Content key of the app's deterministic access trace."""
        app = self.app
        if app is None:
            return ("multitenant", self.tenants)
        return app.trace_key()

    def dataset_keys(self) -> set[tuple[str, int, int]]:
        """Every ``(dataset, scale, seed)`` this job resolves."""
        apps = [self.app] if self.app is not None else []
        apps.extend(app for _, app in self.tenants)
        return {(app.dataset, app.scale, app.dataset_seed) for app in apps}

    def expected_cost(self) -> float:
        """Relative wall-clock estimate used to order dispatch.

        Flows re-run the traced app a different number of times: a
        ``cell`` is three full runs (baseline / reference / ATMem), the
        single flows roughly two (profile + measure), multitenant two per
        tenant.  Only the *ordering* matters, so crude weights suffice.
        """
        weight = {"cell": 3.0, "static": 2.0, "atmem": 2.0, "coarse": 2.0}
        if self.flow == "multitenant":
            return sum(app.expected_cost() * 2.0 for _, app in self.tenants)
        return (self.app.expected_cost() if self.app else 1.0) * weight.get(
            self.flow, 2.0
        )

    def job_seed(self) -> int:
        """Deterministic per-job seed, independent of scheduling order."""
        if self.seed is not None:
            return self.seed
        blob = repr(
            (
                self.trace_key(),
                self.platform.name,
                self.flow,
                self.placement,
                self.runtime_config,
                self.count_tlb,
                self.value,
                self.tag,
            )
        ).encode()
        return zlib.crc32(blob)


@dataclass
class CellResult:
    """Baseline / reference / ATMem triple for one overall-grid cell."""

    baseline: StaticRunResult
    reference: StaticRunResult
    atmem: AtMemRunResult

    @property
    def speedup(self) -> float:
        """ATMem speedup over the all-slow baseline."""
        return self.baseline.seconds / self.atmem.seconds

    @property
    def slowdown_vs_reference(self) -> float:
        """ATMem time relative to the reference placement."""
        return self.atmem.seconds / self.reference.seconds


class ExperimentJobError(ReproError):
    """A worker failed; carries the failing spec and the worker traceback."""

    def __init__(self, spec: JobSpec, kind: str, message: str, worker_tb: str = "") -> None:
        self.spec = spec
        self.kind = kind
        self.worker_traceback = worker_tb
        super().__init__(f"experiment job failed ({kind}: {message}) for spec {spec!r}")


# ----------------------------------------------------------------------
# job execution (shared by workers and the serial fallback)
# ----------------------------------------------------------------------
def execute_job(spec: JobSpec, *, trace_cache: TraceCache | None = None):
    """Run one job in the current process.

    Seeds the global NumPy RNG from the spec content first, so any code
    that (incorrectly) reaches for global randomness still behaves
    identically regardless of which worker runs the job or in what order.
    """
    np.random.seed(spec.job_seed() & 0x7FFFFFFF)
    cache = process_trace_cache() if trace_cache is None else trace_cache
    key = spec.trace_key()
    if spec.flow == "static":
        return run_static(
            spec.app,
            spec.platform,
            spec.placement,
            count_tlb=spec.count_tlb,
            trace_cache=cache,
            trace_key=key,
        )
    if spec.flow == "atmem":
        return run_atmem(
            spec.app,
            spec.platform,
            runtime_config=spec.runtime_config,
            count_tlb=spec.count_tlb,
            trace_cache=cache,
            trace_key=key,
        )
    if spec.flow == "coarse":
        return run_coarse_grained(
            spec.app, spec.platform, trace_cache=cache, trace_key=key
        )
    if spec.flow == "cell":
        return CellResult(
            baseline=run_static(
                spec.app, spec.platform, "slow",
                count_tlb=spec.count_tlb, trace_cache=cache, trace_key=key,
            ),
            reference=run_static(
                spec.app, spec.platform, spec.placement,
                count_tlb=spec.count_tlb, trace_cache=cache, trace_key=key,
            ),
            atmem=run_atmem(
                spec.app, spec.platform,
                runtime_config=spec.runtime_config,
                count_tlb=spec.count_tlb, trace_cache=cache, trace_key=key,
            ),
        )
    # multitenant: imported lazily to avoid a module cycle.
    from repro.sim.multitenant import MultiTenantHost

    host = MultiTenantHost(
        spec.platform,
        runtime_config=spec.runtime_config or RuntimeConfig(),
        trace_cache=cache,
    )
    for name, app_spec in spec.tenants:
        host.admit(name, app_spec)
    return host.run()


def job_timeout() -> float | None:
    """Per-job wall-clock budget from ``REPRO_JOB_TIMEOUT`` (``None``: off)."""
    raw = os.environ.get(JOB_TIMEOUT_ENV)
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOB_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    return value if value > 0 else None


def job_retries() -> int:
    """Retries per failed job from ``REPRO_JOB_RETRIES`` (default 2)."""
    raw = os.environ.get(JOB_RETRIES_ENV)
    if raw is None or raw == "":
        return 2
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOB_RETRIES_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(f"{JOB_RETRIES_ENV} must be >= 0, got {value}")
    return value


def job_backoff() -> float:
    """Base seconds of the retry backoff from ``REPRO_JOB_BACKOFF``."""
    raw = os.environ.get(JOB_BACKOFF_ENV)
    if raw is None or raw == "":
        return 0.05
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOB_BACKOFF_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    return max(0.0, value)


@dataclass
class PoolHealth:
    """What it took to finish the batch: every recovery, counted."""

    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    pool_restarts: int = 0
    serial_fallbacks: int = 0
    #: Jobs that had to build a trace or simulate an LLC mask themselves.
    cold_jobs: int = 0
    #: Jobs served entirely from in-memory cache entries.
    warm_jobs: int = 0
    #: Jobs that loaded at least one artifact from the persistent store.
    store_jobs: int = 0
    #: Store-cold trace keys the dispatch plan had to prime.
    cold_keys: int = 0
    #: Cold-stage concurrency after the admission clamp (0: no cold plan).
    cold_admitted: int = 0
    #: Peak worker RSS in bytes reported by any worker this run (0: none
    #: reported — serial runs, or a platform without ``getrusage``).
    max_worker_rss_bytes: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.notes.append(message)

    @property
    def clean(self) -> bool:
        """True when the batch needed no recovery at all."""
        return (
            self.timeouts == 0
            and self.crashes == 0
            and self.retries == 0
            and self.pool_restarts == 0
        )

    def as_dict(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "retries": self.retries,
            "pool_restarts": self.pool_restarts,
            "serial_fallbacks": self.serial_fallbacks,
            "cold_jobs": self.cold_jobs,
            "warm_jobs": self.warm_jobs,
            "store_jobs": self.store_jobs,
            "cold_keys": self.cold_keys,
            "cold_admitted": self.cold_admitted,
            "max_worker_rss_bytes": self.max_worker_rss_bytes,
            "notes": list(self.notes),
        }

    def tally_cache_use(self, kind: str | None) -> None:
        """Count one finished job's cache behaviour (``None``: unknown)."""
        if kind == "cold":
            self.cold_jobs += 1
        elif kind == "store":
            self.store_jobs += 1
        elif kind == "warm":
            self.warm_jobs += 1


@dataclass
class _Job:
    """Parent-side tracking record for one spec in flight."""

    spec: JobSpec
    index: int
    attempt: int = 0


def _cache_snapshot() -> tuple[int, int, int, int]:
    """The process cache counters that classify a job's cache behaviour."""
    stats = process_trace_cache().stats
    return (
        stats.trace_misses,
        stats.store_trace_hits,
        stats.mask_misses,
        stats.store_mask_hits,
    )


def _classify_cache_use(
    before: tuple[int, int, int, int], after: tuple[int, int, int, int]
) -> str:
    """``cold`` built something, ``store`` loaded from disk, else ``warm``.

    A trace build is a ``trace_misses`` increment *not* matched by a
    ``store_trace_hits`` increment (same for masks), per the counting in
    :class:`repro.sim.tracecache.TraceCache`.
    """
    d_miss, d_store_t, d_mask_miss, d_store_m = (
        a - b for a, b in zip(after, before)
    )
    built = (d_miss - d_store_t) + (d_mask_miss - d_store_m)
    if built > 0:
        return "cold"
    if d_store_t > 0 or d_store_m > 0:
        return "store"
    return "warm"


def _pool_entry(spec: JobSpec, attempt: int = 0):
    """Worker-side wrapper: never lets an exception cross unpickled.

    ``attempt`` is the parent-tracked retry number; it scopes the
    :mod:`repro.faults` job context so ``max_attempt``-gated pool faults
    disarm on retry even though a fresh worker process has fresh firing
    counters.  The three pool sites model the three worker pathologies:
    an exception (``pool.crash``), sudden death (``pool.exit`` —
    ``os._exit``, which the parent sees as ``BrokenProcessPool``), and a
    hang (``pool.hang`` — sleeps ``param`` seconds, which the parent's
    job timeout must catch).

    Observability contract: the worker's obs state is **reset at entry**
    (fork-inherited parent buffers must not double-ship) and **drained at
    exit** into the payload's final element — events, metric deltas, and
    spans — which the parent absorbs in ``_settle``.  The job's cache-use
    classification (cold / store / warm) rides home as a buffered
    ``pool.cache_use`` event, so parent-side health accounting comes from
    worker-buffered events rather than parent mutation.  A worker's
    spans therefore come home only through the blob: a worker killed
    before it returns loses them, and the retry records its own.
    """
    reset_all()
    try:
        with job_context(attempt=attempt, tag=spec.tag):
            fired = fault_point(SITE_POOL_EXIT, tag=spec.tag, detail="worker exit")
            if fired is not None:
                os._exit(int(fired.param) if fired.param else 17)
            fired = fault_point(SITE_POOL_HANG, tag=spec.tag, detail="worker hang")
            if fired is not None:
                time.sleep(fired.param if fired.param else DEFAULT_HANG_SECONDS)
            fired = fault_point(SITE_POOL_CRASH, tag=spec.tag, detail="worker crash")
            if fired is not None:
                raise InjectedWorkerCrash(
                    f"injected crash in job {spec.tag or spec.flow!r} "
                    f"(attempt {attempt})"
                )
            before = _cache_snapshot()
            with span(
                "pool.job",
                cat="pool",
                tag=spec.tag or spec.flow,
                attempt=attempt,
            ):
                result = execute_job(spec)
            kind = _classify_cache_use(before, _cache_snapshot())
            process_bus().emit(
                "pool.cache_use", kind, source="pool", tag=spec.tag
            )
            process_metrics().inc(f"pool.{kind}_jobs")
            _emit_worker_rss()
            return ("ok", result, drain_all())
    except Exception as exc:  # noqa: BLE001 — re-raised with spec in parent
        return (
            "err", type(exc).__name__, str(exc), traceback.format_exc(),
            drain_all(),
        )


# ----------------------------------------------------------------------
# cold-path priming stages
# ----------------------------------------------------------------------
def _emit_worker_rss() -> None:
    """Buffer this process's peak RSS for the parent's health accounting.

    The amount rides the obs blob home as a ``pool.worker_rss`` event and
    max-folds into :attr:`PoolHealth.max_worker_rss_bytes`.  ``ru_maxrss``
    is kilobytes on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:
        return
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    process_bus().emit(
        "pool.worker_rss",
        source="pool",
        amount=float(rss) * scale,
    )


def _registered_app(spec: JobSpec):
    """The spec's app, registered on a throwaway runtime.

    ``run_once`` requires registration first (virtual addresses are
    assigned in registration order).  Placement does not affect trace
    content — addresses are virtual — so priming registers everything on
    the slow tier like the baseline flow does.
    """
    from repro.core.runtime import AtMemRuntime

    system = spec.platform.build_system()
    runtime = AtMemRuntime(system, platform=spec.platform)
    runtime.default_tier = system.slow_tier
    app = spec.app()
    app.register(runtime)
    return app


def prime_artifacts(
    spec: JobSpec,
    geometries: Sequence[tuple[int, int]],
    cache: TraceCache | None = None,
) -> None:
    """Prime one store-cold key: build its trace and fold its artifacts.

    One process builds the trace and saves it to the store whatever the
    write policy says, because the key's cells run in other processes.
    It then derives the LLC hit mask and the page miss profile of every
    ``(size_bytes, line_size)`` geometry in ``geometries`` (those of the
    key's cells).  The masks share the reuse profile the cache memoises
    with the trace, so a key folds once however many geometries its
    cells use (unless ``REPRO_TRACE_CACHE=0`` turns memoisation off).
    The cache persists masks and profiles under the write policy, so
    the key's cells dispatch store-warm afterwards.
    """
    cache = process_trace_cache() if cache is None else cache
    key = spec.trace_key()
    trace = cache.trace(key, _registered_app(spec).run_once)
    store = cache.store
    if store is not None and not store.has(TRACE, key):
        store.save_trace(key, trace)
    for size_bytes, line_size in geometries:
        llc = WorkingSetCache(size_bytes, line_size=line_size)
        hits = cache.hit_mask(key, llc, trace)
        cache.profile(key, llc, trace, hits)


def _stage_entry(
    spec: JobSpec, geometries: Sequence[tuple[int, int]], attempt: int = 0
):
    """Worker-side wrapper for one key's priming (mirrors ``_pool_entry``).

    Same obs contract — reset at entry, drain into the payload — and the
    same never-raise rule, but no pool fault sites: priming is best
    effort, so a failed prime is reported and *not* retried (the key's
    cells rebuild whatever is missing).
    """
    reset_all()
    try:
        with job_context(attempt=attempt, tag=spec.tag):
            with span(
                "pool.stage",
                cat="pool",
                tag=spec.tag or spec.flow,
                attempt=attempt,
            ):
                prime_artifacts(spec, geometries)
            _emit_worker_rss()
            return ("ok", None, drain_all())
    except Exception as exc:  # noqa: BLE001 — reported best-effort in parent
        return (
            "err", type(exc).__name__, str(exc), traceback.format_exc(),
            drain_all(),
        )


@dataclass
class _ColdPlan:
    """Store-cold keys to prime, and how many primes may run at once."""

    #: One representative (heaviest) job per store-cold trace key.
    jobs_by_key: dict
    #: Sorted LLC ``(size_bytes, line_size)`` geometries of each cold
    #: key's cells: the prime derives a mask and profile for each.
    geometries: dict
    #: Priming concurrency after the admission clamp.
    admitted: int


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class ExperimentPool:
    """Fan a batch of :class:`JobSpec` out across worker processes.

    Results come back in submission order.  With ``max_workers=1``, a
    single-spec batch, or a pool that fails to start (sandboxed
    environments, missing semaphores), execution degrades to an in-process
    serial loop over the *same* :func:`execute_job` path, so results are
    identical either way.

    Recovery, in escalating order:

    - a job whose worker returns an ``err`` payload is resubmitted up to
      ``REPRO_JOB_RETRIES`` times with exponential backoff;
    - a job that exceeds ``REPRO_JOB_TIMEOUT`` or whose worker dies
      (``BrokenProcessPool``) gets the executor killed and re-created,
      with *every* unfinished job resubmitted one attempt later — the
      attempt bump is what bounds crash rounds, because chaos faults
      gate on ``max_attempt`` in the parent-tracked attempt number;
    - a pool that cannot be restarted (restart budget exhausted or the
      host refuses new pools) falls back to the serial path for whatever
      is still unfinished.

    Jobs are side-effect free and content-seeded, so a retried or
    serially-rerun job is bit-identical to its first try.  The tally of
    recoveries lands in :attr:`health`.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = resolve_jobs(max_workers)
        #: Filled after each :meth:`run`: how the batch actually executed.
        self.last_mode: str = "unstarted"
        #: Recovery tally of the last :meth:`run`.
        self.health = PoolHealth()
        #: Names of the shm segments published for the last :meth:`run`
        #: (kept after release, so tests can assert they were unlinked).
        self.last_segments: list[str] = []
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> list:
        """Execute every spec; return their results in order."""
        specs = list(specs)
        self.health = PoolHealth()
        self.last_segments = []
        if not specs:
            self.last_mode = "empty"
            return []
        jobs = [_Job(spec=spec, index=i) for i, spec in enumerate(specs)]
        results: list = [None] * len(specs)
        done = [False] * len(specs)
        workers = min(self.max_workers, len(specs))
        # Health accounting is event-driven: recoveries and cache
        # classifications — parent-detected or worker-buffered — arrive
        # on the process bus and are tallied by one subscriber.
        unsubscribe = process_bus().subscribe(
            self._on_pool_event, prefix="pool."
        )
        published = None
        try:
            with span(
                "pool.dispatch", cat="pool", jobs=len(specs), workers=workers
            ):
                if workers > 1:
                    published = self._publish_graphs(specs)
                if workers > 1:
                    self._run_parallel(jobs, results, done, workers)
                self._run_serial(jobs, results, done)
        finally:
            unsubscribe()
            if published is not None:
                self.last_segments = published.segment_names
                graph_shm.release(published)
        return results

    def _on_pool_event(self, event: Event) -> None:
        """Fold one ``pool.*`` event into :attr:`health`.

        The same handler serves both halves of the cross-process
        contract: parent-detected failures (timeouts, dead workers) are
        emitted directly on the parent bus, and worker-buffered events
        arrive via :func:`repro.obs.absorb_all` in ``_settle``.
        """
        kind = event.kind
        if kind == "pool.cache_use":
            self.health.tally_cache_use(event.detail or None)
        elif kind == "pool.retry":
            self.health.retries += 1
            if event.detail:
                self.health.note(event.detail)
        elif kind == "pool.timeout":
            self.health.timeouts += 1
            if event.detail:
                self.health.note(event.detail)
        elif kind == "pool.crash":
            self.health.crashes += 1
            if event.detail:
                self.health.note(event.detail)
        elif kind == "pool.restart":
            self.health.pool_restarts += 1
        elif kind == "pool.serial_fallback":
            self.health.serial_fallbacks += 1
        elif kind == "pool.worker_rss":
            amount = int(event.amount)
            if amount > self.health.max_worker_rss_bytes:
                self.health.max_worker_rss_bytes = amount
        elif kind == "pool.note":
            self.health.note(event.detail)

    def _publish_graphs(self, specs: Sequence[JobSpec]):
        """Pre-build every referenced dataset into shared memory."""
        keys: set[tuple[str, int, int]] = set()
        for spec in specs:
            keys.update(spec.dataset_keys())
        return graph_shm.publish_datasets(keys)

    # ------------------------------------------------------------------
    def _run_parallel(
        self, jobs: list[_Job], results: list, done: list[bool], workers: int
    ) -> None:
        """Drive the executor until every job finishes or the pool gives up.

        Leaves unfinished jobs for the serial path instead of raising on
        pool-level failures; only a job that exhausts its own retry
        budget raises.
        """
        timeout = job_timeout()
        retries = job_retries()
        max_restarts = retries + 2
        plan = self._cold_plan(jobs, workers)
        try:
            self._executor = self._make_executor(workers)
        except (OSError, ValueError, PermissionError):
            return
        self.last_mode = f"parallel[{workers}]"
        try:
            if plan is not None and not self._prime(plan, workers, timeout):
                return
            ordered = sorted(jobs, key=lambda j: (-j.spec.expected_cost(), j.index))
            self._drive_wave(
                ordered, results, done, workers, timeout, retries, max_restarts
            )
        finally:
            if self._executor is not None:
                self._kill_executor(self._executor)
                self._executor = None

    def _cold_plan(self, jobs: list[_Job], workers: int) -> _ColdPlan | None:
        """Derive the priming plan: which keys, and how many at once.

        A key is *cold* when the store has no entry for it at all
        (:meth:`repro.sim.tracestore.TraceStore.has_entry`) — a key with
        any committed artifact was primed by an earlier run, and whatever
        the write policy left out is rebuild-cheap by construction.

        A prime holds a whole trace plus its fold state resident, so
        admitted concurrency is clamped to the usable CPUs
        (:func:`pool_cpus`).  The clamp governs only priming — cell
        dispatch keeps the full worker count, because warm cells stream
        artifacts from the store instead of materialising them.

        Each cold key also records the LLC geometry of every one of its
        cells (a Fig. 5 and a Fig. 6 cell share a trace but not an LLC),
        read from the platform config: building a memory system here
        would grow the parent every worker forks from.
        """
        store = process_trace_store()
        if store is None:
            return None
        ordered = sorted(jobs, key=lambda j: (-j.spec.expected_cost(), j.index))
        cold: dict = {}
        geometries: dict = {}
        for job in ordered:
            spec = job.spec
            if spec.app is None:
                continue
            key = spec.trace_key()
            if key not in cold:
                if store.has_entry(key):
                    continue
                cold[key] = job
                geometries[key] = set()
            geometries[key].add((spec.platform.llc_bytes, LINE_SIZE))
        if not cold:
            return None
        admitted = max(1, min(workers, pool_cpus(), len(cold)))
        self.health.cold_keys = len(cold)
        self.health.cold_admitted = admitted
        process_bus().emit(
            "pool.note",
            f"cold plan: {len(cold)} store-cold key(s), admitted "
            f"{admitted} of {workers} worker(s) (cpus {pool_cpus()})",
            source="pool",
        )
        return _ColdPlan(
            jobs_by_key=cold,
            geometries={key: tuple(sorted(g)) for key, g in geometries.items()},
            admitted=admitted,
        )

    def _prime(self, plan: _ColdPlan, workers: int, timeout: float | None) -> bool:
        """Prime every store-cold key, one worker stage per key.

        At most ``plan.admitted`` primes are in flight; the rest queue
        heaviest-first and go out as earlier ones finish.  Priming is
        *best effort*: a failed prime means only that the key's cells
        rebuild its artifacts under the store's single-flight lease, so
        any pool-level failure (dead pool, prime timeout) abandons the
        remaining primes rather than spending the cells' retry budget.
        ``False`` means the executor could not be revived and the batch
        should fall back to the serial path.
        """
        queue = list(plan.jobs_by_key.items())
        pending: dict = {}
        with span("pool.prime", cat="pool", keys=len(queue), admitted=plan.admitted):
            while queue or pending:
                while queue and len(pending) < plan.admitted:
                    key, job = queue.pop(0)
                    try:
                        future = self._executor.submit(
                            _stage_entry, job.spec, plan.geometries[key], job.attempt
                        )
                    except (RuntimeError, BrokenProcessPool):
                        return self._abandon_priming("prime submit failed", workers)
                    pending[future] = job
                finished, _ = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not finished:
                    return self._abandon_priming(f"prime exceeded {timeout}s", workers)
                for future in finished:
                    job = pending.pop(future)
                    try:
                        payload = future.result(timeout=0)
                    except (BrokenProcessPool, CancelledError, OSError) as exc:
                        return self._abandon_priming(
                            f"pool died mid-prime ({type(exc).__name__})", workers
                        )
                    absorb_all(payload[-1])
                    if payload[0] != "ok":
                        process_bus().emit(
                            "pool.note",
                            f"priming failed for job {job.index} "
                            f"({payload[1]}: {payload[2]}); cells will rebuild",
                            source="pool",
                        )
        return True

    def _abandon_priming(self, reason: str, workers: int) -> bool:
        """Give up priming but keep the batch alive on a fresh executor."""
        process_bus().emit(
            "pool.note",
            f"cold priming abandoned ({reason}); cells will rebuild "
            "artifacts themselves",
            source="pool",
        )
        if self._executor is not None:
            self._kill_executor(self._executor)
            self._executor = None
        try:
            self._executor = self._make_executor(workers)
        except (OSError, ValueError, PermissionError):
            return False
        return True

    def _drive_wave(
        self,
        wave: list[_Job],
        results: list,
        done: list[bool],
        workers: int,
        timeout: float | None,
        retries: int,
        max_restarts: int,
    ) -> None:
        """Run the cells to completion; an early return leaves the rest serial."""
        while not all(done[job.index] for job in wave):
            pending = [job for job in wave if not done[job.index]]
            futures = {
                self._executor.submit(_pool_entry, job.spec, job.attempt): job
                for job in pending
            }
            failure = None
            for future, job in futures.items():
                try:
                    payload = future.result(timeout=timeout)
                except FutureTimeoutError:
                    process_bus().emit(
                        "pool.timeout",
                        f"job {job.index} exceeded {timeout}s "
                        f"(attempt {job.attempt}); restarting pool",
                        amount=job.attempt,
                        source="pool",
                    )
                    process_metrics().inc("pool.timeouts")
                    failure = "timeout"
                    break
                except BrokenProcessPool:
                    process_bus().emit(
                        "pool.crash",
                        f"worker died on job {job.index} "
                        f"(attempt {job.attempt}); restarting pool",
                        amount=job.attempt,
                        source="pool",
                    )
                    process_metrics().inc("pool.crashes")
                    failure = "crash"
                    break
                self._settle(job, payload, results, done, retries)
            if failure is None:
                continue
            self._harvest(futures, results, done, retries)
            self._kill_executor(self._executor)
            self._executor = None
            for job in wave:
                if not done[job.index]:
                    job.attempt += 1
                    if job.attempt > retries:
                        raise ExperimentJobError(
                            job.spec,
                            failure,
                            f"job still unfinished after "
                            f"{retries} retries ({failure})",
                        )
            process_bus().emit("pool.restart", failure, source="pool")
            process_metrics().inc("pool.restarts")
            if self.health.pool_restarts > max_restarts:
                process_bus().emit(
                    "pool.note",
                    "pool restart budget exhausted; "
                    "finishing remaining jobs serially",
                    source="pool",
                )
                return
            try:
                self._executor = self._make_executor(workers)
            except (OSError, ValueError, PermissionError):
                process_bus().emit(
                    "pool.note",
                    "pool could not be restarted; "
                    "finishing remaining jobs serially",
                    source="pool",
                )
                return

    def _settle(
        self, job: _Job, payload: tuple, results: list, done: list[bool], retries: int
    ) -> None:
        """Apply one worker payload: record the result or schedule a retry.

        The payload's trailing obs blob (worker-buffered events, metric
        deltas, spans) is absorbed *first*, so the health subscriber sees
        the worker's ``pool.cache_use`` event and counters stay exact
        even when the same worker process served many jobs or died in
        between — each job drains its own delta at the worker side.
        """
        absorb_all(payload[-1])
        if payload[0] == "ok":
            results[job.index] = payload[1]
            done[job.index] = True
            return
        kind, message, worker_tb = payload[1], payload[2], payload[3]
        job.attempt += 1
        if job.attempt > retries:
            raise ExperimentJobError(job.spec, kind, message, worker_tb)
        process_bus().emit(
            "pool.retry",
            f"job {job.index} failed ({kind}); retrying as attempt {job.attempt}",
            amount=job.attempt,
            source="pool",
        )
        process_metrics().inc("pool.retries")
        self._backoff(job.attempt)

    def _harvest(
        self, futures: dict, results: list, done: list[bool], retries: int
    ) -> None:
        """Collect whatever finished before a pool failure: work not wasted."""
        for future, job in futures.items():
            if done[job.index] or not future.done():
                continue
            try:
                payload = future.result(timeout=0)
            except (BrokenProcessPool, CancelledError, FutureTimeoutError):
                continue
            self._settle(job, payload, results, done, retries)

    def _run_serial(self, jobs: list[_Job], results: list, done: list[bool]) -> None:
        """In-process execution of whatever is unfinished, one key at a time.

        Pending jobs run grouped by trace key: keys in order of first
        appearance, a key's jobs in spec order, each result still landing
        at ``results[job.index]``.  After a key's last job succeeds the
        key is released from the process cache, with every artifact
        memoised beside it (:meth:`TraceCache.release`): no later job of
        the batch reads it, and an LRU would keep it resident until
        ``REPRO_TRACE_CACHE`` newer keys pushed it out.  So a serial batch
        holds one key's trace, reuse profile and masks at a time, and a
        key whose cells span both testbeds folds once, not once per
        testbed.  Results cannot change: each job seeds its own RNG from
        its spec, and residency only decides what is rebuilt.
        """
        pending = [job for job in jobs if not done[job.index]]
        if not pending:
            return
        if self.last_mode.startswith("parallel"):
            process_bus().emit("pool.serial_fallback", source="pool")
            process_metrics().inc("pool.serial_fallbacks")
        self.last_mode = "serial"
        timeout = job_timeout()
        retries = job_retries()
        by_key: dict[tuple, list[_Job]] = {}
        for job in pending:
            by_key.setdefault(job.spec.trace_key(), []).append(job)
        cache = process_trace_cache()
        for key, group in by_key.items():
            for job in group:
                results[job.index] = self._serial_job(job, timeout, retries)
                done[job.index] = True
            cache.release(key)

    def _serial_job(self, job: _Job, timeout: float | None, retries: int):
        """Run one job in-process until it succeeds or exhausts ``retries``."""
        bus = process_bus()
        registry = process_metrics()
        while True:
            try:
                before = _cache_snapshot()
                result = self._serial_attempt(job, timeout)
            except Exception as exc:  # noqa: BLE001 — bounded retry below
                job.attempt += 1
                if job.attempt > retries:
                    raise ExperimentJobError(
                        job.spec, type(exc).__name__, str(exc),
                        traceback.format_exc(),
                    ) from exc
                if is_injected(exc):
                    bus.emit(
                        "pool.crash",
                        f"job {job.index} crashed serially",
                        source="pool",
                    )
                    registry.inc("pool.crashes")
                bus.emit(
                    "pool.retry",
                    f"job {job.index} failed serially "
                    f"({type(exc).__name__}); retrying as attempt {job.attempt}",
                    amount=job.attempt,
                    source="pool",
                )
                registry.inc("pool.retries")
                self._backoff(job.attempt)
                continue
            kind = _classify_cache_use(before, _cache_snapshot())
            bus.emit("pool.cache_use", kind, source="pool", tag=job.spec.tag)
            registry.inc(f"pool.{kind}_jobs")
            return result

    def _serial_attempt(self, job: _Job, timeout: float | None):
        """One in-process try, with the pool fault sites mapped to raises.

        There is no separate process to kill here, so ``pool.exit``
        degrades to a crash and ``pool.hang`` to a (bounded) stall that
        is then *detected*: the method sleeps at most the job timeout and
        raises, which is exactly what the parent-side watchdog does to a
        hung worker.
        """
        spec = job.spec
        with job_context(attempt=job.attempt, tag=spec.tag):
            fired = fault_point(
                SITE_POOL_EXIT, tag=spec.tag, detail="worker exit (serial)"
            ) or fault_point(SITE_POOL_CRASH, tag=spec.tag, detail="worker crash")
            if fired is not None:
                raise InjectedWorkerCrash(
                    f"injected crash in job {spec.tag or spec.flow!r} "
                    f"(serial, attempt {job.attempt})"
                )
            fired = fault_point(SITE_POOL_HANG, tag=spec.tag, detail="worker hang")
            if fired is not None:
                stall = fired.param if fired.param else DEFAULT_HANG_SECONDS
                if timeout:
                    time.sleep(min(stall, timeout))
                process_bus().emit(
                    "pool.timeout",
                    f"injected hang detected serially (job {job.index})",
                    source="pool",
                )
                process_metrics().inc("pool.timeouts")
                raise InjectedWorkerCrash(
                    f"injected hang in job {spec.tag or spec.flow!r} detected "
                    f"(serial, attempt {job.attempt})"
                )
            with span(
                "pool.job",
                cat="pool",
                tag=spec.tag or spec.flow,
                attempt=job.attempt,
            ):
                return execute_job(spec)

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        base = job_backoff()
        if base > 0:
            time.sleep(min(2.0, base * (2 ** max(0, attempt - 1))))

    @staticmethod
    def _make_executor(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=ExperimentPool._mp_context()
        )

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        """Tear an executor down even if its workers are hung or dead."""
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.kill()
            except (OSError, ValueError, AttributeError):
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError):
            pass

    @staticmethod
    def _mp_context():
        # fork shares the parent's memoised datasets copy-on-write, which
        # avoids regenerating graphs per worker; fall back to the platform
        # default where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_jobs(specs: Sequence[JobSpec], jobs: int | None = None) -> list:
    """One-shot convenience: ``ExperimentPool(jobs).run(specs)``."""
    return ExperimentPool(jobs).run(specs)
