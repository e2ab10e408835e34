"""Layer spans for the traced benchmark run.

Tracing is done from outside the program: :func:`arm` replaces the public
entry points of each layer (module functions and class methods) with thin
wrappers that record a span per call — name, start, end, parent — and put
the originals back on :meth:`Armed.disarm`.  Nothing under ``src/`` is
edited.

Spans live in memory.  The benchmark process keeps its own until the run
ends; a fork-started pool worker inherits the wrappers, drops the spans it
inherited from its parent, and appends its own to ``spans-<pid>.jsonl`` in
the spill directory each time its outermost span closes (pool workers end
with ``os._exit``, so nothing may wait for interpreter shutdown).
:func:`load_spans` merges the files and :func:`layer_metrics` turns the
merged spans into the per-layer metrics named in ``BENCHMARK.json``.

A span's self time is its duration minus the part of it its child spans
cover.  The root process's self times plus ``unattributed_s`` add up to
the traced window exactly; worker processes report busy time per layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

#: Span name -> layer, for the self-time table.
LAYER_OF = {
    "graph": "graph",
    "apps.run_once": "apps",
    "reusepack.fold": "reusepack",
    "reusepack.extend": "reusepack",
    "reusepack.derive": "reusepack",
    "mem.cache.gap_fold": "mem.cache",
    "profilepack.build": "profilepack",
    "tracestore.save": "tracestore",
    "tracestore.load": "tracestore",
    "tracestore.should_persist": "tracestore",
    "tracestore.single_flight": "tracestore",
    "tracestore.lease_wait": "tracestore",
    "executor.run.profile": "executor",
    "executor.run.replay": "executor",
    "costmodel.price": "mem.costmodel",
    "core.profile": "core",
    "core.optimize": "core",
    "core.migrate": "core",
    "pool.run": "parallel",
    "pool.execute_job": "parallel",
    "pool.stage": "parallel",
    "serve.journal": "serve",
}
for _op in ("trace", "hit_mask", "reuse_profile", "profile"):
    LAYER_OF[f"tracecache.{_op}"] = "tracecache"
for _op in ("admit", "measure", "phase_change", "depart"):
    LAYER_OF[f"serve.{_op}"] = "serve"
for _step in ("profile_tenant", "optimize_tenant", "measure_tenant", "phase_change"):
    LAYER_OF[f"multitenant.{_step}"] = "multitenant"

#: Every per-layer metric a traced run reports, with its unit.  Metrics
#: that a workload does not exercise read 0.
LAYER_METRICS = {
    "graph.calls": "count",
    "graph.s": "s",
    "apps.run_once.calls": "count",
    "apps.run_once.s": "s",
    "apps.accesses": "count",
    "reusepack.fold.calls": "count",
    "reusepack.fold.s": "s",
    "reusepack.fold.accesses": "count",
    "reusepack.extend.calls": "count",
    "reusepack.extend.s": "s",
    "reusepack.derive.calls": "count",
    "reusepack.derive.s": "s",
    "reusepack.fold_useful_ratio": "ratio",
    "mem.cache.gap_fold.s": "s",
    "profilepack.build.calls": "count",
    "profilepack.build.s": "s",
    "tracecache.trace.calls": "count",
    "tracecache.trace.s": "s",
    "tracecache.hit_mask.calls": "count",
    "tracecache.hit_mask.s": "s",
    "tracecache.reuse_profile.calls": "count",
    "tracecache.reuse_profile.s": "s",
    "tracecache.profile.calls": "count",
    "tracecache.profile.s": "s",
    "tracecache.hit_ratio": "ratio",
    "tracestore.save.calls": "count",
    "tracestore.save.s": "s",
    "tracestore.save.bytes": "bytes",
    "tracestore.load.calls": "count",
    "tracestore.load.s": "s",
    "tracestore.load.bytes": "bytes",
    "tracestore.persist_ratio": "ratio",
    "tracestore.lease_wait_s": "s",
    "executor.run.calls": "count",
    "executor.run.s": "s",
    "executor.run.profile.s": "s",
    "executor.run.replay.s": "s",
    "costmodel.price.s": "s",
    "core.profile.s": "s",
    "core.optimize.calls": "count",
    "core.optimize.s": "s",
    "core.migrate.bytes": "bytes",
    "pool.busy_s": "s",
    "pool.idle_s": "s",
    "pool.dispatch_wait_s": "s",
    "pool.cold_admitted": "count",
    "pool.retries": "count",
    "serve.admit.calls": "count",
    "serve.admit.s": "s",
    "serve.measure.calls": "count",
    "serve.measure.s": "s",
    "serve.phase_change.calls": "count",
    "serve.phase_change.s": "s",
    "serve.depart.calls": "count",
    "serve.depart.s": "s",
    "serve.journal.s": "s",
    "multitenant.profile_tenant.s": "s",
    "multitenant.optimize_tenant.s": "s",
    "multitenant.measure_tenant.s": "s",
    "multitenant.phase_change.s": "s",
    "unattributed_s": "s",
}

_CACHE_HIT_FIELDS = ("trace_hits", "mask_hits", "profile_hits", "reuse_hits")
_CACHE_MISS_FIELDS = ("trace_misses", "mask_misses", "profile_misses", "reuse_misses")


class Recorder:
    """In-memory span list of one process (re-initialised after a fork)."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.next_id = 0
        #: id(TraceCache) -> (cache, its stats when first seen here).
        self.caches: dict[int, tuple] = {}

    def _check_fork(self) -> None:
        if os.getpid() != self.pid:
            inherited = [cache for cache, _ in self.caches.values()]
            self._reset()
            for cache in inherited:
                self.note_cache(cache)

    def open(self, name: str | None) -> dict | None:
        """Start a span; ``None`` (no span) for a ``None`` name or when one
        of the same name is already open, so re-entrant calls count once."""
        self._check_fork()
        if name is None or any(span["name"] == name for span in self.stack):
            return None
        span = {
            "id": self.next_id,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pid": self.pid,
            "name": name,
            "t0": time.monotonic(),
        }
        self.next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.monotonic()
        self.stack.pop()
        self.spans.append(span)
        if not self.stack and self.pid != self.root_pid:
            self.spill()

    def note_cache(self, cache) -> None:
        """Track a ``TraceCache`` so its hit/miss counters can be read."""
        self._check_fork()
        if id(cache) not in self.caches:
            self.caches[id(cache)] = (cache, cache.stats.as_dict())

    def cache_counts(self) -> dict[str, int]:
        """Counter deltas, since first seen here, over every tracked cache."""
        total: dict[str, int] = {}
        for cache, base in self.caches.values():
            for field, value in cache.stats.as_dict().items():
                total[field] = total.get(field, 0) + value - base.get(field, 0)
        return total

    def spill(self) -> None:
        """Append this process's finished spans and cache counts to its file."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(
                json.dumps({"pid": self.pid, "cache": self.cache_counts()}) + "\n"
            )
        self.spans = []


class Armed:
    """Handle on installed wrappers; :meth:`disarm` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def disarm(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _payload_bytes(obj) -> int:
    """Array bytes a store load handed back (0 for a miss)."""
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    total = getattr(obj, "total_accesses", None)
    if isinstance(total, int):
        return 8 * total
    return sum(
        value.nbytes
        for value in vars(obj).values()
        if hasattr(value, "nbytes") and hasattr(value, "dtype")
    )


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _key_digest(key) -> str:
    return hashlib.sha1(repr(key).encode()).hexdigest()[:12]


def _make_wrapper(recorder: Recorder, fn, name, before=None, after=None):
    """Wrap ``fn`` so each call records a span.

    ``name`` is a string or ``f(args, kwargs) -> str``; ``before(args,
    kwargs)`` returns state for ``after(span, args, kwargs, result, state)``,
    which adds attributes to the span.
    """

    def enter(args, kwargs):
        label = name(args, kwargs) if callable(name) else name
        span = recorder.open(label)
        state = before(args, kwargs) if (span is not None and before) else None
        return span, state

    def leave(span, args, kwargs, result, state):
        if after is not None:
            after(span, args, kwargs, result, state)
        recorder.close(span)

    if inspect.iscoroutinefunction(fn):

        async def wrapper(*args, **kwargs):
            span, state = enter(args, kwargs)
            if span is None:
                return await fn(*args, **kwargs)
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                leave(span, args, kwargs, result, state)

    else:

        def wrapper(*args, **kwargs):
            span, state = enter(args, kwargs)
            if span is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(span, args, kwargs, result, state)

    return functools.update_wrapper(wrapper, fn)


def _patch_function(armed: Armed, module, attr: str, span_name, **hooks) -> None:
    """Wrap a module-level function everywhere ``repro`` bound it by name."""
    original = module.__dict__[attr]
    wrapper = _make_wrapper(armed.recorder, original, span_name, **hooks)
    for mod in list(sys.modules.values()):
        if (
            mod is not None
            and getattr(mod, "__name__", "").startswith("repro")
            and mod.__dict__.get(attr) is original
        ):
            armed.patch(mod, attr, wrapper)


def _patch_method(armed: Armed, cls, attr: str, span_name, **hooks) -> None:
    original = cls.__dict__[attr]
    wrapper = _make_wrapper(armed.recorder, original, span_name, **hooks)
    armed.patch(cls, attr, wrapper)


def arm(spill_dir: Path) -> Armed:
    """Install span wrappers on every traced layer of ``repro``."""
    import repro.apps  # noqa: F401 - registers every GraphApp subclass
    import repro.core.migration as migration
    import repro.core.runtime as runtime
    import repro.graph.datasets as datasets
    import repro.mem.cache as mem_cache
    import repro.mem.costmodel as costmodel
    import repro.serve.journal as journal
    import repro.serve.service as service
    import repro.sim.executor as executor
    import repro.sim.multitenant as multitenant
    import repro.sim.parallel as parallel
    import repro.sim.profilepack as profilepack
    import repro.sim.reusepack as reusepack
    import repro.sim.tracecache as tracecache
    import repro.sim.tracestore as tracestore
    from repro.apps.base import GraphApp

    recorder = Recorder(spill_dir)
    armed = Armed(recorder)

    def record(key, of):
        def after(span, args, kwargs, result, state):
            span[key] = of(result)

        return after

    _patch_function(armed, datasets, "dataset_by_name", "graph")

    trace_accesses = record(
        "accesses", lambda trace: int(getattr(trace, "total_accesses", 0) or 0)
    )
    pending = [GraphApp]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_once" in cls.__dict__ and not inspect.isabstract(cls):
            _patch_method(
                armed, cls, "run_once", "apps.run_once", after=trace_accesses
            )

    folded = record("accesses", lambda profile: int(getattr(profile, "n", 0) or 0))
    for fold in ("build_reuse_profile", "fold_reuse_chunks"):
        _patch_function(armed, reusepack, fold, "reusepack.fold", after=folded)

    def extend_name(args, kwargs):
        # A streaming fold extends chunk by chunk; that is fold work.
        in_fold = any(s["name"] == "reusepack.fold" for s in recorder.stack)
        return None if in_fold else "reusepack.extend"

    _patch_method(armed, reusepack.ReuseProfile, "extend", extend_name)
    _patch_method(armed, reusepack.ReuseProfile, "hit_mask_for", "reusepack.derive")
    _patch_function(armed, mem_cache, "reuse_time_gaps", "mem.cache.gap_fold")
    _patch_function(armed, profilepack, "build_profile", "profilepack.build")

    def note_cache(args, kwargs):
        recorder.note_cache(args[0])
        return None

    def tag_key(span, args, kwargs, result, state):
        span["key"] = _key_digest(args[1])

    for op in ("trace", "hit_mask", "reuse_profile", "profile"):
        _patch_method(
            armed, tracecache.TraceCache, op, f"tracecache.{op}",
            before=note_cache, after=tag_key,
        )

    store_cls = tracestore.TraceStore

    def entry_bytes(args, kwargs):
        return _dir_bytes(args[0].entry_dir(args[1]))

    def saved_bytes(span, args, kwargs, result, before_bytes):
        span["bytes"] = _dir_bytes(args[0].entry_dir(args[1])) - before_bytes

    for kind in ("trace", "mask", "profile", "reuse"):
        _patch_method(
            armed, store_cls, f"save_{kind}", "tracestore.save",
            before=entry_bytes, after=saved_bytes,
        )
        _patch_method(
            armed, store_cls, f"load_{kind}", "tracestore.load",
            after=record("bytes", _payload_bytes),
        )

    _patch_method(
        armed, store_cls, "should_persist", "tracestore.should_persist",
        after=record("persist", bool),
    )
    _patch_method(armed, store_cls, "single_flight", "tracestore.single_flight")
    _patch_method(armed, store_cls, "wait_for_lease", "tracestore.lease_wait")

    def pricing(args, kwargs):
        replay = kwargs.get("profile") is None or kwargs.get("miss_observer") is not None
        return "executor.run.replay" if replay else "executor.run.profile"

    _patch_method(armed, executor.TraceExecutor, "run", pricing)
    _patch_method(armed, costmodel.CostModel, "price_profile", "costmodel.price")
    _patch_method(armed, runtime.AtMemRuntime, "observe_misses", "core.profile")
    _patch_method(armed, runtime.AtMemRuntime, "atmem_optimize", "core.optimize")

    moved = record("bytes", lambda stats: int(getattr(stats, "bytes_moved", 0) or 0))
    _patch_method(
        armed, migration.MultiStageMigrator, "migrate", "core.migrate", after=moved
    )

    def pool_health(span, args, kwargs, result, state):
        pool = args[0]
        span["mode"] = pool.last_mode
        span["workers"] = min(pool.max_workers, len(args[1]))
        span["cold_admitted"] = pool.health.cold_admitted
        span["retries"] = pool.health.retries

    _patch_method(armed, parallel.ExperimentPool, "run", "pool.run", after=pool_health)
    _patch_function(armed, parallel, "execute_job", "pool.execute_job")
    _patch_function(armed, parallel, "_stage_entry", "pool.stage")

    def serve_op(args, kwargs):
        return "serve." + args[1].op.replace("-", "_")

    _patch_method(armed, service.PlacementService, "submit", serve_op)
    for method in ("append", "checkpoint"):
        _patch_method(armed, journal.ServiceJournal, method, "serve.journal")
    for step in ("profile_tenant", "optimize_tenant", "measure_tenant", "phase_change"):
        _patch_method(
            armed, multitenant.MultiTenantHost, step, f"multitenant.{step}"
        )
    return armed


# ----------------------------------------------------------------------
# merging and metrics
# ----------------------------------------------------------------------
def load_spans(spill_dir: Path) -> tuple[list[dict], dict[int, dict]]:
    """Every spilled span, plus the last cache-counter record per process."""
    spans: list[dict] = []
    caches: dict[int, dict] = {}
    for path in sorted(Path(spill_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "cache" in record:
                    caches[record["pid"]] = record["cache"]
                else:
                    spans.append(record)
    return spans, caches


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["t0"], span["t1"])
            )
    return {
        (span["pid"], span["id"]): (span["t1"] - span["t0"])
        - _union_length(children.get((span["pid"], span["id"]), []))
        for span in spans
    }


def layer_metrics(
    spans: list[dict], caches: dict[int, dict], root_pid: int, window_s: float
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """The per-layer metrics and the self-time table of one traced run.

    ``window_s`` is the traced wall time the root process's spans fall in;
    the table's root self times plus ``unattributed_s`` sum to it.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "worker_self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span["t1"] - span["t0"]
        own = selfs[(span["pid"], span["id"])]
        row["self_s" if span["pid"] == root_pid else "worker_self_s"] += own

    def of(span_name: str, column: str) -> float:
        return float(table.get(span_name, {}).get(column, 0))

    # ``<span>.calls`` and ``<span>.s`` read straight off the table.
    m: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    for metric in m:
        span_name, _, kind = metric.rpartition(".")
        if kind in ("calls", "s"):
            m[metric] = of(span_name, "calls" if kind == "calls" else "total_s")
    m["executor.run.calls"] = of("executor.run.profile", "calls") + of(
        "executor.run.replay", "calls"
    )
    m["executor.run.s"] = m["executor.run.profile.s"] + m["executor.run.replay.s"]
    m["tracestore.lease_wait_s"] = of("tracestore.lease_wait", "total_s")
    for metric, attr, span_name in (
        ("apps.accesses", "accesses", "apps.run_once"),
        ("reusepack.fold.accesses", "accesses", "reusepack.fold"),
        ("tracestore.save.bytes", "bytes", "tracestore.save"),
        ("tracestore.load.bytes", "bytes", "tracestore.load"),
        ("core.migrate.bytes", "bytes", "core.migrate"),
    ):
        m[metric] = float(sum(s.get(attr, 0) for s in spans if s["name"] == span_name))
    persist = [s["persist"] for s in spans if s["name"] == "tracestore.should_persist"]
    m["tracestore.persist_ratio"] = sum(persist) / len(persist) if persist else 0.0

    # A fold is useful when it is the first for its trace key; the key
    # comes from the enclosing TraceCache.reuse_profile call.
    by_id = {(s["pid"], s["id"]): s for s in spans}
    fold_keys = []
    for span in spans:
        if span["name"] != "reusepack.fold":
            continue
        key = None
        parent = by_id.get((span["pid"], span["parent"]))
        while parent is not None and key is None:
            if parent["name"] == "tracecache.reuse_profile":
                key = parent.get("key")
            parent = by_id.get((parent["pid"], parent["parent"]))
        fold_keys.append(key if key is not None else f"untracked-{span['id']}")
    if fold_keys:
        m["reusepack.fold_useful_ratio"] = len(set(fold_keys)) / len(fold_keys)

    counts: dict[str, int] = {}
    for record in caches.values():
        for field, value in record.items():
            counts[field] = counts.get(field, 0) + value
    hits = sum(counts.get(f, 0) for f in _CACHE_HIT_FIELDS)
    misses = sum(counts.get(f, 0) for f in _CACHE_MISS_FIELDS)
    m["tracecache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    m.update(pool_metrics(spans, root_pid))
    attributed = sum(row["self_s"] for row in table.values())
    m["unattributed_s"] = window_s - attributed
    return m, table


def pool_metrics(spans: list[dict], root_pid: int) -> dict[str, float]:
    """Worker busy / idle / dispatch-wait time over every parallel pool run.

    Busy time is the outermost worker spans (jobs and cold stages); idle
    is lanes x pool wall minus busy; dispatch wait is the part of idle
    before and between a worker's jobs, i.e. idle minus each worker's
    tail after its last job.
    """
    runs = [
        s for s in spans
        if s["name"] == "pool.run" and s["pid"] == root_pid
        and str(s.get("mode", "")).startswith("parallel")
    ]
    worker_spans = [
        s for s in spans if s["pid"] != root_pid and s["parent"] is None
    ]
    busy = idle = wait = 0.0
    for run in runs:
        inside = [
            s for s in worker_spans if s["t0"] >= run["t0"] and s["t1"] <= run["t1"]
        ]
        run_busy = sum(s["t1"] - s["t0"] for s in inside)
        busy += run_busy
        idle += max(0.0, run["workers"] * (run["t1"] - run["t0"]) - run_busy)
        by_pid: dict[int, list[dict]] = {}
        for s in inside:
            by_pid.setdefault(s["pid"], []).append(s)
        for lane in by_pid.values():
            lane.sort(key=lambda s: s["t0"])
            cursor = run["t0"]
            for s in lane:
                wait += max(0.0, s["t0"] - cursor)
                cursor = s["t1"]
    pool_runs = [s for s in spans if s["name"] == "pool.run" and s["pid"] == root_pid]
    return {
        "pool.busy_s": busy,
        "pool.idle_s": idle,
        "pool.dispatch_wait_s": wait,
        "pool.cold_admitted": float(max((s.get("cold_admitted", 0) for s in pool_runs), default=0)),
        "pool.retries": float(sum(s.get("retries", 0) for s in pool_runs)),
    }
