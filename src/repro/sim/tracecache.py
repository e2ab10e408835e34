"""Content-keyed caching of deterministic run artifacts.

Every experiment flow in :mod:`repro.sim.experiment` runs an application's
``run_once()`` and classifies the address stream through the LLC model.
Both are *pure functions of the cell's inputs*: the trace depends only on
(app, constructor params, dataset, scale) — a deterministic bump
allocator assigns virtual addresses, and ``run_once`` is contractually
idempotent (:class:`repro.apps.base.GraphApp`) — and the hit mask only on
the trace and the cache geometry ``(size, line)``.  The evaluation grid
regenerates the same trace up to six times per cell (three placements x
two iterations); :class:`TraceCache` computes each artifact once per
content key, which is where most of the harness's serial speedup comes
from.

The artifact lattice is ``trace -> reuse profile -> hit mask -> miss
profile``, one :class:`~repro.sim.artifacts.ArtifactSpec` per kind, and
every kind is served by one get path: memory, then the persistent store,
then a single-flight build saved when the write policy says it pays.
The reuse profile is the exception: it lives in memory only, with its
trace, and is never saved to or loaded from the store — it is about as
large as the trace, and the masks and miss profiles derived from it are
what the cells read.  It is keyed by the **trace alone** (gaps are
LLC-size-independent), so a capacity sweep folds once and derives every
geometry's mask with one compare (``stage.mask_derive``).
``REPRO_VERIFY=1`` arms the parity oracles: derived masks are re-checked
against the direct ``llc.hit_mask`` (``mask.parity_*``) and incremental
reuse folds against the one-shot refold (``reuse.parity_*``); divergence
raises :class:`repro.errors.TraceError`.

The cache is an LRU over traces (a trace's derived artifacts travel with
it) because grid traces are large; ``REPRO_TRACE_CACHE`` overrides the
bound and ``0`` disables memory caching.  With ``REPRO_TRACE_STORE`` set
it is an in-process view over the shared on-disk
:class:`repro.sim.tracestore.TraceStore`: store hits are read-only
``mmap`` views shared by every worker and session, and results stay
bit-identical — the store holds exactly the bytes a build produces.

**Integrity:** while a fault injector is active, each trace inserted
carries a CRC32 and every hit is re-verified against it — the
``cache.corrupt`` site flips bytes in a cached trace, and the checksum
path must discard and recompute it (``stats.corruption_discards``).
Outside injection no checksum is taken or checked: entries are immutable
by construction (every trace is sealed into one read-only buffer on
insertion, see :meth:`repro.mem.trace.AccessTrace.seal`), and a CRC over
every trace dominated cold-cell and warm-cell time.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from repro.errors import TraceError
from repro.faults.injector import active_injector, fault_point
from repro.faults.plan import SITE_CACHE_CORRUPT
from repro.mem.cache import LINE_SIZE, WorkingSetCache, verify_armed
from repro.mem.trace import AccessTrace
from repro.obs.metrics import HandleCounters, process_metrics
from repro.obs.tracer import span
from repro.sim.artifacts import MASK, PROFILE, REUSE, SPECS, TRACE, ArtifactSpec
from repro.sim.profilepack import TraceProfile, build_profile
from repro.sim.reusepack import ReuseProfile, build_reuse_profile
from repro.sim.tracestore import TraceStore, process_trace_store

#: Environment variable overriding the trace-entry bound (0 disables).
CACHE_SIZE_ENV = "REPRO_TRACE_CACHE"

#: Default number of distinct traces kept alive per process.
DEFAULT_MAX_TRACES = 8

#: Sentinel: bind the cache to the process-wide env-configured store.
_STORE_FROM_ENV = "env"

#: Per-handle counters (``stats``), each mirrored as ``cache.<name>``.
#: ``store_<kind>_hits`` are misses served from the persistent store.
CACHE_COUNTERS = (
    *(f"{spec.kind}_{event}" for spec in SPECS for event in ("hits", "misses")),
    "reuse_extends",  # reuse misses served by folding only a phase delta
    "evictions",
    "corruption_discards",  # corrupt / stale entries dropped and rebuilt
    *(f"store_{spec.kind}_hits" for spec in SPECS),
)


def configured_max_traces() -> int:
    """The trace-entry bound, honouring ``REPRO_TRACE_CACHE``."""
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None or raw == "":
        return DEFAULT_MAX_TRACES
    value = int(raw)
    if value < 0:
        raise ValueError(f"{CACHE_SIZE_ENV} must be >= 0, got {value}")
    return value


def trace_checksum(trace: AccessTrace) -> int:
    """CRC32 over the trace's program-order address bytes."""
    return zlib.crc32(trace.all_addresses().view(np.uint8).data)


def llc_signature(llc) -> tuple:
    """The geometry signature that keys hit masks per cache model."""
    return (type(llc).__name__, llc.size_bytes, llc.line_size)


@dataclass
class _TraceEntry:
    """A cached trace, the checksum it must keep matching, its artifacts.

    ``trace`` is sealed: every fold over it (checksum, hit masks, reuse
    profiles) reads its one address buffer.  ``checksum`` is taken only
    when a fault injector is active at insertion (``None`` otherwise).
    ``artifacts`` holds the derived artifacts by ``(kind, sub-key)`` and
    is evicted with the trace.
    """

    trace: AccessTrace
    checksum: int | None
    artifacts: dict[tuple, object] = field(default_factory=dict)


class TraceCache:
    """LRU cache of access traces and the artifacts derived from them.

    Keys are caller-chosen hashable content keys (the parallel engine uses
    :meth:`repro.sim.parallel.JobSpec.trace_key`).  Correctness relies on
    the key covering everything the trace depends on; two cells that share
    a key *must* produce byte-identical traces.

    ``store`` selects the persistent tier: the default binds to the
    process-wide store configured by ``REPRO_TRACE_STORE`` (disabled when
    the variable is unset); pass an explicit :class:`TraceStore` to pin
    one, or ``None`` to force memory-only operation.
    """

    def __init__(
        self,
        max_traces: int | None = None,
        store: TraceStore | None | str = _STORE_FROM_ENV,
    ) -> None:
        self.max_traces = (
            configured_max_traces() if max_traces is None else max_traces
        )
        self._store_from_env = store == _STORE_FROM_ENV
        self._store: TraceStore | None = (
            None if self._store_from_env else store  # type: ignore[assignment]
        )
        self._traces: OrderedDict[Hashable, _TraceEntry] = OrderedDict()
        self.stats = HandleCounters("cache", CACHE_COUNTERS)

    @property
    def store(self) -> TraceStore | None:
        """The persistent tier behind this cache (``None``: memory only)."""
        if self._store_from_env:
            return process_trace_store()
        return self._store

    # ------------------------------------------------------------------
    # the one get path
    # ------------------------------------------------------------------
    def _get(self, spec: ArtifactSpec, key: Hashable, sub, expected, build):
        """A derived artifact: memory, else store, else ``build()``.

        A memoised artifact that no longer fits ``expected`` (the trace's
        length, or phase shape) is treated as corrupt and rebuilt.
        Memoisation needs the trace itself to be cached under ``key``.
        """
        entry = self._traces.get(key)
        memo = entry.artifacts if entry is not None else None
        slot = (spec.kind, sub)
        if memo is not None and slot in memo:
            cached = memo[slot]
            if spec.fits(cached, expected):
                self.stats.bump(f"{spec.kind}_hits")
                return cached
            del memo[slot]
            self.stats.bump("corruption_discards")
        self.stats.bump(f"{spec.kind}_misses")
        artifact = self._load_or_build(spec, key, sub, expected, build)
        if memo is not None:
            memo[slot] = artifact
        return artifact

    def _load_or_build(self, spec, key, sub, expected, build):
        """Store load on a memory miss, else build (and maybe write back).

        Store-cold builds run under the artifact's single-flight lease so
        two workers reaching the same cold artifact never build (and
        persist) it concurrently: the loser waits, then adopts the
        committed artifact — or builds in-memory when the winner skipped
        persistence under the write policy.  Each artifact persists on
        its own merit: a huge trace may be skipped while its 8x-packed
        masks are still a bargain.  Reuse profiles bypass the store.
        """
        store = self.store
        if store is None or spec is REUSE:
            return build()[0]
        # Per-kind entry points by name: load_<kind>(key[, sub], expected)
        # and save_<kind>(key[, sub], artifact).
        args = (key,) if sub is None else (key, sub)
        load = getattr(store, f"load_{spec.kind}")
        artifact = self._store_hit(spec, load(*args, expected))
        if artifact is not None:
            return artifact
        what = spec.stem(sub)
        done = lambda: store.has(spec, key, sub)  # noqa: E731
        with store.single_flight(key, what, done=done) as winner:
            if not winner:
                artifact = self._store_hit(spec, load(*args, expected))
                if artifact is not None:
                    return artifact
            artifact, build_seconds = build()
            store.heartbeat_lease(key, what)
            if store.should_persist(spec.nbytes(artifact), build_seconds):
                getattr(store, f"save_{spec.kind}")(*args, artifact)
        return artifact

    def _store_hit(self, spec: ArtifactSpec, artifact):
        if artifact is not None:
            self.stats.bump(f"store_{spec.kind}_hits")
        return artifact

    def _timed(self, name: str, stage: str, key: Hashable, fn: Callable):
        """Run one build under its ``cache.*`` span and ``stage.*`` timer."""
        started = time.perf_counter()
        with span(f"cache.{name}", cat="cache", key=str(key)):
            artifact = fn()
        seconds = time.perf_counter() - started
        process_metrics().observe(stage, seconds)
        return artifact, seconds

    def _verified(self, key: Hashable) -> AccessTrace | None:
        """The cached trace if present and intact, else ``None``.

        The per-hit checksum comparison runs only while a fault injector
        is installed — that is the only path that mutates cached entries
        (``cache.corrupt``), and checksumming benchmark-scale traces on
        every hit is the dominant warm-path cost otherwise.  An entry
        inserted with no injector active carries no checksum; under an
        injector it is dropped and rebuilt as a plain miss.
        """
        entry = self._traces.get(key)
        if entry is None:
            return None
        if active_injector() is not None:
            if entry.checksum is None:
                del self._traces[key]
                return None
            if fault_point(SITE_CACHE_CORRUPT, tag=str(key)):
                entry.trace = _corrupt_trace(entry.trace)
            if trace_checksum(entry.trace) != entry.checksum:
                del self._traces[key]
                self.stats.bump("corruption_discards")
                return None
        return entry.trace

    # ------------------------------------------------------------------
    # the four artifacts
    # ------------------------------------------------------------------
    def trace(self, key: Hashable, builder: Callable[[], AccessTrace]) -> AccessTrace:
        """The trace under ``key``, built once via ``builder()``."""
        cached = self._verified(key)
        if cached is not None:
            self.stats.bump("trace_hits")
            self._traces.move_to_end(key)
            return cached
        self.stats.bump("trace_misses")
        trace = self._load_or_build(
            TRACE, key, None, None,
            lambda: self._timed("build_trace", TRACE.stage, key, builder),
        )
        trace.seal()
        if self.max_traces == 0:
            return trace
        checksum = trace_checksum(trace) if active_injector() is not None else None
        self._traces[key] = _TraceEntry(trace=trace, checksum=checksum)
        while len(self._traces) > self.max_traces:
            self._traces.popitem(last=False)
            self.stats.bump("evictions")
        return trace

    def hit_mask(
        self, key: Hashable, llc: WorkingSetCache, trace: AccessTrace
    ) -> np.ndarray:
        """The LLC hit mask of ``trace`` under ``llc``, computed once.

        Keyed by the trace key plus the cache-model geometry, so each
        platform's LLC gets its own mask.  The mask is *derived* from the
        trace's reuse profile (one integer threshold solve plus one
        compare, ``stage.mask_derive``) instead of re-running the
        O(N log N) direct fold — a capacity sweep pays the fold once
        (``stage.reuse_build``) and derives every geometry from it.
        """

        def build():
            profile = self.reuse_profile(key, trace, llc.line_size)
            mask, seconds = self._timed(
                "derive_mask", MASK.stage, key,
                lambda: profile.hit_mask_for(llc),
            )
            if verify_armed():
                self._verify_mask(key, llc, trace, mask)
            return mask, seconds

        return self._get(MASK, key, llc_signature(llc), trace.total_accesses, build)

    def reuse_profile(
        self,
        key: Hashable,
        trace: AccessTrace,
        line_size: int = LINE_SIZE,
        extend_from: Hashable | None = None,
    ) -> ReuseProfile:
        """The compiled reuse profile of ``trace``, folded once.

        Keyed by the **trace key and line granularity only** — reuse gaps
        are LLC-size-independent, so one profile serves every capacity of
        a sweep (see :mod:`repro.sim.reusepack`).  Memory only: the
        profile is memoised beside its cached trace and never saved to
        or loaded from the store.

        ``extend_from`` names a prior key whose trace is a **prefix** of
        this one (the multi-tenant host's phase chain guarantees it): if
        that profile is cached and carries fold state, only the suffix is
        folded (``stage.reuse_extend``, ``reuse_extends``) instead of the
        whole stream.
        """
        line_size = int(line_size)
        return self._get(
            REUSE, key, line_size, trace.total_accesses,
            lambda: self._fold_reuse(key, extend_from, trace, line_size),
        )

    def _fold_reuse(self, key, extend_from, trace, line_size):
        """Fold a reuse profile — incrementally when a base qualifies."""
        entry = self._traces.get(extend_from)
        base = entry.artifacts.get((REUSE.kind, line_size)) if entry else None
        flat = trace.all_addresses()
        if base is None or not base.can_extend or base.n > flat.size:
            return self._timed(
                "build_reuse", REUSE.stage, key,
                lambda: build_reuse_profile(flat, line_size),
            )
        profile, seconds = self._timed(
            "extend_reuse", "stage.reuse_extend", key,
            lambda: base.extend(flat[base.n :]),
        )
        self.stats.bump("reuse_extends")
        if verify_armed():
            self._verify_reuse(key, trace, line_size, profile)
        return profile, seconds

    def profile(
        self, key: Hashable, llc, trace: AccessTrace, hits: np.ndarray
    ) -> TraceProfile:
        """The compiled miss profile of ``(trace, llc)``, folded once.

        Keyed like hit masks by ``(trace key, LLC geometry)``, because the
        profile depends on the hit mask but **not** on placement — every
        placement cell sharing the key prices from this one profile (see
        :mod:`repro.sim.profilepack`).
        """
        return self._get(
            PROFILE, key, llc_signature(llc),
            (len(trace.phases), trace.total_accesses),
            lambda: self._timed(
                "build_profile", PROFILE.stage, key,
                lambda: build_profile(trace, hits),
            ),
        )

    # ------------------------------------------------------------------
    # parity oracles (REPRO_VERIFY)
    # ------------------------------------------------------------------
    def _verify_reuse(
        self, key: Hashable, trace: AccessTrace, line_size: int, folded
    ) -> None:
        """The fold parity oracle: a one-shot refold must agree bit-for-bit."""
        registry = process_metrics()
        registry.inc("reuse.parity_checks")
        with span("cache.verify_reuse", cat="cache", key=str(key)):
            direct = build_reuse_profile(
                trace.all_addresses(), line_size, with_state=False
            )
        if not (
            np.array_equal(folded.gaps, direct.gaps)
            and np.array_equal(folded.values, direct.values)
            and np.array_equal(folded.counts, direct.counts)
        ):
            registry.inc("reuse.parity_failures")
            raise TraceError(
                "incrementally extended reuse profile diverged from the "
                f"full refold for key {key!r}"
            )

    def _verify_mask(self, key: Hashable, llc, trace: AccessTrace, derived) -> None:
        """The mask parity oracle: the direct fold must agree bit-for-bit."""
        registry = process_metrics()
        registry.inc("mask.parity_checks")
        with span("cache.verify_mask", cat="cache", key=str(key)):
            direct = llc.hit_mask(trace.all_addresses())
        if derived.shape != direct.shape or not np.array_equal(derived, direct):
            registry.inc("mask.parity_failures")
            raise TraceError(
                "reuse-derived hit mask diverged from the direct "
                f"simulation for {llc_signature(llc)}: "
                f"{int(np.count_nonzero(derived))} vs "
                f"{int(np.count_nonzero(direct))} hits"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        self._traces.clear()


def _corrupt_trace(trace: AccessTrace) -> AccessTrace:
    """A copy of ``trace`` with bits flipped mid-buffer (the injected fault).

    Corrupts a *copy*: a sealed trace's buffer is read-only, and a
    store-loaded one is an mmap whose pages are shared with other
    processes.  The copy comes back sealed, so the checksum sees the
    flipped bits.
    """
    addrs = trace.all_addresses().copy()
    if addrs.size:
        addrs[addrs.size // 2] ^= 0x5A5A
    return AccessTrace.from_columnar(addrs, trace.phase_records())


_PROCESS_CACHE: TraceCache | None = None


def process_trace_cache() -> TraceCache:
    """The per-process shared cache (one per worker, one for serial runs)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = TraceCache()
    return _PROCESS_CACHE
