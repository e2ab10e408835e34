"""Persistent, content-keyed, mmap-shared store of run artifacts.

The lattice artifacts of an experiment cell are pure functions of its
content key (see :mod:`repro.sim.tracecache`).  :class:`TraceStore`
shares them across worker processes and sessions through one save and
one load, parametrised by each kind's :class:`~repro.sim.artifacts.
ArtifactSpec`:

- **Layout** — one directory per trace key under ``REPRO_TRACE_STORE``,
  named by a SHA-256 digest of the key's repr, holding one ``.npy`` +
  ``.json`` sidecar pair per artifact::

      <root>/<digest>/trace-v1.npy          flat int64 addresses
      <root>/<digest>/reuse-v4-<line>.npy   int64 [n + 2m] gaps, gap histogram
      <root>/<digest>/mask-v2-<llc>.npy     np.packbits-packed hit mask
      <root>/<digest>/profile-v1-<llc>.npy  int64 [2, nnz] CSR pages/counts
      <root>/<digest>/<stem>.json           key, sub-key, CRC32, lengths

  The format version is part of the name: an entry written under another
  layout is never found, and is rebuilt beside it.  Arrays are plain
  ``.npy`` loaded with ``mmap_mode="r"``, so every worker maps the *same*
  page-cache pages read-only.

- **Atomicity** — each file is written under a pid-unique temp name and
  committed with ``os.replace``, the sidecar *after* its array, so a
  sidecar implies a complete artifact.  Concurrent writers race
  benignly: artifacts are deterministic and the last rename wins.

- **Integrity** — sidecars carry a CRC32 of the array bytes, verified
  once per process per file (the pass doubles as page-cache warming).
  An artifact failing its CRC, dtype/shape, length or phase checks, or
  with any sidecar field that does not parse, is *rejected*: dropped
  from disk, counted in ``stats.rejects``, and rebuilt by the caller.
  The ``cache.store_torn`` fault site commits a truncated array — a
  writer that died mid-write — which the CRC guard must catch.

- **Budget** — writes are followed by an eviction pass against the
  shared ``REPRO_CACHE_BYTES`` budget (:mod:`repro.cachebudget`); loads
  bump the entry's mtime so eviction is LRU-ish.

- **Leases** — cross-process single-flight (:meth:`TraceStore.
  single_flight`): the first worker to reach a cold artifact creates
  ``.lease-<what>`` with ``O_EXCL`` and builds it; contenders wait
  (bounded by ``LEASE_TIMEOUT_S``, 30 s) and *adopt* the committed result.
  A lease whose pid is dead — or that outlived the timeout — is stale
  and reclaimed, so a crashed primer never wedges the pipeline (the
  ``store.lease_crash`` chaos case).  Leases are advisory: losing one
  never blocks an in-memory build, it only stops duplicate store work.

- **Write policy** — :meth:`TraceStore.should_persist` skips writes
  whose projected cost (from a process-wide EWMA of commit throughput)
  exceeds ``rebuild_seconds * 0.5``; ``REPRO_STORE_POLICY=always|
  adaptive|never`` overrides (any other value raises).  Writes under
  4 MiB always persist — the policy stops multi-hundred-MB folds
  drowning the cold path in write time, not tiny scales.  Throughput is measured *durably* (large
  commits fsync before the rename, and a one-time 4 MiB fsynced probe
  precedes the first large decision): buffered writes land in the page
  cache at RAM speed and would teach the EWMA a bandwidth the disk
  cannot sustain, stalling the run later in deferred writeback.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.cachebudget import (
    TRACE_STORE_ENV,
    cache_root,
    enforce_cache_budget,
    touch_entry,
)
from repro.errors import ConfigurationError, TraceError
from repro.faults.injector import InjectedWorkerCrash, fault_point
from repro.faults.plan import SITE_STORE_LEASE_CRASH, SITE_STORE_TORN
from repro.mem.trace import AccessTrace
from repro.obs.bus import emit
from repro.obs.metrics import HandleCounters
from repro.obs.tracer import span
from repro.sim.artifacts import MASK, PROFILE, REUSE, SPECS, TRACE, ArtifactSpec
from repro.sim.profilepack import TraceProfile
from repro.sim.reusepack import ReuseProfile

TRACE_ARRAY = f"{TRACE.stem()}.npy"
TRACE_MANIFEST = f"{TRACE.stem()}.json"

#: Per-handle counters (``stats``), each mirrored as ``store.<name>``.
STORE_COUNTERS = (
    *(f"{spec.kind}_{verb}" for spec in SPECS for verb in ("loads", "saves")),
    "rejects",  # artifacts dropped for failing CRC / shape / sidecar checks
    # single-flight leases won / waited on / adopted after a wait /
    # reclaimed from a dead holder
    "lease_acquires",
    "lease_waits",
    "lease_adoptions",
    "lease_reclaims",
    "policy_skips",  # writes skipped by the adaptive write policy
)

#: Seconds before a lease with a live-looking file is considered stale.
LEASE_TIMEOUT_S = 30.0

#: Write policy override: ``always`` | ``adaptive`` (default) | ``never``.
STORE_POLICY_ENV = "REPRO_STORE_POLICY"
STORE_POLICIES = ("always", "adaptive", "never")

#: Writes at or below this size always persist (adaptive mode) — the
#: policy targets multi-hundred-MB artifact folds, not tiny-scale tests.
SMALL_WRITE_BYTES = 4 << 20

#: An adaptive write must pay for itself at least twice over: projected
#: write seconds must not exceed ``rebuild_seconds * WRITE_PAYBACK``.
WRITE_PAYBACK = 0.5

#: Commit samples below this size are too noisy to inform the EWMA.
_POLICY_SAMPLE_BYTES = 1 << 20

_TMP_SEQ = 0

#: Lease files held by this *process* (shared across handles so two
#: in-process store views never reclaim each other's live lease).
_HELD: set[Path] = set()


def store_policy() -> str:
    """The write policy from ``REPRO_STORE_POLICY`` (default ``adaptive``)."""
    raw = os.environ.get(STORE_POLICY_ENV, "").strip().lower()
    if not raw:
        return "adaptive"
    if raw in STORE_POLICIES:
        return raw
    raise ConfigurationError(
        f"{STORE_POLICY_ENV} must be one of {'|'.join(STORE_POLICIES)}, "
        f"got {raw!r}"
    )


class _WritePolicy:
    """Process-wide adaptive write-value policy.

    Tracks an EWMA of observed *durable* commit throughput (bytes per
    second over the tempfile write + fsync + rename) and answers "is
    persisting ``nbytes`` worth ``rebuild_seconds``?".  With no samples
    yet a large write is admitted blind, so :class:`TraceStore` runs a
    cheap fsynced probe (:meth:`TraceStore._calibrate_policy`) before
    the first large decision — a multi-hundred-MB artifact must never
    be the calibration sample on a slow disk.
    """

    def __init__(self) -> None:
        self.ewma_bps: float | None = None
        self.samples = 0
        #: One-shot probe guard (set even when the probe write fails).
        self.probed = False

    def observe(self, nbytes: int, seconds: float) -> None:
        if nbytes < _POLICY_SAMPLE_BYTES or seconds <= 0:
            return
        bps = nbytes / seconds
        self.ewma_bps = (
            bps if self.ewma_bps is None else 0.5 * self.ewma_bps + 0.5 * bps
        )
        self.samples += 1

    def should_persist(
        self, nbytes: int, rebuild_seconds: float | None
    ) -> bool:
        mode = store_policy()
        if mode == "never":
            return False
        if mode != "adaptive" or rebuild_seconds is None:
            return True
        if nbytes <= SMALL_WRITE_BYTES:
            return True
        if self.ewma_bps is None:
            return True  # calibration write: measure, then decide
        projected = nbytes / self.ewma_bps
        return projected <= rebuild_seconds * WRITE_PAYBACK


_WRITE_POLICY = _WritePolicy()


def store_root() -> Path | None:
    """The configured store root, or ``None`` when the store is off."""
    return cache_root(TRACE_STORE_ENV)


def key_digest(key: Hashable) -> str:
    """Stable directory name for a content key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:24]


class TraceStore:
    """Content-keyed on-disk store of the four lattice artifacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = HandleCounters("store", STORE_COUNTERS)
        #: Array files CRC-verified by this process already (mmap loads
        #: re-verify nothing; the page cache is trusted once checked).
        self._verified: set[Path] = set()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_dir(self, key: Hashable) -> Path:
        return self.root / key_digest(key)

    def _paths(
        self, spec: ArtifactSpec, key: Hashable, sub: Hashable = None
    ) -> tuple[Path, Path]:
        """The (array, sidecar) pair of one artifact."""
        stem = self.entry_dir(key) / spec.stem(sub)
        return stem.with_suffix(".npy"), stem.with_suffix(".json")

    def has(self, spec: ArtifactSpec, key: Hashable, sub: Hashable = None) -> bool:
        """Whether the artifact is committed (its sidecar is present)."""
        return self._paths(spec, key, sub)[1].exists()

    # ------------------------------------------------------------------
    # write policy
    # ------------------------------------------------------------------
    def should_persist(
        self, nbytes: int, rebuild_seconds: float | None = None
    ) -> bool:
        """Whether persisting ``nbytes`` is worth ``rebuild_seconds``.

        Consults the process-wide adaptive write policy (see the module
        docstring).  Callers that skip a save on ``False`` keep the
        artifact purely in-memory — correctness never depends on the
        store, only warm-start time does.
        """
        if (
            rebuild_seconds is not None
            and nbytes > SMALL_WRITE_BYTES
            and store_policy() == "adaptive"
        ):
            self._calibrate_policy()
        verdict = _WRITE_POLICY.should_persist(nbytes, rebuild_seconds)
        if not verdict:
            self.stats.bump("policy_skips")
        return verdict

    def _calibrate_policy(self) -> None:
        """One-time durable-throughput probe before the first large call.

        Writes and fsyncs 4 MiB under the store root, feeds the timing
        to the policy EWMA, and deletes the file.  Costs well under a
        second even on a saturated disk; letting a ~190 MB reuse fold
        be the blind first sample instead can cost tens of seconds of
        writeback on a shared host.  Probe failures (read-only root,
        quota) leave the policy in its admit-blind fallback.
        """
        if _WRITE_POLICY.probed or _WRITE_POLICY.ewma_bps is not None:
            return
        _WRITE_POLICY.probed = True
        probe = self.root / f".probe-{os.getpid()}.tmp"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            started = time.monotonic()
            with open(probe, "wb") as handle:
                handle.write(b"\0" * SMALL_WRITE_BYTES)
                handle.flush()
                os.fsync(handle.fileno())
            _WRITE_POLICY.observe(
                SMALL_WRITE_BYTES, time.monotonic() - started
            )
        except OSError:
            pass
        finally:
            try:
                probe.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # single-flight leases
    # ------------------------------------------------------------------
    def _lease_path(self, key: Hashable, what: str) -> Path:
        # Dot-prefixed so the cache-budget walker never counts or evicts
        # lease files as artifacts.
        return self.entry_dir(key) / f".lease-{what}"

    def acquire_lease(self, key: Hashable, what: str) -> bool:
        """Try to win the single-flight lease for ``(key, what)``.

        ``True`` means this process now holds the lease and must
        :meth:`release_lease` when its fold commits (or fails).  A lease
        held by a *dead* pid — or older than :data:`LEASE_TIMEOUT_S` —
        is stale and reclaimed before retrying.  An unwritable store
        degrades to ``True`` without a lease file: single-flight is an
        optimisation, never a correctness gate.
        """
        path = self._lease_path(key, what)
        for attempt in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt or not self._lease_stale(path):
                    return False
                self._reclaim_lease(path)
                continue
            except OSError:
                return True  # read-only/full disk: build unleased
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid(), "born": time.time()}, handle)
            _HELD.add(path)
            self.stats.bump("lease_acquires")
            if (
                fault_point(
                    SITE_STORE_LEASE_CRASH,
                    tag=f"{path.parent.name}/{what}",
                    detail=str(path),
                )
                is not None
            ):
                # The holder "dies": its lease file stays on disk with a
                # pid that will never release it — the exact residue a
                # crashed primer leaves for stale-lease reclamation.
                _HELD.discard(path)
                raise InjectedWorkerCrash(
                    f"injected lease-holder crash at {path.name}"
                )
            return True
        return False

    def release_lease(self, key: Hashable, what: str) -> None:
        """Release a lease this process holds (no-op otherwise)."""
        path = self._lease_path(key, what)
        if path not in _HELD:
            return
        _HELD.discard(path)
        try:
            path.unlink()
        except OSError:
            return  # already reclaimed or evicted with the entry

    def heartbeat_lease(self, key: Hashable, what: str) -> None:
        """Refresh a held lease's mtime so long folds never look stale."""
        path = self._lease_path(key, what)
        if path not in _HELD:
            return
        try:
            os.utime(path)
        except OSError:
            _HELD.discard(path)  # lost to reclamation; stop claiming it

    def wait_for_lease(
        self,
        key: Hashable,
        what: str,
        done: Callable[[], bool],
        timeout: float | None = None,
    ) -> bool:
        """Wait for another holder's fold; ``True`` when ``done()`` holds.

        Polls until the artifact lands (``done()``), the lease file
        vanishes (released — the winner may have *skipped* persisting
        under the write policy, so absence does not imply an artifact),
        the lease goes stale, or the bounded wait expires.  ``True``
        counts as an adoption: the caller reads the committed artifact
        instead of folding it again.
        """
        path = self._lease_path(key, what)
        deadline = time.monotonic() + (
            LEASE_TIMEOUT_S if timeout is None else timeout
        )
        self.stats.bump("lease_waits")
        with span("store.lease_wait", cat="store", entry=path.parent.name):
            while time.monotonic() < deadline:
                if done():
                    break
                if not path.exists() or self._lease_stale(path):
                    break
                time.sleep(0.05)
        if done():
            self.stats.bump("lease_adoptions")
            return True
        return False

    @contextmanager
    def single_flight(
        self,
        key: Hashable,
        what: str,
        done: Callable[[], bool] | None = None,
    ) -> Iterator[bool]:
        """Cross-process single-flight around one artifact fold.

        Yields ``True`` when this process won the lease — the caller
        folds and saves, and the lease is released on exit even if the
        fold raises.  Yields ``False`` after a bounded wait on another
        holder — the caller re-checks the store (``done`` turning true
        means the artifact landed) and folds in-memory otherwise.
        """
        if self.acquire_lease(key, what):
            try:
                yield True
            finally:
                self.release_lease(key, what)
            return
        self.wait_for_lease(key, what, done if done is not None else lambda: False)
        yield False

    def _lease_stale(self, path: Path) -> bool:
        """Whether a lease file no longer protects a live fold."""
        try:
            mtime = path.stat().st_mtime
            payload = json.loads(path.read_text(encoding="utf-8"))
            pid = int(payload["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            # Vanished = released (not stale); present but unreadable =
            # a torn lease write, which only reclamation can clear.
            return path.exists()
        if pid == os.getpid():
            # Our own pid but not held by this process's live handles:
            # a previous incarnation crashed mid-lease and we inherited
            # its pid-slot (in-process retry after InjectedWorkerCrash).
            return path not in _HELD
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # holder is dead
        except PermissionError:
            # Alive under another uid; fall through to the age check.
            return (time.time() - mtime) > LEASE_TIMEOUT_S
        return (time.time() - mtime) > LEASE_TIMEOUT_S

    def _reclaim_lease(self, path: Path) -> None:
        self.stats.bump("lease_reclaims")
        emit(
            "store.lease_reclaim",
            "stale lease reclaimed",
            source="store",
            entry=path.parent.name,
            lease=path.name,
        )
        _HELD.discard(path)
        try:
            path.unlink()
        except OSError:
            return  # another contender reclaimed it first

    # ------------------------------------------------------------------
    # inventory (the `repro store` CLI surface)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[dict]:
        """One inventory row per store entry (committed or in-flight)."""
        if not self.root.is_dir():
            return
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir():
                continue
            files = [f for f in entry.iterdir() if f.is_file()]
            visible = [f for f in files if not f.name.startswith(".")]
            leases = [f for f in files if f.name.startswith(".lease-")]
            manifest = self._read_json(entry / TRACE_MANIFEST) or {}
            total = manifest.get("total")
            kinds = sorted(
                {f.name.split("-")[0].split(".")[0] for f in visible}
            )
            yield {
                "digest": entry.name,
                "key": manifest.get("key", ""),
                "accesses": total if isinstance(total, int) else 0,
                "bytes": sum(f.stat().st_size for f in visible),
                "files": len(visible),
                "artifacts": kinds,
                "leases": [
                    {
                        "what": f.name[len(".lease-"):],
                        "stale": self._lease_stale(f),
                    }
                    for f in leases
                ],
            }

    def remove_entry(self, digest: str) -> bool:
        """Drop one entry directory by digest (the ``store rm`` verb)."""
        entry = self.root / digest
        if not entry.is_dir():
            return False
        self._verified = {p for p in self._verified if p.parent != entry}
        shutil.rmtree(entry, ignore_errors=True)
        return True

    # ------------------------------------------------------------------
    # artifacts: one save and one load for every kind
    # ------------------------------------------------------------------
    def has_entry(self, key: Hashable) -> bool:
        """Whether the store holds *any* committed artifact for this key.

        The adaptive write policy may skip the raw trace yet persist the
        small derived artifacts, and a key whose entry already has
        visible files has been primed once — whatever is missing was
        judged cheaper to rebuild than to store.  The cold-dispatch
        planner keys off this, so a policy-thinned store does not get
        re-primed on every warm run.
        """
        entry = self.entry_dir(key)
        if not entry.is_dir():
            return False
        return any(
            f.is_file() and not f.name.startswith(".") for f in entry.iterdir()
        )

    def save(
        self, spec: ArtifactSpec, key: Hashable, sub: Hashable, artifact
    ) -> bool:
        """Persist one artifact (no-op when it is already committed).

        ``TraceStore.save_*`` are unconditional; the write policy lives
        in the cache's save gate (:meth:`should_persist`).
        """
        array_path, json_path = self._paths(spec, key, sub)
        if json_path.exists():
            return False
        entry = array_path.parent
        chunks, shape, record = spec.encode(artifact, sub)
        try:
            with span("store.save", cat="store", kind=spec.kind, entry=entry.name):
                entry.mkdir(parents=True, exist_ok=True)
                crc = self._commit_array(
                    array_path, chunks, spec.dtype, shape,
                    tag=f"{entry.name}/{spec.kind}",
                )
                sidecar = {
                    **record,
                    "key": repr(key),
                    "sub": _as_json(sub),
                    "crc32": crc,
                }
                self._commit_json(json_path, sidecar)
        except OSError:
            return False  # a full/read-only disk degrades to no caching
        self.stats.bump(f"{spec.kind}_saves")
        enforce_cache_budget(protect={entry})
        return True

    def load(self, spec: ArtifactSpec, key: Hashable, sub: Hashable, expected):
        """The stored artifact (arrays as read-only mmap views), or ``None``.

        ``expected`` describes the caller's trace (see ``spec.fits``); an
        artifact describing anything else is stale.  Every sidecar field
        is parsed inside one guard, so a malformed, corrupt or stale
        artifact is rejected — never raised to the caller.
        """
        array_path, json_path = self._paths(spec, key, sub)
        entry = array_path.parent
        sidecar = self._read_json(json_path)
        if sidecar is None:
            return None
        with span("store.load", cat="store", kind=spec.kind, entry=entry.name):
            try:
                if sidecar["sub"] != _as_json(sub):
                    raise TraceError(f"sidecar names sub-key {sidecar['sub']!r}")
                array = self._load_array(
                    array_path, spec.dtype, spec.layout(sidecar), sidecar["crc32"]
                )
                artifact = spec.decode(array, sidecar)
                if expected is not None and not spec.fits(artifact, expected):
                    raise TraceError("artifact describes another trace")
            except (KeyError, TypeError, ValueError, TraceError) as exc:
                return self._reject(array_path, json_path, f"{spec.kind}: {exc}")
        self.stats.bump(f"{spec.kind}_loads")
        touch_entry(entry)
        return artifact

    # The per-kind entry points the cache (and the benchmark's layer
    # wrappers) call by name; ``expected`` as in :meth:`load`.
    def save_trace(self, key, trace: AccessTrace) -> bool:
        return self.save(TRACE, key, None, trace)

    def load_trace(self, key, expected=None) -> AccessTrace | None:
        return self.load(TRACE, key, None, expected)

    def save_mask(self, key, llc_sig: tuple, mask) -> bool:
        return self.save(MASK, key, llc_sig, mask)

    def load_mask(self, key, llc_sig: tuple, n: int) -> np.ndarray | None:
        return self.load(MASK, key, llc_sig, n)

    def save_profile(self, key, llc_sig: tuple, profile) -> bool:
        return self.save(PROFILE, key, llc_sig, profile)

    def load_profile(self, key, llc_sig: tuple, expected) -> TraceProfile | None:
        """``expected``: the (phase count, access count) being priced."""
        return self.load(PROFILE, key, llc_sig, expected)

    def save_reuse(self, key, line_size: int, profile) -> bool:
        return self.save(REUSE, key, line_size, profile)

    def load_reuse(self, key, line_size: int, n: int) -> ReuseProfile | None:
        return self.load(REUSE, key, line_size, n)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _commit_array(
        self,
        path: Path,
        chunks: Iterable[np.ndarray],
        dtype: np.dtype,
        shape: tuple,
        *,
        tag: str,
    ) -> int:
        """Atomic tempfile+rename commit of one ``.npy``, chunk by chunk.

        Hand-writes the 1.0 array header (byte-identical to ``np.save``'s
        output) and streams each chunk's buffer, so a trace's flat
        address array never exists in memory.  Returns the CRC32 folded
        over the chunk bytes — identical to the CRC of the whole array.

        The ``cache.store_torn`` fault truncates the temp file before the
        rename — committing a torn array under an intact sidecar, the
        exact state a crashed non-atomic writer (or a lost flush) leaves
        behind and the load-side CRC guard must reject.
        """
        global _TMP_SEQ
        _TMP_SEQ += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{_TMP_SEQ}.tmp"
        shape = tuple(int(dim) for dim in shape)
        header = {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False,
            "shape": shape,
        }
        started = time.monotonic()
        crc = written = 0
        with open(tmp, "wb") as handle:
            np.lib.format.write_array_header_1_0(handle, header)
            for chunk in chunks:
                raw = np.ascontiguousarray(chunk, dtype=dtype).reshape(-1)
                raw = raw.view(np.uint8)
                crc = zlib.crc32(raw.data, crc)
                handle.write(raw.data)
                written += raw.size
            if written >= _POLICY_SAMPLE_BYTES:
                # Durable timing: without the fsync the page cache
                # absorbs the write at RAM speed, the EWMA learns a
                # fictional bandwidth, and the deferred writeback
                # stalls the run off-stage instead.
                handle.flush()
                os.fsync(handle.fileno())
        if written != math.prod(shape) * dtype.itemsize:
            tmp.unlink()
            raise TraceError(
                f"{path.name}: chunks yielded {written} bytes for shape {shape}"
            )
        if fault_point(SITE_STORE_TORN, tag=tag, detail=str(path)) is not None:
            size = tmp.stat().st_size
            with open(tmp, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        os.replace(tmp, path)
        _WRITE_POLICY.observe(written, time.monotonic() - started)
        return crc

    def _commit_json(self, path: Path, payload: dict) -> None:
        global _TMP_SEQ
        _TMP_SEQ += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{_TMP_SEQ}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def _read_json(self, path: Path) -> dict | None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _load_array(self, path: Path, dtype, shape: tuple, crc32) -> np.ndarray:
        """mmap one array file; validate dtype/shape/CRC (once per process)."""
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:
            raise TraceError(f"unreadable array: {exc}") from None
        if array.dtype != dtype or array.shape != tuple(shape):
            raise TraceError(f"array is {array.dtype}{array.shape}")
        if path not in self._verified:
            raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
            if not isinstance(crc32, int) or zlib.crc32(raw.data) != crc32:
                raise TraceError("CRC32 mismatch")
            self._verified.add(path)
        return array

    def _reject(self, array_path: Path, json_path: Path, reason: str) -> None:
        """Drop one artifact pair that failed validation; caller rebuilds."""
        self.stats.bump("rejects")
        emit("store.reject", reason, source="store", entry=array_path.parent.name)
        for path in (json_path, array_path):
            self._verified.discard(path)
            try:
                path.unlink()
            except OSError:
                continue
        return None


def _as_json(sub: Hashable):
    """A sub-key as it reads back from a JSON sidecar (tuples -> lists)."""
    return json.loads(json.dumps(sub))


# ----------------------------------------------------------------------
# process-wide store handle
# ----------------------------------------------------------------------
_PROCESS_STORE: TraceStore | None = None
_PROCESS_ROOT: Path | None = None


def process_trace_store() -> TraceStore | None:
    """The per-process store bound to ``REPRO_TRACE_STORE`` (or ``None``).

    Re-resolved when the environment variable changes, so tests and the
    CLI can re-point the store mid-process.
    """
    global _PROCESS_STORE, _PROCESS_ROOT
    root = store_root()
    if root is None:
        _PROCESS_STORE = None
        _PROCESS_ROOT = None
        return None
    if _PROCESS_STORE is None or _PROCESS_ROOT != root:
        _PROCESS_STORE = TraceStore(root)
        _PROCESS_ROOT = root
    return _PROCESS_STORE
