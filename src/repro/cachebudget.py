"""One disk budget for every on-disk cache the harness keeps.

Two subsystems persist artifacts across sessions: the graph disk cache
(:mod:`repro.graph.diskcache`, armed by ``REPRO_GRAPH_CACHE``) and the
trace store (:mod:`repro.sim.tracestore`, armed by ``REPRO_TRACE_STORE``).
Left unchecked they grow without bound — benchmark-scale traces run to
hundreds of megabytes per entry — and two divergent ad-hoc limits would
evict the wrong thing under pressure.  This module owns the single
``REPRO_CACHE_BYTES`` budget both roots share:

- an *entry* is one immediate child of a root (a ``.npz`` graph file or
  one trace-store entry directory);
- eviction is oldest-first by modification time across **both** roots
  combined, until the total drops under budget;
- loaders bump an entry's mtime on use, making the policy LRU-ish;
- the entry just written is protected, so a single artifact larger than
  the whole budget still lands (the budget bounds steady state, not one
  write).

The budget defaults to 8 GiB; ``REPRO_CACHE_BYTES=0`` disables the cap.
Writers call :func:`enforce_cache_budget` after each commit; readers call
:func:`touch_entry` after each load.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

#: Graph disk-cache root (unset, empty or ``0`` disables graph caching).
GRAPH_CACHE_ENV = "REPRO_GRAPH_CACHE"

#: Trace-store root (unset, empty or ``0`` disables the trace store).
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

#: Combined size cap in bytes over both cache roots (0 disables).
CACHE_BYTES_ENV = "REPRO_CACHE_BYTES"

#: Default combined budget: 8 GiB.
DEFAULT_CACHE_BYTES = 8 << 30


def cache_budget_bytes() -> int | None:
    """The combined byte budget, or ``None`` when the cap is disabled."""
    raw = os.environ.get(CACHE_BYTES_ENV)
    if raw is None or raw == "":
        return DEFAULT_CACHE_BYTES
    value = int(raw)
    if value < 0:
        raise ValueError(f"{CACHE_BYTES_ENV} must be >= 0, got {value}")
    return None if value == 0 else value


def cache_root(env: str) -> Path | None:
    """The cache root named by ``env``; ``None`` when it is unset, empty
    or ``0`` (each disables that cache)."""
    raw = os.environ.get(env, "")
    return None if raw in ("", "0") else Path(raw)


def budget_roots() -> list[Path]:
    """Every configured on-disk cache root (either may be absent)."""
    roots = (cache_root(env) for env in (GRAPH_CACHE_ENV, TRACE_STORE_ENV))
    return [root for root in roots if root is not None]


def entry_size(path: Path) -> int:
    """Recursive byte size of one cache entry (file or directory)."""
    try:
        if path.is_dir():
            return sum(
                child.stat().st_size
                for child in path.rglob("*")
                if child.is_file()
            )
        return path.stat().st_size
    except OSError:
        return 0


def touch_entry(path: Path) -> None:
    """Mark an entry recently used (best effort), for LRU eviction order."""
    try:
        os.utime(path, None)
    except OSError:
        return


def _entries(roots: list[Path]) -> list[tuple[float, int, Path]]:
    found: list[tuple[float, int, Path]] = []
    for root in roots:
        try:
            children = list(root.iterdir())
        except OSError:
            continue
        for child in children:
            if child.name.startswith(".") or ".tmp" in child.name:
                continue  # in-flight temp files are not evictable entries
            try:
                mtime = child.stat().st_mtime
            except OSError:
                continue
            found.append((mtime, entry_size(child), child))
    found.sort(key=lambda item: item[0])
    return found


def enforce_cache_budget(
    *, protect: tuple[Path, ...] | set[Path] = (), budget: int | None = None
) -> list[Path]:
    """Evict oldest entries until both roots fit the budget.

    ``protect`` names entries that must survive this pass (typically the
    entry just written).  Returns the evicted paths.
    """
    limit = cache_budget_bytes() if budget is None else budget
    if limit is None:
        return []
    roots = budget_roots()
    if not roots:
        return []
    protected = {Path(p).resolve() for p in protect}
    entries = _entries(roots)
    total = sum(size for _, size, _ in entries)
    evicted: list[Path] = []
    for _, size, path in entries:
        if total <= limit:
            break
        if path.resolve() in protected:
            continue
        try:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        except OSError:
            continue
        total -= size
        evicted.append(path)
    return evicted
