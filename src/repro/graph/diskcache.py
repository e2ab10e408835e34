"""On-disk caching of generated graphs.

Regenerating the scaled Table 2 inputs is deterministic but not free
(at the default 1/1024 scale, R-MAT at scale 17 takes about 1 s and all
five inputs about 3 s on a 2-vCPU x86 host); the benchmark harness and
repeated CLI invocations benefit from caching them as ``.npz`` files.

The cache key covers everything that determines the graph: dataset name,
scale, and generator seed.  Files are self-describing (arrays + metadata)
and validated on load; a corrupted or stale-format file is regenerated
rather than trusted.

Disk usage is bounded by the ``REPRO_CACHE_BYTES`` budget shared with
the trace store (see :mod:`repro.cachebudget`): every save triggers an
oldest-first eviction pass over both cache roots, and loads refresh the
file's mtime so eviction is LRU-ish.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.cachebudget import (
    GRAPH_CACHE_ENV,
    cache_root,
    enforce_cache_budget,
    touch_entry,
)
from repro.graph.csr import CSRGraph

FORMAT_VERSION = 1

#: Environment variable naming the cache directory; unset, empty or
#: ``0`` disables.
#: (Alias of :data:`repro.cachebudget.GRAPH_CACHE_ENV` — the shared
#: budget module owns the env names so both caches agree on them.)
CACHE_ENV = GRAPH_CACHE_ENV


def default_cache_dir() -> Path | None:
    """The cache directory, or ``None`` when caching is disabled."""
    return cache_root(CACHE_ENV)


def cache_path(directory: Path, name: str, scale: int, seed: int) -> Path:
    return directory / f"{name}-s{scale}-r{seed}.npz"


def save_graph(graph: CSRGraph, path: Path) -> None:
    """Write a CSR graph as a compressed ``.npz``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        "offsets": graph.offsets,
        "adjacency": graph.adjacency,
        "format_version": np.array([FORMAT_VERSION], dtype=np.int64),
    }
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, **arrays)
    os.replace(tmp, path)
    enforce_cache_budget(protect={path})


def load_graph(path: Path, name: str) -> CSRGraph | None:
    """Load a cached graph; returns ``None`` if missing or invalid."""
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            if int(data["format_version"][0]) != FORMAT_VERSION:
                return None
            weights = data["weights"] if "weights" in data.files else None
            return CSRGraph(
                data["offsets"],
                data["adjacency"],
                weights,
                name=name,
            )
    except (OSError, KeyError, ValueError):
        return None


def cached_generate(name: str, scale: int, seed: int, generate) -> CSRGraph:
    """Fetch from the disk cache or generate-and-store.

    ``generate`` is a zero-argument callable producing the graph; it runs
    only on a cache miss.  With caching disabled it always runs.
    """
    directory = default_cache_dir()
    if directory is None:
        return generate()
    path = cache_path(directory, name, scale, seed)
    cached = load_graph(path, name)
    if cached is not None:
        touch_entry(path)
        return cached
    graph = generate()
    save_graph(graph, path)
    return graph
