"""Vertex reordering.

ATMem's chunk-granular placement relies on hot vertices being *spatially
clustered* in the vertex-indexed arrays: a chunk is worth migrating only
when many of its vertices are hot.  Real-world graph frameworks often
apply degree-based reordering for cache locality, which also concentrates
the hot region; a pathological random labelling spreads hubs uniformly and
starves chunk-granular placement (the placement degenerates toward the
whole-structure behaviour discussed in the paper's Section 9).

These transforms let experiments and ablations control that axis:

- :func:`degree_sort` — relabel vertices by descending degree (hubs first);
- :func:`random_relabel` — a uniformly random permutation (the adversary);
- :func:`apply_permutation` — relabel by an arbitrary permutation.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, assemble_csr


def apply_permutation(graph: CSRGraph, new_id: np.ndarray) -> CSRGraph:
    """Relabel vertices: ``new_id[v]`` is the new id of old vertex ``v``.

    Edge weights (if any) follow their edges.
    """
    new_id = np.asarray(new_id, dtype=np.int64)
    n = graph.num_vertices
    if new_id.shape != (n,) or not np.array_equal(np.sort(new_id), np.arange(n)):
        raise ValueError("new_id must be a permutation of 0..V-1")
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    offsets, adjacency, weights = assemble_csr(
        n, new_id[src], new_id[graph.adjacency], graph.weights
    )
    return CSRGraph(offsets, adjacency, weights, name=f"{graph.name}-relabel")


def degree_sort(graph: CSRGraph) -> CSRGraph:
    """Relabel so the highest-degree vertex becomes id 0, and so on.

    Maximises hot-region locality: the hot head of every vertex-indexed
    array is contiguous, the best case for chunk-granular placement.
    """
    rank = np.empty(graph.num_vertices, dtype=np.int64)
    rank[np.argsort(graph.degrees)[::-1]] = np.arange(graph.num_vertices)
    out = apply_permutation(graph, rank)
    out.name = f"{graph.name}-degsorted"
    return out


def random_relabel(graph: CSRGraph, seed: int = 0) -> CSRGraph:
    """Relabel with a uniformly random permutation (destroys locality)."""
    rng = np.random.default_rng(seed)
    out = apply_permutation(graph, rng.permutation(graph.num_vertices))
    out.name = f"{graph.name}-shuffled"
    return out
