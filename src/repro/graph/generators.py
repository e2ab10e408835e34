"""Synthetic graph generators.

Two families cover the paper's five inputs:

- :func:`rmat_graph` — the classic recursive-matrix generator (Chakrabarti
  et al.), used for rMat24/rMat27.  With the Graph500 parameters
  ``(a, b, c) = (0.57, 0.19, 0.19)``, low vertex ids accumulate high degree,
  producing the *spatially clustered* hot regions that make chunk-granular
  placement effective.
- :func:`chung_lu_graph` — a Chung-Lu model with a Zipf expected-degree
  sequence, used for the social networks (pokec, twitter, friendster).  Hub
  vertices are assigned contiguous low ids with a configurable fraction
  shuffled, modelling the partial locality of crawled social graphs.

Plus :func:`uniform_random_graph` (Erdos-Renyi-ish) as the skew-free control
for ablations: with uniform access there are no dense regions and adaptive
chunk placement degenerates to whole-structure placement (paper Section 9).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """Generate a symmetrised R-MAT graph with ``2**scale`` vertices.

    ``edge_factor`` directed edges per vertex are sampled; self-loops and
    duplicates are removed, so the final edge count is slightly lower.
    """
    if scale <= 0 or scale > 28:
        raise ValueError(f"scale must be in (0, 28], got {scale}")
    if not 0 < a + b + c < 1:
        raise ValueError("R-MAT probabilities must satisfy 0 < a+b+c < 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Each bit of the vertex id is drawn independently per R-MAT recursion,
    # into rows allocated once and reused by every level.
    ab = a + b
    a_norm = a / ab
    c_norm = c / (1.0 - ab)
    draw = np.empty(m)
    col_prob = np.empty(m)
    go_right = np.empty(m, dtype=bool)
    go_down = np.empty(m, dtype=bool)
    for _ in range(scale):
        rng.random(out=draw)
        np.greater(draw, ab, out=go_right)  # choose bottom half of the matrix
        col_prob.fill(a_norm)
        np.copyto(col_prob, c_norm, where=go_right)
        rng.random(out=draw)
        np.greater(draw, col_prob, out=go_down)
        src <<= 1
        src |= go_right
        dst <<= 1
        dst |= go_down
    return CSRGraph.from_edges(n, src, dst, name=name or f"rmat{scale}")


def chung_lu_graph(
    num_vertices: int,
    num_edges: int,
    *,
    zipf_exponent: float = 0.6,
    hub_shuffle: float = 0.05,
    seed: int = 1,
    name: str = "chung-lu",
) -> CSRGraph:
    """Generate a power-law graph with Zipf expected degrees.

    Endpoint *i* of each directed edge is drawn with probability
    proportional to ``(rank(i) + 1) ** -zipf_exponent``.  Vertices are
    rank-ordered by id (hubs at low ids) and then a ``hub_shuffle`` fraction
    of ids is randomly permuted, so hot vertices are mostly — but not
    perfectly — contiguous, like relabelled social-network crawls.
    """
    if num_vertices <= 1:
        raise ValueError(f"need at least 2 vertices, got {num_vertices}")
    if num_edges <= 0:
        raise ValueError(f"need a positive edge count, got {num_edges}")
    if not 0.0 <= hub_shuffle <= 1.0:
        raise ValueError(f"hub_shuffle must be in [0, 1], got {hub_shuffle}")
    rng = np.random.default_rng(seed)
    weights = (np.arange(1, num_vertices + 1, dtype=np.float64)) ** -zipf_exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    src = np.searchsorted(cdf, rng.random(num_edges))
    dst = np.searchsorted(cdf, rng.random(num_edges))
    if hub_shuffle > 0.0:
        perm = np.arange(num_vertices, dtype=np.int64)
        k = max(2, int(num_vertices * hub_shuffle))
        chosen = rng.choice(num_vertices, size=k, replace=False)
        perm[chosen] = perm[rng.permutation(chosen)]
        src, dst = perm[src], perm[dst]
    return CSRGraph.from_edges(num_vertices, src, dst, name=name)


def grid_graph(
    rows: int,
    cols: int,
    *,
    diagonal: bool = False,
    name: str = "grid",
) -> CSRGraph:
    """Generate a 2-D lattice (road-network-like) graph.

    The opposite regime from the social networks: degree is nearly
    constant (no hubs), diameter is O(rows + cols) (many BFS/SSSP
    rounds), and spatial locality is perfect.  The negative control for
    skew-driven placement studies — there are no dense regions to find.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    src_parts = [ids[:, :-1].ravel(), ids[:-1, :].ravel()]
    dst_parts = [ids[:, 1:].ravel(), ids[1:, :].ravel()]
    if diagonal:
        src_parts.append(ids[:-1, :-1].ravel())
        dst_parts.append(ids[1:, 1:].ravel())
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    return CSRGraph.from_edges(rows * cols, src, dst, name=name)


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int = 1,
    name: str = "uniform",
) -> CSRGraph:
    """Generate a uniform (skew-free) random graph — the ablation control."""
    if num_vertices <= 1:
        raise ValueError(f"need at least 2 vertices, got {num_vertices}")
    if num_edges <= 0:
        raise ValueError(f"need a positive edge count, got {num_edges}")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edges(num_vertices, src, dst, name=name)
