"""Edge-list reading and writing.

Supports the plain whitespace-separated edge-list format used by SNAP /
KONECT dumps (the paper's friendster comes from KONECT [1]): one ``src dst``
(optionally ``src dst weight``) pair per line, ``#``-prefixed comment lines
ignored.  Vertex ids are compacted to a dense ``0..V-1`` range on load.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph, assemble_csr


def read_edge_list(
    path: str | Path | io.TextIOBase,
    *,
    symmetrize: bool = True,
    name: str | None = None,
) -> CSRGraph:
    """Load a CSR graph from an edge-list file or file-like object.

    Self-loops are dropped.  An unweighted list is deduplicated (and
    symmetrised unless ``symmetrize=False``).  A weighted list loads
    directed only, and each ``(src, dst)`` pair may appear once.
    """
    close = False
    if isinstance(path, (str, Path)):
        handle = open(path, "r", encoding="utf-8")
        close = True
        graph_name = name or Path(path).stem
    else:
        handle = path
        graph_name = name or "graph"
    src_list: list[int] = []
    dst_list: list[int] = []
    weights: list[int] = []
    has_weights = None
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"line {lineno}: expected 'src dst [weight]', got {line!r}"
                )
            if has_weights is None:
                has_weights = len(parts) == 3
            elif has_weights != (len(parts) == 3):
                raise ValueError(f"line {lineno}: inconsistent column count")
            src_list.append(int(parts[0]))
            dst_list.append(int(parts[1]))
            if has_weights:
                weights.append(int(parts[2]))
    finally:
        if close:
            handle.close()
    if not src_list:
        raise ValueError("edge list is empty")
    if has_weights and symmetrize:
        raise ValueError(
            "a weighted edge list loads directed only: pass symmetrize=False "
            "(symmetrising would have to invent the reverse edges' weights)"
        )
    src = np.array(src_list, dtype=np.int64)
    dst = np.array(dst_list, dtype=np.int64)
    # Compact ids to 0..V-1.
    vertex_ids, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    num_vertices = int(vertex_ids.size)
    src = inverse[: src.size]
    dst = inverse[src.size :]
    if not has_weights:
        return CSRGraph.from_edges(
            num_vertices, src, dst, symmetrize=symmetrize, name=graph_name
        )
    # Weighted: self-loops go with their weights; parallel edges are an
    # error, since no rule says which weight a merged edge should keep.
    keep = src != dst
    src, dst = src[keep], dst[keep]
    edge_keys, counts = np.unique(src * num_vertices + dst, return_counts=True)
    if edge_keys.size != src.size:
        repeated = int(edge_keys[np.argmax(counts > 1)])
        u, v = divmod(repeated, num_vertices)
        raise ValueError(
            f"repeated weighted edge ({vertex_ids[u]}, {vertex_ids[v]})"
        )
    offsets, adjacency, weights_sorted = assemble_csr(
        num_vertices, src, dst, np.array(weights, dtype=np.int64)[keep]
    )
    return CSRGraph(offsets, adjacency, weights_sorted, name=graph_name)


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write a CSR graph as a plain edge list (one directed edge per line)."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    columns = [src, graph.adjacency]
    if graph.weights is not None:
        columns.append(graph.weights)
    data = np.column_stack(columns)
    header = f"# {graph.name}: {graph.num_vertices} vertices, {graph.num_edges} edges"
    np.savetxt(path, data, fmt="%d", header=header, comments="")
