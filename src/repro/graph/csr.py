"""Compressed-sparse-row graph representation.

The CSR layout matches what the paper's SIMD graph framework (GraphPhi [28])
uses and is exactly the layout whose skewed access patterns ATMem exploits:

- ``offsets`` — ``int64[V + 1]``, neighbour-list start per vertex;
- ``adjacency`` — ``int64[E]``, concatenated neighbour lists;
- ``weights`` — optional ``int64[E]`` edge weights (SSSP).

Graphs are stored directed; the generators symmetrise so the one structure
serves every kernel.  Vertex ids are dense ``0..V-1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Largest vertex count whose packed edge key ``src * V + dst`` (and the
#: row bound ``V * V``) still fits in an int64.
MAX_PACKED_VERTICES = math.isqrt(2**63 - 1)


def assemble_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    dedup: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(offsets, adjacency, weights)`` of the edges ``src -> dst``.

    Every edge is packed into one int64 key ``src * V + dst``, so sorting
    the keys orders the edges by source, then destination — the CSR order.
    Unweighted keys sort in place: equal keys are equal edges, so their
    relative order cannot show.  Weighted keys take a stable argsort so
    each weight follows its edge and parallel edges keep their input
    order.  With ``dedup`` adjacent repeats are dropped (unweighted only:
    which weight a merged edge keeps is the caller's decision).  Row
    starts are the sorted positions of ``u * V``; a key's destination is
    its remainder modulo ``V``.
    """
    if num_vertices > MAX_PACKED_VERTICES:
        raise ValueError(
            f"{num_vertices} vertices overflow the int64 edge key "
            f"(at most {MAX_PACKED_VERTICES})"
        )
    if dedup and weights is not None:
        raise ValueError("weighted edges cannot be deduplicated")
    key = src * num_vertices + dst
    if weights is None:
        key.sort()
        if dedup and key.size:
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    else:
        order = np.argsort(key, kind="stable")
        key, weights = key[order], weights[order]
    offsets = np.searchsorted(
        key, np.arange(num_vertices + 1, dtype=np.int64) * num_vertices
    )
    return offsets, key % num_vertices, weights


@dataclass
class CSRGraph:
    """An immutable CSR graph."""

    offsets: np.ndarray
    adjacency: np.ndarray
    weights: np.ndarray | None = None
    name: str = "graph"
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.adjacency = np.ascontiguousarray(self.adjacency, dtype=np.int64)
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.int64)
            if self.weights.shape != self.adjacency.shape:
                raise ValueError(
                    f"weights shape {self.weights.shape} does not match "
                    f"adjacency shape {self.adjacency.shape}"
                )
        self._validate()

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ValueError("offsets must be a 1-D array of size V+1 >= 1")
        if self.offsets[0] != 0:
            raise ValueError(f"offsets must start at 0, got {self.offsets[0]}")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if int(self.offsets[-1]) != self.adjacency.size:
            raise ValueError(
                f"offsets end at {self.offsets[-1]} but adjacency has "
                f"{self.adjacency.size} entries"
            )
        if self.adjacency.size:
            lo, hi = int(self.adjacency.min()), int(self.adjacency.max())
            if lo < 0 or hi >= self.num_vertices:
                raise ValueError(
                    f"adjacency targets [{lo}, {hi}] out of range for "
                    f"{self.num_vertices} vertices"
                )

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        return self.adjacency.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.offsets)
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """The neighbour list of vertex ``v`` (a view, do not mutate)."""
        return self.adjacency[self.offsets[v] : self.offsets[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges (requires a weighted graph)."""
        if self.weights is None:
            raise ValueError(f"graph {self.name!r} has no edge weights")
        return self.weights[self.offsets[v] : self.offsets[v + 1]]

    def with_weights(self, rng: np.random.Generator, max_weight: int = 16) -> "CSRGraph":
        """Return a copy with pseudo-random integer weights in [1, max_weight].

        Weights are *symmetric*: the edge (u, v) carries the same weight in
        both stored directions, derived from a salted hash of the unordered
        vertex pair — as benchmark suites generate weights for undirected
        inputs.
        """
        salt = int(rng.integers(1, np.iinfo(np.int64).max))
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        lo = np.minimum(src, self.adjacency)
        hi = np.maximum(src, self.adjacency)
        key = (lo * np.int64(self.num_vertices) + hi) ^ np.int64(salt)
        # Cheap integer mix (Knuth multiplicative hashing) for even spread.
        mixed = (key * np.int64(2654435761)) & np.int64(0x7FFFFFFFFFFF)
        weights = (mixed >> 8) % max_weight + 1
        return CSRGraph(self.offsets, self.adjacency, weights, name=self.name)

    # ------------------------------------------------------------------
    @classmethod
    def from_trusted_parts(
        cls,
        offsets: np.ndarray,
        adjacency: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        name: str = "graph",
        degrees: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Wrap already-validated arrays without copying or re-validating.

        Used by :mod:`repro.graph.shm` to attach read-only shared-memory
        segments published by the pool parent: the arrays were validated
        (and dtype-normalised) when the source graph was built, and
        ``__post_init__``'s ``ascontiguousarray`` + O(E) range scan would
        either copy the segment or touch every page at attach time.
        """
        graph = cls.__new__(cls)
        graph.offsets = offsets
        graph.adjacency = adjacency
        graph.weights = weights
        graph.name = name
        graph._degrees = degrees
        return graph

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        symmetrize: bool = True,
        dedup: bool = True,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Self-loops are dropped.  With ``symmetrize`` each edge is inserted in
        both directions; with ``dedup`` parallel edges are merged.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst arrays must have equal length")
        if src.size:
            if int(min(src.min(), dst.min())) < 0 or int(
                max(src.max(), dst.max())
            ) >= num_vertices:
                raise ValueError("edge endpoint out of vertex range")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        offsets, adjacency, _ = assemble_csr(num_vertices, src, dst, dedup=dedup)
        return cls(offsets, adjacency, name=name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, weighted={self.weights is not None})"
        )
