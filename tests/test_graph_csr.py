"""Unit and property tests for the CSR graph structure."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_NAMES, dataset_by_name
from repro.graph.reorder import apply_permutation


def triangle():
    # 0-1, 1-2, 0-2 undirected
    return CSRGraph.from_edges(
        3, np.array([0, 1, 0]), np.array([1, 2, 2]), name="triangle"
    )


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 6  # 3 undirected edges, both directions
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_from_edges_directed(self):
        g = CSRGraph.from_edges(3, np.array([0]), np.array([1]), symmetrize=False)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == []

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(2, np.array([0, 0]), np.array([0, 1]))
        assert g.num_edges == 2

    def test_duplicates_merged(self):
        g = CSRGraph.from_edges(2, np.array([0, 0, 0]), np.array([1, 1, 1]))
        assert g.num_edges == 2

    def test_duplicates_kept_when_requested(self):
        g = CSRGraph.from_edges(
            2, np.array([0, 0]), np.array([1, 1]), symmetrize=False, dedup=False
        )
        assert g.num_edges == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([0]), np.array([5]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, np.array([0, 1]), np.array([1]))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_packed_key_overflow_rejected(self):
        # 2**32 vertices overflow src * V + dst; the guard fires before
        # any V-sized array is allocated.
        with pytest.raises(ValueError, match="overflow the int64 edge key"):
            CSRGraph.from_edges(2**32, np.array([0]), np.array([1]))


class TestValidation:
    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_offsets_must_match_adjacency(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_adjacency_targets_in_range(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([7]))

    def test_weights_shape_checked(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0]), weights=np.array([1, 2]))


class TestAccessors:
    def test_degrees(self):
        g = triangle()
        assert g.degrees.tolist() == [2, 2, 2]

    def test_neighbors_sorted(self):
        g = triangle()
        assert g.neighbors(1).tolist() == sorted(g.neighbors(1).tolist())

    def test_with_weights(self):
        g = triangle().with_weights(np.random.default_rng(0), max_weight=5)
        assert g.weights is not None
        assert g.weights.min() >= 1
        assert g.weights.max() <= 5
        assert g.edge_weights_of(0).size == 2

    def test_edge_weights_require_weighted_graph(self):
        with pytest.raises(ValueError):
            triangle().edge_weights_of(0)


@given(
    n=st.integers(2, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_symmetry_property(n, edges):
    """After symmetrisation, u in N(v) iff v in N(u)."""
    edges = [(u % n, v % n) for u, v in edges]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = CSRGraph.from_edges(n, src, dst)
    for v in range(n):
        for u in g.neighbors(v):
            assert v in g.neighbors(int(u))


@given(
    n=st.integers(2, 20),
    edges=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
)
@settings(max_examples=50, deadline=None)
def test_edge_conservation(n, edges):
    """Every non-loop input edge appears in the CSR (both directions)."""
    edges = [(u % n, v % n) for u, v in edges if u % n != v % n]
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = CSRGraph.from_edges(n, src, dst)
    for u, v in edges:
        assert v in g.neighbors(u)
        assert u in g.neighbors(v)


def reference_from_edges(num_vertices, src, dst, *, symmetrize=True, dedup=True):
    """The unique + lexsort + scatter-add assembly the packed-key sort replaced."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if dedup and src.size:
        key = src * num_vertices + dst
        _, unique_idx = np.unique(key, return_index=True)
        src, dst = src[unique_idx], dst[unique_idx]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, dst


@given(
    n=st.integers(2, 12),
    edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=120),
    symmetrize=st.booleans(),
    dedup=st.booleans(),
)
@example(n=5, edges=[], symmetrize=True, dedup=True)
@example(n=5, edges=[], symmetrize=False, dedup=False)
@example(n=4, edges=[(1, 1), (3, 3), (1, 1)], symmetrize=True, dedup=False)
@example(n=2, edges=[(0, 1), (1, 0)] * 20, symmetrize=True, dedup=False)
@example(n=2, edges=[(0, 1)] * 30 + [(1, 1)], symmetrize=False, dedup=True)
@settings(max_examples=200, deadline=None)
def test_from_edges_matches_reference(n, edges, symmetrize, dedup):
    """The packed-key sort builds the reference assembly's exact arrays."""
    src = np.array([u % n for u, _ in edges], dtype=np.int64)
    dst = np.array([v % n for _, v in edges], dtype=np.int64)
    g = CSRGraph.from_edges(n, src, dst, symmetrize=symmetrize, dedup=dedup)
    offsets, adjacency = reference_from_edges(
        n, src, dst, symmetrize=symmetrize, dedup=dedup
    )
    assert np.array_equal(g.offsets, offsets)
    assert np.array_equal(g.adjacency, adjacency)


@given(
    n=st.integers(2, 10),
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=80
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_apply_permutation_matches_lexsort_reference(n, edges, seed):
    """Relabelling a weighted multigraph keeps every weight on its edge,
    parallel edges in their stored order — as a stable lexsort does."""
    src = np.array([u % n for u, _ in edges], dtype=np.int64)
    dst = np.array([v % n for _, v in edges], dtype=np.int64)
    base = CSRGraph.from_edges(n, src, dst, symmetrize=False, dedup=False)
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 100, size=base.num_edges)
    graph = CSRGraph(base.offsets, base.adjacency, weights)
    perm = rng.permutation(n)
    out = apply_permutation(graph, perm)
    old_src = np.repeat(np.arange(n), graph.degrees)
    new_src, new_dst = perm[old_src], perm[graph.adjacency]
    order = np.lexsort((new_dst, new_src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, new_src + 1, 1)
    np.cumsum(offsets, out=offsets)
    assert np.array_equal(out.offsets, offsets)
    assert np.array_equal(out.adjacency, new_dst[order])
    assert np.array_equal(out.weights, weights[order])


#: sha256 of (offsets, adjacency) bytes for every Table 2 input at scale
#: 16384, seed 7, as the unique + lexsort assembly built them.
DATASET_DIGESTS = {
    "pokec": (
        "f3e0d7376667a155e13468919fd09ec3c54e3b323866cbdd52f5128052d02ec4",
        "d5a84a099c383e00bdd7b71906ac0792bdd35b0cd670f52ee60f8bacac776307",
    ),
    "rmat24": (
        "ad68363bc461c1436dda9aff8efe6a4058399182dbd589fa3d44bf36ec35b849",
        "2fb99c56aef55827bc9a68f7be9697f88b37b83522b178c4d18e90261bb53d7a",
    ),
    "twitter": (
        "abc54b0adab1f882124091d1b120dd9ba4849e86c65d7f0904e766df51d3d938",
        "a416e619b7927c5dbd03bd085060784149d2411a8f391dcce14d325bfe405f96",
    ),
    "rmat27": (
        "d610aa493aac58711ae09aebf88fb9a17ff82ad75a477dc64daf2619ef52c779",
        "b9ca9b7ad755c18329f127c8deda86c7afe67099300998dc8931e7be98b71597",
    ),
    "friendster": (
        "a237cd7af0e5f22cbac82345972edcf07da8c91d8b31c0052ddbef8700ede051",
        "2dbb2ae2de60e15bec11a003ba0254c5fcaff6c4d16bfac5dafc3517b96a3ddf",
    ),
}


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_digests_pinned(name):
    g = dataset_by_name(name, 16384, seed=7)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()
        for a in (g.offsets, g.adjacency)
    )
    assert digests == DATASET_DIGESTS[name]
