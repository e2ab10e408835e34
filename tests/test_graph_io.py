"""Unit tests for edge-list IO."""

import io

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.io import read_edge_list, write_edge_list


class TestReadEdgeList:
    def test_basic_read(self):
        text = io.StringIO("# comment\n0 1\n1 2\n")
        g = read_edge_list(text)
        assert g.num_vertices == 3
        assert g.num_edges == 4  # symmetrised

    def test_percent_comments_ignored(self):
        text = io.StringIO("% konect header\n0 1\n")
        g = read_edge_list(text)
        assert g.num_edges == 2

    def test_ids_compacted(self):
        text = io.StringIO("100 200\n200 300\n")
        g = read_edge_list(text)
        assert g.num_vertices == 3

    def test_directed_read(self):
        text = io.StringIO("0 1\n")
        g = read_edge_list(text, symmetrize=False)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == []

    def test_weighted_directed_read(self):
        text = io.StringIO("0 1 5\n1 0 7\n")
        g = read_edge_list(text, symmetrize=False)
        assert g.weights is not None
        assert g.edge_weights_of(0).tolist() == [5]
        assert g.edge_weights_of(1).tolist() == [7]

    def test_weighted_self_loop_dropped_with_its_weight(self):
        text = io.StringIO("0 1 5\n1 1 9\n1 0 7\n")
        g = read_edge_list(text, symmetrize=False)
        assert g.num_edges == 2
        assert g.edge_weights_of(0).tolist() == [5]
        assert g.edge_weights_of(1).tolist() == [7]

    def test_weighted_repeated_pair_rejected(self):
        text = io.StringIO("10 20 5\n20 10 6\n10 20 7\n")
        with pytest.raises(ValueError, match=r"repeated weighted edge \(10, 20\)"):
            read_edge_list(text, symmetrize=False)

    def test_weighted_symmetrize_rejected(self):
        with pytest.raises(ValueError, match="symmetrize=False"):
            read_edge_list(io.StringIO("0 1 5\n"), symmetrize=True)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("0 1 2 3\n"))

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("0 1\n0 1 4\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("# nothing\n"))


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        g = CSRGraph.from_edges(
            4, np.array([0, 1, 2]), np.array([1, 2, 3]), name="path4"
        )
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path, symmetrize=False)
        assert g2.num_vertices == g.num_vertices
        assert g2.num_edges == g.num_edges
        assert np.array_equal(g2.offsets, g.offsets)
        assert np.array_equal(g2.adjacency, g.adjacency)

    def test_weighted_round_trip(self, tmp_path):
        g = CSRGraph.from_edges(3, np.array([0, 1]), np.array([1, 2])).with_weights(
            np.random.default_rng(1)
        )
        path = tmp_path / "weighted.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path, symmetrize=False)
        assert np.array_equal(g2.weights, g.weights)

    def test_name_from_filename(self, tmp_path):
        g = CSRGraph.from_edges(2, np.array([0]), np.array([1]))
        path = tmp_path / "mygraph.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).name == "mygraph"
