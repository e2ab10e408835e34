"""Unit tests for the graph disk cache."""

import numpy as np
import pytest

import repro.graph.datasets as datasets_mod
from repro.cachebudget import TRACE_STORE_ENV, budget_roots
from repro.graph.csr import CSRGraph
from repro.graph.diskcache import (
    CACHE_ENV,
    cache_path,
    cached_generate,
    default_cache_dir,
    load_graph,
    save_graph,
)
from repro.graph.generators import chung_lu_graph
from repro.sim.tracestore import store_root


@pytest.fixture()
def graph():
    return chung_lu_graph(100, 600, seed=1, name="toy")


class TestSaveLoad:
    def test_round_trip(self, tmp_path, graph):
        path = tmp_path / "toy.npz"
        save_graph(graph, path)
        loaded = load_graph(path, "toy")
        assert loaded is not None
        assert np.array_equal(loaded.offsets, graph.offsets)
        assert np.array_equal(loaded.adjacency, graph.adjacency)
        assert loaded.name == "toy"

    def test_weighted_round_trip(self, tmp_path, graph):
        weighted = graph.with_weights(np.random.default_rng(0))
        path = tmp_path / "w.npz"
        save_graph(weighted, path)
        loaded = load_graph(path, "w")
        assert np.array_equal(loaded.weights, weighted.weights)

    def test_missing_file_returns_none(self, tmp_path):
        assert load_graph(tmp_path / "ghost.npz", "g") is None

    def test_corrupted_file_returns_none(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz at all")
        assert load_graph(path, "bad") is None

    def test_wrong_format_version_rejected(self, tmp_path, graph):
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            offsets=graph.offsets,
            adjacency=graph.adjacency,
            format_version=np.array([999]),
        )
        assert load_graph(path, "old") is None


class TestCachedGenerate:
    def test_disabled_without_env(self, monkeypatch, graph):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert default_cache_dir() is None
        calls = []
        out = cached_generate("toy", 1, 1, lambda: calls.append(1) or graph)
        assert out is graph
        assert calls == [1]

    def test_generates_once_then_hits(self, monkeypatch, tmp_path, graph):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        calls = []

        def gen():
            calls.append(1)
            return graph

        first = cached_generate("toy", 4, 7, gen)
        second = cached_generate("toy", 4, 7, gen)
        assert calls == [1]
        assert np.array_equal(first.adjacency, second.adjacency)
        assert cache_path(tmp_path, "toy", 4, 7).exists()

    def test_distinct_keys_distinct_files(self, monkeypatch, tmp_path, graph):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cached_generate("toy", 4, 7, lambda: graph)
        cached_generate("toy", 8, 7, lambda: graph)
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_empty_env_disables(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "")
        assert default_cache_dir() is None

    def test_zero_disables_every_cache_root(self, monkeypatch, tmp_path):
        # "0" means off for both on-disk caches, never a directory "./0".
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(CACHE_ENV, "0")
        monkeypatch.setenv(TRACE_STORE_ENV, "0")
        monkeypatch.setattr(datasets_mod, "_CACHE", {})
        datasets_mod.dataset_by_name("pokec", scale=16384)
        assert default_cache_dir() is None
        assert store_root() is None
        assert budget_roots() == []
        assert not (tmp_path / "0").exists()

    def test_dataset_by_name_uses_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(datasets_mod, "_CACHE", {})
        g1 = datasets_mod.dataset_by_name("pokec", scale=16384)
        assert len(list(tmp_path.glob("pokec-*.npz"))) == 1
        monkeypatch.setattr(datasets_mod, "_CACHE", {})
        g2 = datasets_mod.dataset_by_name("pokec", scale=16384)
        assert np.array_equal(g1.adjacency, g2.adjacency)
