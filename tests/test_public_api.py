"""Public-API surface tests: imports, exports, and extra-kernel smoke."""

import numpy as np
import pytest

import repro
from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    ReproError,
    RuntimeStateError,
    TraceError,
)


class TestTopLevelExports:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_flow(self):
        """The module docstring's example must actually work."""
        graph = repro.dataset_by_name("pokec", scale=8192)
        result = repro.run_atmem(
            lambda: repro.make_app("PR", graph), repro.nvm_dram_testbed()
        )
        assert result.seconds > 0
        assert 0.0 <= result.data_ratio <= 1.0


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ConfigurationError, CapacityError, AllocationError,
         RuntimeStateError, TraceError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_base(self):
        from repro.core.chunks import ChunkingPolicy

        with pytest.raises(ReproError):
            ChunkingPolicy(max_chunks=0)


class TestSystemFacade:
    def test_describe_names_roles(self):
        system = repro.nvm_dram_testbed().build_system()
        text = system.describe()
        assert "fast" in text and "slow" in text

    def test_reset_caches_safe(self):
        system = repro.nvm_dram_testbed().build_system()
        system.reset_caches()  # must not raise on a fresh system

    def test_fast_free_bytes(self):
        system = repro.nvm_dram_testbed().build_system()
        assert system.fast_free_bytes() == system.fast.capacity_bytes
        assert repro.nvm_dram_testbed().build_system().allocators[
            system.slow_tier
        ].free_bytes is None


class TestExtraKernelsEndToEnd:
    """The extra kernel (SpMV, paper Section 9) must survive the full ATMem flow."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph.generators import chung_lu_graph

        return chung_lu_graph(4_000, 50_000, seed=44)

    @pytest.mark.parametrize("name", ["SpMV"])
    def test_flow(self, graph, name):
        from repro.apps import EXTRA_APP_CLASSES

        platform = repro.nvm_dram_testbed()
        factory = lambda: EXTRA_APP_CLASSES[name](graph)
        baseline = repro.run_static(factory, platform, "slow")
        atmem = repro.run_atmem(factory, platform)
        assert atmem.seconds <= baseline.seconds * 1.01
        assert 0.0 <= atmem.data_ratio <= 1.0
