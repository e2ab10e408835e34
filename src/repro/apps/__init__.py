"""Graph application kernels.

The five benchmarks from the paper's Section 6 (BFS, SSSP, PageRank, BC, CC)
plus the SpMV generalisation from Section 9.  Each app:

1. registers its data objects (CSR arrays + per-app property arrays) with a
   registry (the ATMem runtime, or a plain host registry in tests);
2. exposes ``run_once()``, one full benchmark iteration that computes the
   real result with vectorised NumPy *and* emits the memory-access trace the
   simulator charges for.

The kernels are NumPy translations of frontier/sweep-based SIMD graph
kernels; their access pattern — random offset/property gathers driven by the
graph structure, sequential edge scans — is exactly what ATMem profiles.
"""

from repro.apps.base import GraphApp, HostRegistry
from repro.apps.bc import BetweennessCentrality
from repro.apps.bfs import BFS
from repro.apps.cc import ConnectedComponents
from repro.apps.pagerank import PageRank
from repro.apps.spmv import SpMV
from repro.apps.sssp import SSSP

#: The paper's five applications, in the order of its figures.
APP_CLASSES = {
    "BFS": BFS,
    "SSSP": SSSP,
    "PR": PageRank,
    "BC": BetweennessCentrality,
    "CC": ConnectedComponents,
}

APP_NAMES = tuple(APP_CLASSES)

#: The Section 9 generalisation beyond the paper's evaluation set.
EXTRA_APP_CLASSES = {
    "SpMV": SpMV,
}

__all__ = [
    "APP_CLASSES",
    "APP_NAMES",
    "BFS",
    "BetweennessCentrality",
    "ConnectedComponents",
    "EXTRA_APP_CLASSES",
    "GraphApp",
    "HostRegistry",
    "PageRank",
    "SSSP",
    "SpMV",
]


def make_app(name: str, graph, **kwargs) -> GraphApp:
    """Instantiate one of the paper's applications by short name."""
    if name not in APP_CLASSES:
        raise ValueError(f"unknown app {name!r}; expected one of {APP_NAMES}")
    return APP_CLASSES[name](graph, **kwargs)
