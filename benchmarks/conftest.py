"""Shared pytest configuration for the benchmark harness.

Each benchmark computes one paper table/figure exactly once (pedantic,
one round) — the interesting output is the printed/saved artifact, not a
timing distribution.  Heavy grids are shared between benchmarks through
the memoised cache in :mod:`repro.bench.workloads`.

Pass ``--jobs N`` to fan experiment cells out across N worker processes
(sets ``REPRO_JOBS`` for the whole run).
"""

import os
import sys
from pathlib import Path

import pytest

# Self-contained: `make bench` works without an installed package or an
# exported PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    """Register the ``--jobs`` fan-out knob for benchmark runs."""
    parser.addoption(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment fan-out (sets REPRO_JOBS)",
    )


@pytest.fixture(autouse=True)
def _experiment_jobs(request):
    """Propagate --jobs to the pool."""
    jobs = request.config.getoption("--jobs")
    if jobs is not None:
        os.environ["REPRO_JOBS"] = str(jobs)
    yield


@pytest.fixture
def once(benchmark):
    """Run a paper-experiment callable once under pytest-benchmark timing."""

    def run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return run
