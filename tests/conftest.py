"""Fixtures shared by every test under ``tests/``."""

import pytest

from repro.obs.metrics import METRICS_PATH_ENV


@pytest.fixture(autouse=True)
def _metrics_snapshot_in_tmp(tmp_path_factory, monkeypatch):
    """Send run-end metrics snapshots into a fresh temporary directory.

    Without it, a CLI command run by a test writes the default snapshot
    path, the tracked ``benchmarks/results/metrics-last.json``.  The
    directory is not the test's ``tmp_path``, which some tests list.
    """
    snapshot = tmp_path_factory.mktemp("metrics") / "metrics-last.json"
    monkeypatch.setenv(METRICS_PATH_ENV, str(snapshot))
