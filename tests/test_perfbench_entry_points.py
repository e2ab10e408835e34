"""The entry points the benchmark's layer wrappers patch by name.

``perfbench/layers.py`` looks each traced function up in its module's
(or class's) ``__dict__``: renaming one raises ``KeyError`` only in a
traced benchmark run.  This suite arms and disarms the wrappers, drives
every fold path once, and checks the gap fold is traced inside the fold
and extend spans — which holds only while the folds call
``reuse_time_gaps`` through its module-level name.  It also checks that
every pool and store entry point the wrappers patch is still defined
under its name, including the per-kind store methods the cache no
longer calls for every kind.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.mem import cache as mem_cache
from repro.mem.cache import WorkingSetCache
from repro.sim import parallel, reusepack
from repro.sim.tracestore import TraceStore

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

#: ``(owner, name)`` of every reuse entry point the wrappers patch.
ENTRY_POINTS = (
    (reusepack, "build_reuse_profile"),
    (reusepack, "fold_reuse_chunks"),
    (mem_cache, "reuse_time_gaps"),
    (reusepack.ReuseProfile, "extend"),
    (reusepack.ReuseProfile, "hit_mask_for"),
)

#: ``(owner, name)`` of every pool and store entry point the wrappers patch.
POOL_AND_STORE_ENTRY_POINTS = (
    (parallel, "execute_job"),
    (parallel, "_stage_entry"),
    (parallel.ExperimentPool, "run"),
    *(
        (TraceStore, f"{verb}_{kind}")
        for kind in ("trace", "mask", "profile", "reuse")
        for verb in ("save", "load")
    ),
    (TraceStore, "should_persist"),
    (TraceStore, "single_flight"),
    (TraceStore, "wait_for_lease"),
)


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arm_wraps_every_fold_entry_point_and_disarm_restores_them(tmp_path):
    originals = [owner.__dict__[name] for owner, name in ENTRY_POINTS]
    armed = load_layers().arm(tmp_path)
    try:
        for (owner, name), original in zip(ENTRY_POINTS, originals):
            assert owner.__dict__[name] is not original, name
        # The folds see the wrapped gap fold under their own global name.
        assert reusepack.reuse_time_gaps is mem_cache.reuse_time_gaps
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 16, size=3_000)
        profile = reusepack.build_reuse_profile(addrs)
        profile = profile.extend(rng.integers(0, 1 << 16, size=500))
        reusepack.fold_reuse_chunks(np.array_split(addrs, 3))
        profile.hit_mask_for(WorkingSetCache(1 << 14))
    finally:
        armed.disarm()
    for (owner, name), original in zip(ENTRY_POINTS, originals):
        assert owner.__dict__[name] is original, name
    spans = armed.recorder.spans
    name_of = {span["id"]: span["name"] for span in spans}
    parents = sorted(
        name_of[span["parent"]]
        for span in spans
        if span["name"] == "mem.cache.gap_fold"
    )
    # One gap fold per chunk and one for the one-shot fold and the extend.
    assert parents == ["reusepack.extend"] + ["reusepack.fold"] * 4
    assert [s["name"] for s in spans].count("reusepack.derive") == 1


def test_arm_wraps_every_pool_and_store_entry_point_by_name(tmp_path):
    originals = [owner.__dict__[name] for owner, name in POOL_AND_STORE_ENTRY_POINTS]
    armed = load_layers().arm(tmp_path)
    try:
        for (owner, name), original in zip(POOL_AND_STORE_ENTRY_POINTS, originals):
            assert owner.__dict__[name] is not original, name
    finally:
        armed.disarm()
    for (owner, name), original in zip(POOL_AND_STORE_ENTRY_POINTS, originals):
        assert owner.__dict__[name] is original, name
