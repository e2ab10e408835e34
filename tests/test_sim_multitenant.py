"""Tests for the multi-tenant shared-fast-memory host."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.config import mcdram_dram_testbed, nvm_dram_testbed
from repro.errors import ConfigurationError
from repro.graph.generators import chung_lu_graph
from repro.mem.address_space import ARENA_BASE
from repro.mem.cache import VERIFY_ENV
from repro.obs.metrics import process_metrics
from repro.serve.arrivals import DEFAULT_ROSTER
from repro.serve.service import canonical_placements
from repro.sim.multitenant import MultiTenantHost
from repro.sim.parallel import AppSpec
from repro.sim.tracecache import TraceCache


@pytest.fixture(scope="module")
def graphs():
    return (
        chung_lu_graph(12_000, 150_000, seed=31, name="tenant-a"),
        chung_lu_graph(12_000, 150_000, seed=32, name="tenant-b"),
    )


class TestAdmission:
    def test_two_tenants_coexist(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("BFS", graphs[1]))
        results = host.run()
        assert set(results) == {"a", "b"}
        assert all(r.optimized.seconds > 0 for r in results.values())

    def test_duplicate_tenant_rejected(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        with pytest.raises(ConfigurationError):
            host.admit("a", lambda: make_app("BFS", graphs[1]))

    def test_object_names_prefixed(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        app = host.admit("a", lambda: make_app("PR", graphs[0]))
        assert "offsets" in app.objects
        # The runtime sees the prefixed name.
        assert app.objects["offsets"].name == "a/offsets"


class TestSharedCapacity:
    def test_both_tenants_speed_up_with_ample_capacity(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("PR", graphs[1]))
        results = host.run()
        assert results["a"].speedup > 1.2
        assert results["b"].speedup > 1.2

    def test_capacity_never_oversubscribed(self, graphs):
        platform = mcdram_dram_testbed(scale=1 << 17)  # ~128 KiB fast tier
        host = MultiTenantHost(platform)
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("PR", graphs[1]))
        host.run()
        cap = platform.tiers[platform.fast_tier].capacity_bytes
        assert host.fast_tier_used_bytes() <= cap

    def test_first_tenant_gets_first_pick(self, graphs):
        # Capacity for roughly one tenant's hot set only.
        platform = mcdram_dram_testbed(scale=1 << 16)  # ~256 KiB
        host = MultiTenantHost(platform)
        host.admit("first", lambda: make_app("PR", graphs[0]))
        host.admit("second", lambda: make_app("PR", graphs[1]))
        results = host.run()
        assert results["first"].fast_bytes >= results["second"].fast_bytes

    def test_departure_returns_capacity_and_stays_consistent(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("BFS", graphs[1]))
        host.run()
        used_before = host.fast_tier_used_bytes()
        host.depart("a")
        assert [t[0] for t in host.tenants] == ["b"]
        assert host.fast_tier_used_bytes() <= used_before
        assert host.system.check_consistency() == []
        # The survivor still measures cleanly on the shared system.
        results = host.run()
        assert set(results) == {"b"}

    def test_departing_unknown_tenant_rejected(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        with pytest.raises(ConfigurationError):
            host.depart("nobody")

    def test_departed_name_can_be_readmitted(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.depart("a")
        host.admit("a", lambda: make_app("PR", graphs[0]))
        results = host.run()
        assert set(results) == {"a"}


class TestPrefixedRegistry:
    def test_full_registry_surface_is_forwarded(self, graphs):
        """Tenant apps get malloc/free and placement-hinted registration."""
        host = MultiTenantHost(nvm_dram_testbed())
        from repro.sim.multitenant import _PrefixedRegistry

        host.admit("a", lambda: make_app("PR", graphs[0]))
        _, _, runtime, _ = host.tenant("a")
        reg = _PrefixedRegistry(runtime, "a")
        scratch = reg.atmem_malloc("scratch", 4096)
        assert scratch.name == "a/scratch"
        assert "a/scratch" in runtime.objects
        reg.atmem_free("scratch")
        assert "a/scratch" not in runtime.objects

        preferred = reg.register_array_preferred(
            "hot", np.zeros(512, dtype=np.int64)
        )
        assert preferred.name == "a/hot"
        interleaved = reg.register_array_interleaved(
            "striped", np.zeros(512, dtype=np.int64)
        )
        assert interleaved.name == "a/striped"
        assert host.system.check_consistency() == []

    def test_selective_tenants_leave_room(self, graphs):
        """ATMem's Objective I: per-byte efficiency leaves capacity over."""
        platform = nvm_dram_testbed()
        host = MultiTenantHost(platform)
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("CC", graphs[1]))
        results = host.run()
        cap = platform.tiers[platform.fast_tier].capacity_bytes
        used = host.fast_tier_used_bytes()
        assert used < 0.5 * cap
        # Yet both tenants were served.
        assert all(r.fast_bytes > 0 for r in results.values())


class TestPhases:
    """Phase counters, phase-suffixed keys, and incremental refolds."""

    def test_phase_counter_lifecycle(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        assert host.phase_of("a") == 0
        assert host.phase_change("a") == 1
        assert host.phase_change("a") == 2
        assert host.phase_of("a") == 2
        host.set_phase("a", 5)
        assert host.phase_of("a") == 5
        host.set_phase("a", 0)
        assert host.phase_of("a") == 0

    def test_negative_phase_rejected(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        with pytest.raises(ConfigurationError):
            host.set_phase("a", -1)

    def test_unknown_tenant_rejected(self):
        host = MultiTenantHost(nvm_dram_testbed())
        with pytest.raises(ConfigurationError):
            host.phase_change("ghost")
        with pytest.raises(ConfigurationError):
            host.phase_of("ghost")

    def test_departure_clears_phase(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.phase_change("a")
        host.depart("a")
        host.admit("a", lambda: make_app("PR", graphs[0]))
        assert host.phase_of("a") == 0

    def test_phase_keys_suffix_only_later_phases(self):
        key = ("mt", "nvm_dram", (), ("a", "k"))
        assert MultiTenantHost._phase_key(key, 0) == key
        assert MultiTenantHost._phase_key(key, 2) == key + (("phase", 2),)
        assert MultiTenantHost._phase_key(None, 3) is None

    def test_phase_trace_is_cumulative_prefix(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        app = host.admit("a", lambda: make_app("PR", graphs[0]))
        t0 = MultiTenantHost._phase_trace(app, 0)
        t1 = MultiTenantHost._phase_trace(app, 1)
        n0 = t0.total_accesses
        assert t1.total_accesses == 2 * n0
        np.testing.assert_array_equal(
            t1.all_addresses()[:n0], t0.all_addresses()
        )

    def test_phase_change_profiles_extend_incrementally(self, graphs):
        cache = TraceCache(max_traces=8)
        host = MultiTenantHost(nvm_dram_testbed(), trace_cache=cache)

        def factory():
            return make_app("PR", graphs[0])

        factory.trace_key = lambda: ("pr", "tenant-a")
        host.admit("a", factory)
        host.profile_tenant("a")
        assert cache.stats.reuse_extends == 0
        host.phase_change("a")
        host.profile_tenant("a")
        assert cache.stats.reuse_extends == 1
        host.phase_change("a")
        host.profile_tenant("a")
        assert cache.stats.reuse_extends == 2


# ----------------------------------------------------------------------
# recipe keys and relocation
# ----------------------------------------------------------------------
TINY = 1 << 20  # datasets collapse to their floor size
ROSTER = tuple(AppSpec.make(app, data, scale=TINY) for app, data in DEFAULT_ROSTER)


def _counter(name: str) -> float:
    return process_metrics().counters.get(name, 0.0)


class _Recorded:
    """One tenant's observable outcome on a host, for bit-exact comparison."""

    def __init__(self, host, name, *, phases=0):
        _, _, runtime, _ = host.tenant(name)
        observed = []
        runtime.observe_misses = lambda addrs, real=runtime.observe_misses: (
            observed.append(np.array(addrs)), real(addrs)
        )
        for _ in range(phases):
            host.phase_change(name)
        plan, self.baseline = host.profile_tenant(name)
        del runtime.observe_misses
        host.optimize_tenant(name)
        self.result = host.measure_tenant(name, plan, self.baseline)
        self.placements = canonical_placements(
            runtime, host.system, prefix=f"{name}/"
        )
        self.misses = np.concatenate(observed)
        self.objects = [
            (obj.base_va, obj.end_va) for obj in runtime.objects.values()
        ]

    def assert_equals(self, other: "_Recorded") -> None:
        assert self.baseline == other.baseline
        assert self.result == other.result
        assert self.placements == other.placements
        np.testing.assert_array_equal(self.misses, other.misses)

    def misses_inside_objects(self) -> bool:
        inside = np.zeros(self.misses.size, dtype=bool)
        for lo, hi in self.objects:
            inside |= (self.misses >= lo) & (self.misses < hi)
        return bool(inside.all())


class TestRecipeKeys:
    """Tenant traces keyed by recipe, cached relative and relocated on admit."""

    def test_readmitted_tenant_is_fed_its_own_addresses(self):
        """A departed and re-admitted tenant must not see the old layout."""
        platform = nvm_dram_testbed(scale=512)
        bfs = ROSTER[1]
        cached = MultiTenantHost(platform, trace_cache=TraceCache(store=None))
        plain = MultiTenantHost(platform)
        for host in (cached, plain):
            host.admit("t00", bfs)
            _Recorded(host, "t00")
            host.depart("t00")
            host.admit("t00", bfs)
        _, _, runtime, _ = cached.tenant("t00")
        first = min(obj.base_va for obj in runtime.objects.values())
        assert first > ARENA_BASE  # the second admit really moved
        again, reference = _Recorded(cached, "t00"), _Recorded(plain, "t00")
        assert again.misses_inside_objects()
        again.assert_equals(reference)

    def test_relocated_runs_match_an_uncached_host(self):
        """Every recipe behind 0, 1 and 2 neighbours, and after a departure."""
        platform = nvm_dram_testbed(scale=512)
        cache = TraceCache(store=None)
        relocations = _counter("tenant.relocations")
        admitted = 0
        for rotation in range(len(ROSTER)):
            order = ROSTER[rotation:] + ROSTER[:rotation]
            cached = MultiTenantHost(platform, trace_cache=cache)
            plain = MultiTenantHost(platform)
            steps = [(f"t{i}", spec) for i, spec in enumerate(order)]
            steps.append(("again", order[0]))  # re-admit after t0 departs
            for name, spec in steps:
                if name == "again":
                    cached.depart("t0")
                    plain.depart("t0")
                cached.admit(name, spec)
                plain.admit(name, spec)
                mine, reference = _Recorded(cached, name), _Recorded(plain, name)
                assert mine.misses_inside_objects()
                mine.assert_equals(reference)
                admitted += 1
        # One trace and one fold per recipe; every other admit relocated.
        assert cache.stats.trace_misses == len(ROSTER)
        assert cache.stats.reuse_misses == len(ROSTER)
        assert _counter("tenant.relocations") - relocations == admitted

    def test_phase_chain_passes_every_parity_oracle(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "1")
        names = ("mask", "reuse", "pricing")
        before = {
            n: (_counter(f"{n}.parity_checks"), _counter(f"{n}.parity_failures"))
            for n in names
        }
        platform = nvm_dram_testbed(scale=512)
        cached = MultiTenantHost(platform, trace_cache=TraceCache(store=None))
        plain = MultiTenantHost(platform)
        for host in (cached, plain):
            host.admit("n", ROSTER[0])
            host.admit("a", ROSTER[2])
        for phases in (0, 1, 1):
            mine = _Recorded(cached, "a", phases=phases)
            mine.assert_equals(_Recorded(plain, "a", phases=phases))
        for n in names:
            checks, failures = before[n]
            assert _counter(f"{n}.parity_checks") > checks, n
            assert _counter(f"{n}.parity_failures") == failures, n

    def test_phase_builds_from_the_cached_previous_phase(self):
        cache = TraceCache(store=None)
        host = MultiTenantHost(nvm_dram_testbed(scale=512), trace_cache=cache)
        app = host.admit("a", ROSTER[0])
        calls = []
        real = app.run_once
        app.run_once = lambda: (calls.append(1), real())[1]
        host.profile_tenant("a")
        assert len(calls) == 1
        host.phase_change("a")
        plan, _ = host.profile_tenant("a")
        assert len(calls) == 2  # phase 1 = cached phase 0 + one run
        key, base = host._tenant_frame("a")
        full = MultiTenantHost._phase_trace(app, 1, origin=base)
        np.testing.assert_array_equal(
            plan.trace.all_addresses(), full.all_addresses()
        )
        # With phase 1 gone, phase 2 falls back to the full build.
        cache.release(MultiTenantHost._phase_key(key, 1))
        calls.clear()
        host.phase_change("a")
        host.profile_tenant("a")
        assert len(calls) == 3

    def test_unkeyable_tenant_runs_uncached_alone(self, graphs):
        cache = TraceCache(store=None)
        host = MultiTenantHost(nvm_dram_testbed(), trace_cache=cache)
        host.admit("plain", lambda: make_app("PR", graphs[0]))
        host.admit("keyed", ROSTER[0])
        assert host._tenant_frame("plain") is None
        host.run()
        # The unkeyable neighbour does not stop the keyed tenant caching.
        assert cache.stats.trace_misses == 1
        assert len(cache) == 1

    def test_key_names_recipe_and_relative_layout(self):
        host = MultiTenantHost(nvm_dram_testbed(scale=512))
        host.admit("x", ROSTER[0])
        host.admit("y", ROSTER[0])
        (kx, bx), (ky, by) = host._tenant_frame("x"), host._tenant_frame("y")
        assert kx == ky and by > bx
        assert kx[2] == ROSTER[0].trace_key()
        assert kx[3][0][1] == 0  # offsets are relative to the first object


class TestPhaseChains:
    """A phase chain's traces and reuse gaps are prefix views of one row."""

    @staticmethod
    def chain(phases: int):
        """A cached host with one tenant profiled at phases 0..``phases``."""
        cache = TraceCache(store=None)
        host = MultiTenantHost(nvm_dram_testbed(scale=512), trace_cache=cache)
        host.admit("a", ROSTER[0])
        key, _ = host._tenant_frame("a")
        line_size = host.system.llc.line_size
        stages = []
        for phase in range(phases + 1):
            if phase:
                host.phase_change("a")
            plan, _ = host.profile_tenant("a")
            pkey = MultiTenantHost._phase_key(key, phase)
            gaps = cache.reuse_profile(pkey, plan.trace, line_size).gaps
            stages.append((plan, gaps))
        return host, cache, key, stages

    def test_later_phases_share_one_address_row_and_one_gap_row(self):
        _, _, _, stages = self.chain(3)
        addrs = [plan.trace.all_addresses() for plan, _ in stages]
        gaps = [g for _, g in stages]
        for rows in (addrs, gaps):
            assert all(r.size == (k + 1) * rows[0].size for k, r in enumerate(rows))
            assert not np.shares_memory(rows[0], rows[1])
            assert np.shares_memory(rows[1], rows[2])
            assert np.shares_memory(rows[1], rows[3])
            assert not any(r.flags.writeable for r in rows[1:])

    def test_rebuilt_phase_leaves_a_held_view_alone(self):
        host, cache, key, stages = self.chain(2)
        held, held_gaps = stages[2]
        kept = held.trace.all_addresses().copy(), held_gaps.copy()
        copies = _counter("chain.copies")
        cache.release(MultiTenantHost._phase_key(key, 2))
        rebuilt, _ = host.profile_tenant("a")  # phase 2 again, from phase 1
        assert _counter("chain.copies") >= copies + 2  # addresses and gaps
        fresh = rebuilt.trace.all_addresses()
        assert not np.shares_memory(fresh, held.trace.all_addresses())
        np.testing.assert_array_equal(held.trace.all_addresses(), kept[0])
        np.testing.assert_array_equal(held_gaps, kept[1])
        np.testing.assert_array_equal(fresh, kept[0])
        np.testing.assert_array_equal(rebuilt.hits, held.hits)

    def test_four_phase_chain_passes_the_parity_oracles(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "1")
        before = {
            n: (_counter(f"{n}.parity_checks"), _counter(f"{n}.parity_failures"))
            for n in ("mask", "reuse")
        }
        appends = _counter("chain.appends")
        self.chain(3)
        assert _counter("chain.appends") > appends
        for n, (checks, failures) in before.items():
            assert _counter(f"{n}.parity_checks") > checks, n
            assert _counter(f"{n}.parity_failures") == failures, n

    def test_chain_matches_an_uncached_host(self):
        platform = nvm_dram_testbed(scale=512)
        cached = MultiTenantHost(platform, trace_cache=TraceCache(store=None))
        plain = MultiTenantHost(platform)
        for host in (cached, plain):
            host.admit("n", ROSTER[1])
            host.admit("a", ROSTER[0])
        for phases in (0, 1, 1, 1):
            mine = _Recorded(cached, "a", phases=phases)
            mine.assert_equals(_Recorded(plain, "a", phases=phases))
