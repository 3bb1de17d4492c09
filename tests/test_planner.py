"""The batched query planner PR's acceptance surface (repro.sweep.planner).

The load-bearing guarantee is *projection equivalence*: answers the
planner projects out of one superset replay are bitwise-identical --
counts, meta, iteration order -- to what an individual
``run_sweep`` of each query's own spec produces, for every paper-grid
query, under both measurement semantics.  CI runs the equivalence tests by name
(``-k "equivalence and paper"`` / ``-k "equivalence and v2"``) as a
dedicated gate.

Around that pin: grouping/coalescing rules, the loud fallback paths,
wire-format query normalization, the byte-budgeted single-flight
:class:`SurfaceCache`, and the memory/disk cache interplay.
"""

import json
import random
import threading

import pytest

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.sweep import (
    HierarchySpec,
    PAPER_SIZES,
    Query,
    SurfaceCache,
    SweepSpec,
    paper_hierarchy,
    query_from_request,
    result_cache_key,
    run_batch,
    run_hierarchy,
    run_hierarchy_planned,
    run_sweep,
)
from repro.sweep import planner
from repro.sweep.runner import _RESULT_CACHES
from repro.trace.events import TraceEvent
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import TraceStore


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    monkeypatch.delenv(faults.ENV_EPOCH, raising=False)
    monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE_BYTES", raising=False)
    monkeypatch.delenv(planner.ENV_SURFACE_CACHE, raising=False)
    monkeypatch.delenv(planner.ENV_SURFACE_BUDGET, raising=False)
    monkeypatch.setattr(faults, "_ACTIVE", None)
    monkeypatch.setattr(faults, "_ACTIVE_SOURCE", None)
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    monkeypatch.setattr(telemetry, "_SOURCE", None)
    monkeypatch.setattr(planner, "_DEFAULT_CACHE", None)
    _RESULT_CACHES.clear()
    yield
    faults.install(None)
    telemetry.install(None)
    _RESULT_CACHES.clear()


def _mixed_trace(n=3000, seed=11):
    """Phased locality + random stragglers + a non-dispatched mix."""
    rnd = random.Random(seed)
    events = []
    for i in range(n):
        if rnd.random() < 0.3:
            address = rnd.randrange(600)
        else:
            address = (i * 7) % 97 + (i // 500) * 64
        events.append(TraceEvent(address, rnd.randrange(60),
                                 rnd.randrange(5),
                                 dispatched=rnd.random() < 0.7))
    return events


@pytest.fixture(scope="module")
def events():
    return _mixed_trace()


def _store_trace(tmp_path, length=512):
    def build(length=length):
        return [TraceEvent((i * 37) % 251 - 17, 1 + i % 7, i % 5,
                           bool(i % 2)) for i in range(length)]
    spec = WorkloadSpec(name="synthetic", description="test-only",
                        build=build, defaults={"length": length})
    store = TraceStore(tmp_path)
    return store, store.load(spec)


def _assert_bitwise_equal(got, want):
    """The projected surface IS the individual run's, bit for bit."""
    assert got.counts == want.counts
    assert got.opt_counts == want.opt_counts
    assert got.meta == want.meta
    assert list(got.counts) == list(want.counts)       # iteration order
    for assoc in got.counts:
        assert list(got.counts[assoc]) == list(want.counts[assoc])


GRID = dict(sizes=PAPER_SIZES, associativities=(1, 2, 4, "full"))
SEMANTICS = ("paper", "v2")
#: Engine modes the projection pin runs under: "numpy" is
#: ``engine="auto"`` resolved to the stack-distance engine.
ENGINE_MODES = ("numpy",)


def _paper_grid_queries(cache, engine, semantics):
    """A mixed batch over one cache kind: the full-grid sweep plus
    curve / isoratio / point queries on sub-grids of it."""
    common = dict(engine=engine, semantics=semantics, double_pass=True)
    full = SweepSpec(cache=cache, include_opt=True, **GRID, **common)
    curve_1 = SweepSpec(cache=cache, sizes=PAPER_SIZES,
                        associativities=(1,), **common)
    curve_f = SweepSpec(cache=cache, sizes=PAPER_SIZES,
                        associativities=("full",), **common)
    iso = SweepSpec(cache=cache, sizes=PAPER_SIZES,
                    associativities=(2, 4), **common)
    point = SweepSpec(cache=cache, sizes=(64,), associativities=(2,),
                      **common)
    return [
        Query(spec=full),
        Query(spec=curve_1, kind="curve", associativity=1),
        Query(spec=curve_f, kind="curve", associativity="full"),
        Query(spec=iso, kind="isoratio", target=0.97),
        Query(spec=point, kind="stats", associativity=2, size=64),
        Query(spec=point, kind="ratio", associativity=2, size=64),
    ]


class TestProjectionEquivalence:
    """Satellite: batch-planned answers bitwise-equal to individual
    ``run_sweep`` runs, both semantics."""

    @pytest.mark.parametrize("engine_mode", ENGINE_MODES)
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_mixed_batch_projection_equivalence(self, events, semantics,
                                                engine_mode):
        queries = []
        for cache in ("itlb", "icache"):
            queries.extend(_paper_grid_queries(cache, "auto", semantics))
        batch = run_batch(queries, events,
                          surface_cache=SurfaceCache())
        assert batch.report.queries == len(queries)
        # One superset replay per cache kind -- every other query in
        # the group is projected, never re-run.
        assert batch.report.replays == 2
        assert batch.report.coalesced == len(queries)
        assert batch.report.fallbacks == 0
        for query, surface in zip(batch.queries, batch.surfaces):
            solo = run_sweep(query.spec, events)
            _assert_bitwise_equal(surface, solo)
            assert surface.meta["engine"] == engine_mode
            assert query.answer(surface) == query.answer(solo)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_every_paper_grid_cell_equivalence(self, events, semantics):
        """Every (associativity, size) cell of the paper grid, asked
        as an individual stats query, batch-answered from <= 2 trace
        passes and bitwise-equal to the full-grid run."""
        full = SweepSpec(cache="itlb", semantics=semantics,
                         double_pass=True, **GRID)
        queries = [Query(spec=full, kind="stats", associativity=assoc,
                         size=size)
                   for assoc in (1, 2, 4, "full")
                   for size in PAPER_SIZES]
        batch = run_batch(queries, events,
                          surface_cache=SurfaceCache())
        assert batch.report.replays == 1
        assert batch.report.trace_passes <= 2     # the acceptance pin
        solo = run_sweep(full, events)
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, solo)
            hits, misses = solo.cell(query.associativity, query.size)
            answer = query.answer(surface)
            assert answer["hits"] == hits
            assert answer["misses"] == misses
            assert answer["ratio"] == \
                solo.ratio(query.associativity, query.size)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_warmup_window_projection_equivalence(self, events,
                                                  semantics):
        # Warm-up windows measure a *suffix* of the trace; projection
        # must hold there too (the group key keeps windows apart).
        for warmup in (0.0, 0.25, 0.9):
            spec_a = SweepSpec(cache="icache", sizes=(8, 16, 32),
                               associativities=(1,), double_pass=False,
                               warmup_fraction=warmup,
                               semantics=semantics)
            spec_b = SweepSpec(cache="icache", sizes=(16, 64),
                               associativities=(2, "full"),
                               double_pass=False,
                               warmup_fraction=warmup,
                               semantics=semantics)
            batch = run_batch([Query(spec=spec_a), Query(spec=spec_b)],
                              events, surface_cache=SurfaceCache())
            assert batch.report.replays == 1
            for query, surface in zip(batch.queries, batch.surfaces):
                _assert_bitwise_equal(surface,
                                      run_sweep(query.spec, events))


class TestGrouping:
    def test_disjoint_geometries_share_one_replay(self, events):
        a = SweepSpec(cache="itlb", sizes=(8, 32),
                      associativities=(1,))
        b = SweepSpec(cache="itlb", sizes=(16, 64),
                      associativities=(2, 4))
        batch = run_batch([Query(spec=a), Query(spec=b)], events,
                          surface_cache=SurfaceCache())
        assert batch.report.replays == 1
        assert batch.report.groups == 1
        assert batch.report.coalesced == 2
        assert batch.report.queries_per_replay == 2.0

    @pytest.mark.parametrize("field,values", [
        ("cache", ("itlb", "icache")),
        ("semantics", ("paper", "v2")),
        ("warmup_fraction", (0.25, 0.5)),
        ("dispatched_only", (True, False)),
        ("engine", ("auto", "grid")),
    ])
    def test_differing_field_splits_the_group(self, events, field,
                                              values):
        specs = [SweepSpec(**{**dict(cache="itlb", sizes=(8, 16),
                                     associativities=(1,)),
                              field: value}) for value in values]
        batch = run_batch([Query(spec=spec) for spec in specs], events,
                          surface_cache=SurfaceCache())
        assert batch.report.groups == 2
        assert batch.report.replays == 2
        assert batch.report.coalesced == 0

    def test_double_pass_and_window_split_the_group(self, events):
        a = SweepSpec(cache="itlb", sizes=(8,), associativities=(1,),
                      double_pass=True)
        b = SweepSpec(cache="itlb", sizes=(8,), associativities=(1,),
                      double_pass=False, warmup_fraction=0.25)
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.groups == 2

    def test_grid_engine_falls_back_loudly(self, events):
        spec = SweepSpec(cache="itlb", sizes=(8, 16),
                         associativities=(1, 2), engine="grid")
        other = SweepSpec(cache="itlb", sizes=(32,),
                          associativities=(1,), engine="grid")
        batch = run_batch([Query(spec=spec), Query(spec=other)], events)
        assert batch.report.fallbacks == 2
        assert batch.report.replays == 2
        assert batch.report.coalesced == 0
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_invalid_union_geometry_falls_back(self, events):
        # Valid individually; the union is not (8 % 3 != 0).
        a = SweepSpec(cache="itlb", sizes=(24,), associativities=(3,))
        b = SweepSpec(cache="itlb", sizes=(8, 16),
                      associativities=(1, 2))
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.fallbacks == 2
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_ineligible_union_falls_back(self, events):
        # 48/3 = 16 sets (eligible alone); 48/1 = 48 sets is not a
        # power of two, so the union has no superset property.
        a = SweepSpec(cache="itlb", sizes=(48,), associativities=(3,))
        b = SweepSpec(cache="itlb", sizes=(48,), associativities=(1,))
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.fallbacks == 2
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_full_only_query_merges_with_int_grid(self, events):
        a = SweepSpec(cache="icache", sizes=(8, 16),
                      associativities=("full",))
        b = SweepSpec(cache="icache", sizes=(16, 32),
                      associativities=(1, 2))
        batch = run_batch([Query(spec=a), Query(spec=b)], events,
                          surface_cache=SurfaceCache())
        assert batch.report.replays == 1
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))


class TestQueryValidation:
    SPEC = SweepSpec(cache="itlb", sizes=(8, 16), associativities=(1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            Query(spec=self.SPEC, kind="histogram")

    def test_curve_needs_a_swept_associativity(self):
        with pytest.raises(ValueError, match="needs an associativity"):
            Query(spec=self.SPEC, kind="curve")
        with pytest.raises(ValueError, match="not in the swept"):
            Query(spec=self.SPEC, kind="curve", associativity=4)

    def test_stats_needs_a_swept_size(self):
        with pytest.raises(ValueError, match="needs a size"):
            Query(spec=self.SPEC, kind="stats", associativity=1)
        with pytest.raises(ValueError, match="not in the swept sizes"):
            Query(spec=self.SPEC, kind="stats", associativity=1,
                  size=4096)

    def test_isoratio_target_range(self):
        with pytest.raises(ValueError, match="needs a target"):
            Query(spec=self.SPEC, kind="isoratio")
        for target in (0.0, 1.5, -1.0):
            with pytest.raises(ValueError, match="in \\(0, 1\\]"):
                Query(spec=self.SPEC, kind="isoratio", target=target)

    def test_full_column_reachable_via_include_full(self):
        spec = SweepSpec(cache="itlb", sizes=(8,),
                         associativities=(1,), include_full=True)
        Query(spec=spec, kind="curve", associativity="full")


class TestQueryFromRequest:
    def test_point_query_normalizes_to_single_cell_spec(self):
        query = query_from_request({"kind": "stats", "cache": "itlb",
                                    "associativity": 2, "size": 64})
        assert query.spec.sizes == (64,)
        assert query.spec.associativities == (2,)
        assert query.kind == "stats"

    def test_curve_normalizes_associativity_column(self):
        query = query_from_request({"kind": "curve", "cache": "icache",
                                    "associativity": 4,
                                    "warmup_fraction": 0.25,
                                    "double_pass": False})
        assert query.spec.associativities == (4,)
        assert query.spec.warmup_fraction == 0.25

    def test_wire_flags_map_to_spec_fields(self):
        query = query_from_request({"cache": "itlb", "sizes": [8, 16],
                                    "full": True, "opt": True,
                                    "semantics": "v2"})
        assert query.spec.include_full and query.spec.include_opt
        assert query.spec.semantics == "v2"

    @pytest.mark.parametrize("document,message", [
        ("not a dict", "must be an object"),
        ({"cache": "itlb", "flavor": "mild"}, "unknown query field"),
        ({"kind": "sweep"}, "needs a cache kind"),
        ({"cache": "l3"}, "needs a cache kind"),
        ({"cache": "itlb", "engine": "quantum"}, "unknown engine"),
        ({"cache": "itlb", "semantics": "v9"}, "unknown semantics"),
        ({"cache": "itlb", "sizes": [7]}, "multiple of associativity|bad sweep size"),
        ({"kind": "isoratio", "cache": "itlb", "target": 2.0},
         "in \\(0, 1\\]"),
    ])
    def test_malformed_requests_raise_client_facing_errors(
            self, document, message):
        with pytest.raises(ValueError, match=message):
            query_from_request(document)


class TestSurfaceCache:
    def test_lru_eviction_honors_byte_budget(self):
        cache = SurfaceCache(budget_bytes=160)  # fits two ~76B entries
        cache.put("a", {"n": 1, "pad": "x" * 60})
        cache.put("b", {"n": 2, "pad": "x" * 60})
        cache.put("c", {"n": 3, "pad": "x" * 60})  # evicts "a"
        assert not cache.contains("a")
        assert cache.contains("b") and cache.contains("c")
        assert cache.evicted == 1
        assert cache.stats()["bytes"] <= 160

    def test_get_refreshes_the_lru_clock(self):
        cache = SurfaceCache(budget_bytes=160)
        cache.put("a", {"n": 1, "pad": "x" * 60})
        cache.put("b", {"n": 2, "pad": "x" * 60})
        assert cache.get("a") is not None          # "b" is now oldest
        cache.put("c", {"n": 3, "pad": "x" * 60})
        assert cache.contains("a")
        assert not cache.contains("b")

    def test_env_budget_and_kill_switch(self, monkeypatch):
        monkeypatch.setenv(planner.ENV_SURFACE_BUDGET, "123")
        assert SurfaceCache().budget_bytes == 123
        monkeypatch.setenv(planner.ENV_SURFACE_BUDGET, "lots")
        assert SurfaceCache().budget_bytes == \
            planner.DEFAULT_SURFACE_BUDGET
        assert SurfaceCache.enabled()
        monkeypatch.setenv(planner.ENV_SURFACE_CACHE, "0")
        assert not SurfaceCache.enabled()

    def test_single_flight_shares_one_computation(self):
        cache = SurfaceCache()
        gate = threading.Event()
        computed = []

        def compute():
            gate.wait(timeout=10)
            computed.append(1)
            return {"n": 42}

        outcomes = []

        def worker():
            payload, outcome = cache.get_or_compute("k", compute)
            outcomes.append((payload["n"], outcome))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        while not cache._inflight:       # a leader exists
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(computed) == 1
        kinds = [outcome for _, outcome in outcomes]
        assert kinds.count("computed") == 1
        assert set(kinds) <= {"computed", "shared", "hit"}
        assert all(n == 42 for n, _ in outcomes)
        assert cache.get("k") == {"n": 42}

    def test_failed_leader_does_not_wedge_the_key(self):
        cache = SurfaceCache()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return {"n": 7}

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", flaky)
        payload, outcome = cache.get_or_compute("k", flaky)
        assert payload == {"n": 7} and outcome == "computed"


class TestCacheInterplay:
    QUERIES = [
        Query(spec=SweepSpec(cache="itlb", sizes=(8, 16),
                             associativities=(1,))),
        Query(spec=SweepSpec(cache="itlb", sizes=(16, 32),
                             associativities=(2,))),
    ]

    def test_second_batch_is_all_memory_hits(self, tmp_path):
        _, events = _store_trace(tmp_path)
        memory = SurfaceCache()
        cold = run_batch(self.QUERIES, events, surface_cache=memory)
        assert cold.report.replays == 1
        warm = run_batch(self.QUERIES, events, surface_cache=memory)
        assert warm.report.replays == 0
        assert warm.report.memory_hits == len(self.QUERIES)
        for a, b in zip(cold.surfaces, warm.surfaces):
            _assert_bitwise_equal(a, b)

    def test_fresh_process_hits_the_disk_tier(self, tmp_path):
        _, events = _store_trace(tmp_path)
        run_batch(self.QUERIES, events, surface_cache=SurfaceCache())
        warm = run_batch(self.QUERIES, events,
                         surface_cache=SurfaceCache())
        assert warm.report.replays == 0
        assert warm.report.disk_hits == len(self.QUERIES)

    def test_projected_surfaces_serve_later_run_sweep_calls(
            self, tmp_path):
        store, events = _store_trace(tmp_path)
        run_batch(self.QUERIES, events, surface_cache=SurfaceCache())
        for query in self.QUERIES:
            key = result_cache_key(query.spec, events.store_key)
            assert store.result_cache().contains(key)
        telemetry.install(tmp_path / "t", fresh=True)
        run_sweep(self.QUERIES[0].spec, events)
        telemetry.finalize()
        counters = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())["counters"]
        assert counters["result_cache.hit"] == 1

    def test_cached_superset_answers_new_projections(self, tmp_path):
        _, events = _store_trace(tmp_path)
        run_batch(self.QUERIES, events, surface_cache=SurfaceCache())
        # Different sub-grids, same union: the superset itself is the
        # cache hit, no replay.
        rotated = [
            Query(spec=SweepSpec(cache="itlb", sizes=(8, 32),
                                 associativities=(1, 2))),
            Query(spec=SweepSpec(cache="itlb", sizes=(16,),
                                 associativities=(2,))),
        ]
        warm = run_batch(rotated, events, surface_cache=SurfaceCache())
        assert warm.report.replays == 0
        assert warm.report.superset_hits == 1
        for query, surface in zip(warm.queries, warm.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_unstamped_trace_replays_every_batch(self, tmp_path):
        _, stamped = _store_trace(tmp_path)
        bare = stamped.copy()
        bare.store_key = bare.store_root = None
        memory = SurfaceCache()
        for _ in range(2):
            batch = run_batch(self.QUERIES, bare, surface_cache=memory)
            assert batch.report.replays == 1
            assert batch.report.memory_hits == 0
        assert len(memory) == 0

    def test_kill_switches_disable_both_tiers(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv(planner.ENV_SURFACE_CACHE, "0")
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        _, events = _store_trace(tmp_path)
        for _ in range(2):
            batch = run_batch(self.QUERIES, events,
                              surface_cache=SurfaceCache())
            assert batch.report.replays == 1
            assert batch.report.memory_hits == 0
            assert batch.report.disk_hits == 0

    def test_concurrent_batches_replay_once(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        _, events = _store_trace(tmp_path)
        memory = SurfaceCache()
        reports = []

        def worker():
            batch = run_batch(self.QUERIES, events,
                              surface_cache=memory)
            reports.append(batch.report)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(reports) == 3
        # However the three interleaved (hit / shared / computed), the
        # engine ran the superset exactly once.
        assert sum(report.replays for report in reports) == 1


class TestProbeAndReplay:
    QUERIES = TestCacheInterplay.QUERIES

    def test_probe_then_replay_is_run_batch(self, tmp_path):
        _, events = _store_trace(tmp_path)
        probe = planner.probe_batch(self.QUERIES, events,
                                    surface_cache=SurfaceCache())
        assert probe.surfaces == [None, None]
        assert [sorted(group) for group in probe.pending.values()] \
            == [[0, 1]]
        batch = planner.replay_batch(probe)
        assert batch.report.replays == 1
        fresh = run_batch(self.QUERIES, events.copy(),
                          surface_cache=SurfaceCache())
        for got, want in zip(batch.surfaces, fresh.surfaces):
            _assert_bitwise_equal(got, want)

    def test_warm_probe_is_complete(self, tmp_path):
        _, events = _store_trace(tmp_path)
        memory = SurfaceCache()
        run_batch(self.QUERIES, events, surface_cache=memory)
        probe = planner.probe_batch(self.QUERIES, events,
                                    surface_cache=memory)
        assert not probe.pending
        assert probe.result().report.memory_hits == 2

    def test_one_content_key_per_query(self, tmp_path, monkeypatch):
        _, events = _store_trace(tmp_path)
        memory = SurfaceCache()
        run_batch(self.QUERIES, events, surface_cache=memory)
        keyed = []
        key = planner.result_cache_key
        monkeypatch.setattr(planner, "result_cache_key",
                            lambda spec, trace_key:
                            keyed.append(spec) or key(spec, trace_key))
        run_batch(self.QUERIES, events, surface_cache=memory)
        assert keyed == [query.spec for query in self.QUERIES]


class TestHierarchyPlanned:
    def test_paper_hierarchy_unchanged_by_planning(self, events):
        hierarchy = paper_hierarchy(include_full=True, include_opt=True)
        surfaces = run_hierarchy(hierarchy, events)
        for level, surface in zip(hierarchy.levels, surfaces):
            _assert_bitwise_equal(surface, run_sweep(level, events))

    def test_same_cache_levels_coalesce(self, events):
        hierarchy = HierarchySpec(
            name="itlb-pair",
            levels=(SweepSpec(cache="itlb", sizes=(8, 16),
                              associativities=(1,), label="small"),
                    SweepSpec(cache="itlb", sizes=(32, 64),
                              associativities=(2,), label="large")))
        surfaces, report = run_hierarchy_planned(hierarchy, events)
        assert len(surfaces) == 2
        assert report.replays == 1
        assert report.coalesced == 2

    def test_cli_sweep_prints_planner_footer(self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--sizes", "8,16", "--assoc", "1",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[planner: 2 queries -> " in out
        assert "replay(s)" in out and "cache hit(s)" in out


class TestTelemetry:
    def test_batch_emits_planner_counters_and_span(self, tmp_path):
        _, events = _store_trace(tmp_path)
        telemetry.install(tmp_path / "t", fresh=True)
        run_batch([
            Query(spec=SweepSpec(cache="itlb", sizes=(8,),
                                 associativities=(1,))),
            Query(spec=SweepSpec(cache="itlb", sizes=(16,),
                                 associativities=(1,))),
        ], events, surface_cache=SurfaceCache())
        telemetry.finalize()
        metrics = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())
        counters = metrics["counters"]
        assert counters["planner.queries"] == 2
        assert counters["planner.replays"] == 1
        assert counters["planner.coalesced"] == 2
        spans = (tmp_path / "t" / "spans.jsonl").read_text()
        assert "planner.batch" in spans
