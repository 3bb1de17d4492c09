"""Tests for the single-pass sweep subsystem (repro.sweep).

The load-bearing guarantee is *bitwise equivalence*: for every LRU
configuration on a power-of-two grid, the stack-distance engine
(``engine="auto"``) must produce exactly the hit/miss counts (and
therefore bit-identical float ratios) that the per-configuration grid
engine (``engine="grid"``, one ``simulate_itlb`` / ``simulate_icache``
run per cell) produces — across every warm-up window variant,
including the quirky ones pinned in test_tracesim.py, and under
*both* measurement-semantics versions ("paper" preserves the quirks,
"v2" fixes them).  CI runs the equivalence tests by name
(``-k "equivalence and paper"`` / ``-k "equivalence and v2"``) as a
dedicated gate.
"""

import hashlib
import random
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.experiments import fig10, fig11
from repro.experiments.registry import get as get_experiment
from repro.sweep import (
    HierarchySpec,
    NumpyMultiConfigLRU,
    PAPER_SIZES,
    Query,
    SurfaceCache,
    SweepSpec,
    paper_hierarchy,
    run_batch,
    run_hierarchy,
    run_sweep,
)
from repro.sweep.runner import _RESULT_CACHES
from repro.trace.cachesim import simulate_icache, simulate_itlb
from repro.trace.columnar import as_trace
from repro.trace.events import TraceEvent


def _mixed_trace(n=4000, seed=7):
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


GRID = dict(sizes=PAPER_SIZES, associativities=(1, 2, 4, "full"))

#: Warm-up variants for the equivalence pins.  1.0 is gone on purpose:
#: SweepSpec/CLI now reject it (the simulate_* edge behaviour at the
#: whole-trace cut stays pinned in test_tracesim.py); 0.9 keeps a cut
#: deep in the trace in the mix.
WINDOWS = [
    {"double_pass": True},
    {"warmup_fraction": 0.25},
    {"warmup_fraction": 0.0},
    {"warmup_fraction": 0.9},
]

SEMANTICS = ("paper", "v2")


class TestReplayInterfaces:
    """replay (pair stream) and replay_columns (parallel columns) are
    the same engine; pair streams may be one-shot iterables."""

    def _refs(self):
        return [(i * 3 % 7, i * 3 % 7) for i in range(50)]

    def test_replay_accepts_a_generator(self):
        refs = self._refs()
        from_list = NumpyMultiConfigLRU({1: 2})
        from_list.replay(refs)
        from_gen = NumpyMultiConfigLRU({1: 2})
        from_gen.replay(ref for ref in refs)   # one-shot iterable
        assert from_gen.total == from_list.total == len(refs)
        assert from_gen.hits(1, 2) == from_list.hits(1, 2)

    def test_replay_columns_windowing_matches_slicing(self):
        refs = self._refs()
        blocks = [block for block, _ in refs]
        whole = NumpyMultiConfigLRU({1: 2}, full_cap=4)
        whole.replay(refs[:20], count=False)
        whole.replay(refs[20:], count=True)
        windowed = NumpyMultiConfigLRU({1: 2}, full_cap=4)
        windowed.replay_columns(blocks, blocks, stop=20, count=False)
        windowed.replay_columns(blocks, blocks, start=20, count=True)
        assert windowed.total == whole.total
        assert windowed.hits(1, 2) == whole.hits(1, 2)
        assert windowed.full_hits(4) == whole.full_hits(4)


def _auto_vs_grid(spec, events):
    """Run *spec* on the stack-distance and grid engines; pin them
    bitwise-equal and return the stack-distance surface."""
    auto = run_sweep(replace(spec, engine="auto"), events)
    grid = run_sweep(replace(spec, engine="grid"), events)
    assert auto.meta["engine"] == "numpy"
    assert grid.meta["engine"] == "grid"
    assert auto.counts == grid.counts
    assert list(auto.counts) == list(grid.counts)
    assert auto.opt_counts == grid.opt_counts
    for size, assoc, ratio in auto.grid():
        assert ratio == grid.ratio(assoc, size)
    return auto


class TestSinglePassGridEquivalence:
    """The acceptance-critical pins: engine == grid, bitwise, under
    both measurement-semantics versions."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=[str(w) for w in WINDOWS])
    def test_itlb_equivalence(self, events, window, semantics):
        _auto_vs_grid(SweepSpec("itlb", semantics=semantics, **GRID,
                                **window), events)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=[str(w) for w in WINDOWS])
    def test_icache_equivalence(self, events, window, semantics):
        _auto_vs_grid(SweepSpec("icache", semantics=semantics, **GRID,
                                **window), events)

    def test_equivalence_with_line_words(self, events):
        _auto_vs_grid(SweepSpec("icache", sizes=(16, 64, 1024),
                                associativities=(1, 2), line_words=4,
                                double_pass=True), events)

    def test_equivalence_unfiltered_itlb(self, events):
        _auto_vs_grid(SweepSpec("itlb", sizes=(32, 256),
                                associativities=(2,),
                                dispatched_only=False,
                                double_pass=True), events)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_equivalence_when_cut_lands_on_non_dispatched(self,
                                                          semantics):
        # Paper: the never-resetting warm-up quirk must carry over
        # exactly.  v2: the always-firing fix must carry over too.
        events = [TraceEvent(i % 9, i % 4, 1, dispatched=(i != 10))
                  for i in range(20)]
        _auto_vs_grid(SweepSpec("itlb", sizes=(8, 16),
                                associativities=(1, 2),
                                warmup_fraction=0.5,
                                semantics=semantics), events)

    def test_equivalence_one_set_configuration(self, events):
        # size == associativity: a single set, served by the
        # unbounded-depth level rather than a masked one.
        _auto_vs_grid(SweepSpec("itlb", sizes=(16,),
                                associativities=(16,),
                                double_pass=True), events)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 25),
                              st.booleans()),
                    min_size=5, max_size=150),
           st.sampled_from([{"double_pass": True},
                            {"warmup_fraction": 0.33}]),
           st.sampled_from(SEMANTICS))
    def test_property_equivalence(self, rows, window, semantics):
        events = [TraceEvent(address, opcode, opcode % 3, dispatched)
                  for address, opcode, dispatched in rows]
        _auto_vs_grid(SweepSpec("icache", sizes=(8, 32, 128),
                                associativities=(1, 2, "full"),
                                semantics=semantics, **window), events)


def _belady_hits(blocks, capacity, measured):
    """Belady's MIN (no bypass) by brute force: hits among the last
    *measured* references of *blocks*.

    On a miss with the cache full, evict the resident block whose next
    reference lies farthest ahead (never again counts as infinitely
    far); the missing block is always admitted.
    """
    def next_use(i, block):
        for j in range(i + 1, len(blocks)):
            if blocks[j] == block:
                return j
        return float("inf")

    cache = set()
    hits = 0
    first_measured = len(blocks) - measured
    for i, block in enumerate(blocks):
        if block in cache:
            if i >= first_measured:
                hits += 1
            continue
        if len(cache) >= capacity:
            cache.remove(max(cache, key=lambda b: next_use(i, b)))
        cache.add(block)
    return hits


def _oracle_blocks(spec, events):
    """The reference stream *spec*'s cache observes, built from the
    event objects (not the engine's packed columns)."""
    if spec.cache == "itlb":
        return [(event.opcode, event.receiver_class) for event in events
                if event.dispatched or not spec.dispatched_only]
    return [event.address // spec.line_words for event in events]


@st.composite
def _oracle_chain_cases(draw):
    """(events, spec): a tiny trace, a random power-of-two geometry,
    a random warm-up window, either semantics, OPT always on."""
    rows = draw(st.lists(st.tuples(st.integers(0, 30),
                                   st.integers(0, 12), st.integers(0, 3),
                                   st.booleans()),
                         min_size=1, max_size=80))
    events = [TraceEvent(*row) for row in rows]
    cache = draw(st.sampled_from(("itlb", "icache")))
    line_words = (draw(st.sampled_from((1, 2))) if cache == "icache"
                  else 1)
    entries = sorted(draw(st.sets(st.sampled_from((1, 2, 4, 8, 16, 32)),
                                  min_size=1, max_size=4)))
    assocs = draw(st.sets(st.sampled_from(
        [a for a in (1, 2, 4, 8) if a <= entries[0]] + ["full"]),
        min_size=1))
    if draw(st.booleans()):
        window = {"double_pass": True}
    else:
        window = {"warmup_fraction": draw(st.floats(0.0, 0.95))}
    spec = SweepSpec(
        cache, sizes=tuple(e * line_words for e in entries),
        associativities=tuple(sorted(assocs, key=str)),
        line_words=line_words, include_opt=True,
        include_full=draw(st.booleans()),
        dispatched_only=draw(st.booleans()),
        semantics=draw(st.sampled_from(SEMANTICS)), **window)
    return events, spec


class TestOracleChain:
    """Random tiny traces and geometries: the stack-distance engine,
    the grid engine, the batch planner and both cache tiers agree
    bitwise, and OPT matches a brute-force Belady MIN."""

    @settings(max_examples=150, deadline=None)
    @given(_oracle_chain_cases())
    def test_property_oracle_chain_equivalence(self, case):
        events, spec = case
        auto = _auto_vs_grid(spec, events)
        first = spec.associativities[0]
        point = replace(spec, sizes=(spec.sizes[-1],),
                        associativities=(first,), include_full=False,
                        include_opt=False)
        queries = [Query(spec=spec),
                   Query(spec=point, kind="stats", associativity=first,
                         size=spec.sizes[-1])]
        batch = run_batch(queries, events, surface_cache=SurfaceCache())
        assert batch.report.replays == 1
        for query, surface in zip(batch.queries, batch.surfaces):
            solo = auto if query.spec == spec else run_sweep(query.spec,
                                                             events)
            assert surface.counts == solo.counts
            assert surface.opt_counts == solo.opt_counts
            assert surface.meta == solo.meta

        # Cache-served link: the batch again over the trace stamped as
        # a stored one under a fresh root (tempfile, not tmp_path:
        # hypothesis reuses function-scoped fixtures), answered cold,
        # warm from the memory tier, then warm from the disk tier
        # alone (a new SurfaceCache).
        stored = as_trace(events)
        stored.store_key = hashlib.sha256(
            stored.to_bytes()).hexdigest()[:20]
        with tempfile.TemporaryDirectory() as root:
            stored.store_root = root
            memory = SurfaceCache()
            try:
                cold = run_batch(queries, stored, surface_cache=memory)
                warm_memory = run_batch(queries, stored,
                                        surface_cache=memory)
                warm_disk = run_batch(queries, stored,
                                      surface_cache=SurfaceCache())
            finally:
                _RESULT_CACHES.pop(root, None)
        answers = (cold, warm_memory, warm_disk)
        assert [each.report.replays for each in answers] == [1, 0, 0]
        assert warm_memory.report.memory_hits == len(queries)
        assert warm_disk.report.disk_hits == len(queries)
        for answered in answers:
            for surface, reference in zip(answered.surfaces,
                                          batch.surfaces):
                assert surface.counts == reference.counts
                assert surface.opt_counts == reference.opt_counts
                assert surface.meta == reference.meta

        blocks = _oracle_blocks(spec, events)
        hits, misses = auto.cell(first, spec.sizes[0])
        measured = hits + misses
        if spec.double_pass:
            blocks = blocks + blocks
        for size in spec.sizes:
            opt_hits = _belady_hits(blocks, spec.entries(size), measured)
            assert auto.opt_counts[size] == (opt_hits,
                                             measured - opt_hits)


class TestSpecValidation:
    def test_rejects_unknown_cache_engine_policy(self):
        with pytest.raises(ValueError, match="cache kind"):
            SweepSpec("dcache")
        for engine in ("psychic", "single-pass", "numpy"):
            with pytest.raises(ValueError, match="engine"):
                SweepSpec("itlb", engine=engine)
        with pytest.raises(ValueError, match="policy"):
            SweepSpec("itlb", policy="mru")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="associativity"):
            SweepSpec("itlb", sizes=(8,), associativities=(3,))
        with pytest.raises(ValueError, match="line_words"):
            SweepSpec("itlb", sizes=(8,), line_words=2)
        with pytest.raises(ValueError, match="line_words"):
            SweepSpec("icache", sizes=(8,), line_words=3)
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec("itlb", sizes=())

    def test_rejects_unknown_semantics(self):
        with pytest.raises(ValueError, match="semantics"):
            SweepSpec("itlb", semantics="v3")

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1, 2.0])
    def test_rejects_out_of_range_warmup_fraction(self, fraction):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            SweepSpec("itlb", warmup_fraction=fraction)

    def test_eligibility(self):
        assert SweepSpec("itlb").single_pass_eligible()
        assert not SweepSpec("itlb", policy="fifo").single_pass_eligible()
        # 24 entries, 2-way: 12 sets is not a power of two.
        assert not SweepSpec("itlb", sizes=(24,),
                             associativities=(2,)).single_pass_eligible()

    def test_hierarchy_validation(self):
        with pytest.raises(ValueError, match="at least one level"):
            HierarchySpec("empty", ())
        with pytest.raises(ValueError, match="duplicate"):
            HierarchySpec("dup", (SweepSpec("itlb"), SweepSpec("itlb")))


class TestSemanticsV2:
    """The v2 fixes themselves (the equivalence pins above prove the
    engine mirrors them; these prove they are the *right* fixes)."""

    def test_cut_computed_over_dispatched_references(self):
        # 100 events, every other one dispatched: v2 warms 25% of the
        # 50 ITLB references, not "the references inside the first 25
        # raw events" (which the paper cut would give: 13 minus the
        # filtered boundary... see the quirk tests in test_tracesim).
        events = [TraceEvent(i, i % 3, 1, dispatched=(i % 2 == 0))
                  for i in range(100)]
        stats = simulate_itlb(events, 16, 2, warmup_fraction=0.25,
                              semantics="v2")
        assert stats.accesses == 50 - 12  # int(50 * 0.25) == 12 warmed

    def test_reset_always_fires_on_filtered_cut(self):
        # The paper quirk: cut at raw index 10 lands on the one
        # non-dispatched event, so the reset never fires and all 19
        # references are measured.  v2 resets regardless.
        events = [TraceEvent(i, i % 3, 1, dispatched=(i != 10))
                  for i in range(20)]
        paper = simulate_itlb(events, 16, 2, warmup_fraction=0.5)
        v2 = simulate_itlb(events, 16, 2, warmup_fraction=0.5,
                           semantics="v2")
        assert paper.accesses == 19          # quirk preserved
        assert v2.accesses == 19 - 9         # int(19 * 0.5) warmed

    def test_symmetric_end_of_trace(self):
        # Whole-trace warm-up (only reachable via simulate_* directly;
        # the spec/CLI layers reject fraction 1.0): paper zeroes the
        # ITLB but measures the whole trace on the icache; v2 measures
        # nothing on either.
        events = [TraceEvent(i % 7, i % 5, 1) for i in range(40)]
        assert simulate_itlb(events, 16, 2, warmup_fraction=1.0,
                             semantics="v2").accesses == 0
        assert simulate_icache(events, 16, 2, warmup_fraction=1.0,
                               semantics="v2").accesses == 0
        assert simulate_icache(events, 16, 2,
                               warmup_fraction=1.0).accesses == 40

    def test_paper_is_the_default(self, events):
        explicit = simulate_itlb(events, 64, 2, warmup_fraction=0.25,
                                 semantics="paper")
        implicit = simulate_itlb(events, 64, 2, warmup_fraction=0.25)
        assert (explicit.hits, explicit.misses) == (implicit.hits,
                                                    implicit.misses)
        assert SweepSpec("itlb").semantics == "paper"

    def test_surface_records_semantics(self, events):
        for semantics in SEMANTICS:
            surface = run_sweep(
                SweepSpec("itlb", sizes=(32,), associativities=(2,),
                          warmup_fraction=0.25, semantics=semantics),
                events)
            assert surface.meta["semantics"] == semantics
            assert surface.semantics == semantics
            assert surface.to_sweep_result().meta["semantics"] \
                == semantics

    def test_grid_engine_records_semantics_too(self, events):
        surface = run_sweep(
            SweepSpec("itlb", sizes=(32,), associativities=(2,),
                      policy="fifo", warmup_fraction=0.25,
                      semantics="v2"), events)
        assert surface.meta["engine"] == "grid"
        assert surface.meta["semantics"] == "v2"
        stats = simulate_itlb(events, 32, 2, policy="fifo",
                              warmup_fraction=0.25, semantics="v2")
        assert surface.cell(2, 32) == (stats.hits, stats.misses)

    def test_double_pass_semantics_agree_bitwise(self, events):
        from repro.sweep import run_semantics_delta
        spec = SweepSpec("itlb", sizes=(16, 64), associativities=(2,),
                         double_pass=True)
        paper, v2, delta = run_semantics_delta(spec, events)
        assert paper.counts == v2.counts
        assert all(d == 0.0 for row in delta.values()
                   for d in row.values())

    def test_fraction_window_delta_is_quantified(self, events):
        from repro.sweep import run_semantics_delta, semantics_delta_table
        spec = SweepSpec("itlb", sizes=(16, 64), associativities=(1, 2),
                         warmup_fraction=0.25)
        paper, v2, delta = run_semantics_delta(spec, events)
        assert set(delta) == {1, 2}
        assert set(delta[1]) == {16, 64}
        for assoc in (1, 2):
            for size in (16, 64):
                assert delta[assoc][size] == pytest.approx(
                    v2.ratio(assoc, size) - paper.ratio(assoc, size))
        table = semantics_delta_table(paper, v2)
        assert "v2 - paper" in table and "1-way" in table


class TestGridFallback:
    def test_fifo_policy_falls_back_and_matches_simulate(self, events):
        spec = SweepSpec("itlb", sizes=(32, 128), associativities=(2,),
                         policy="fifo", double_pass=True)
        surface = run_sweep(spec, events)
        assert surface.meta["engine"] == "grid"
        for size in (32, 128):
            stats = simulate_itlb(events, size, 2, policy="fifo",
                                  double_pass=True)
            assert surface.cell(2, size) == (stats.hits, stats.misses)

    def test_grid_pass_accounting(self, events):
        spec = SweepSpec("icache", sizes=(8, 16), associativities=(1, 2),
                         double_pass=True, engine="grid")
        surface = run_sweep(spec, events)
        assert surface.meta["trace_passes"] == 2 * 2 * 2  # cells x warm
        single = run_sweep(
            SweepSpec("icache", sizes=(8, 16), associativities=(1, 2),
                      double_pass=True, engine="auto"), events)
        assert single.meta["trace_passes"] == 2
        assert single.counts == surface.counts


class TestReferenceCurves:
    def test_opt_matches_brute_force_belady(self):
        rnd = random.Random(3)
        for _ in range(10):
            events = [TraceEvent(rnd.randrange(24), 1, 1)
                      for _ in range(rnd.randrange(50, 300))]
            spec = SweepSpec("icache", sizes=(1, 2, 4, 8, 16, 32),
                             associativities=(1,), warmup_fraction=0.0,
                             include_opt=True)
            surface = run_sweep(spec, events)
            blocks = [event.address for event in events]
            for size in spec.sizes:
                hits, _ = surface.opt_counts[size]
                assert hits == _belady_hits(blocks, size, len(blocks))

    def test_opt_dominates_lru_at_every_size(self, events):
        spec = SweepSpec("icache", sizes=(8, 64, 512),
                         associativities=(1,), warmup_fraction=0.0,
                         include_full=True, include_opt=True)
        surface = run_sweep(spec, events)
        for size in spec.sizes:
            assert surface.opt_ratio(size) >= surface.ratio("full", size)

    def test_full_column_matches_full_simulation(self, events):
        spec = SweepSpec("itlb", sizes=(16, 64), associativities=(2,),
                         double_pass=True, include_full=True)
        surface = run_sweep(spec, events)
        assert "full" in surface.associativities
        for size in (16, 64):
            stats = simulate_itlb(events, size, "full",
                                  double_pass=True)
            assert surface.cell("full", size) == (stats.hits,
                                                  stats.misses)

    def test_opt_available_under_grid_engine(self, events):
        spec = SweepSpec("icache", sizes=(8, 32), associativities=(2,),
                         policy="fifo", warmup_fraction=0.0,
                         include_opt=True)
        surface = run_sweep(spec, events)
        assert surface.meta["engine"] == "grid"
        assert set(surface.opt_counts) == {8, 32}


class TestResultSurface:
    @pytest.fixture(scope="class")
    def surface(self):
        return run_sweep(
            SweepSpec("itlb", sizes=(8, 32, 128),
                      associativities=(1, 2), double_pass=True,
                      include_opt=True),
            _mixed_trace(1500, seed=11))

    def test_grid_iteration(self, surface):
        cells = list(surface.grid())
        assert len(cells) == 6
        assert all(0.0 <= ratio <= 1.0 for _, _, ratio in cells)

    def test_curves_and_isoratio(self, surface):
        curve = surface.curve(2)
        assert [size for size, _ in curve] == [8, 32, 128]
        ratios = dict(curve)
        threshold = surface.smallest_size_reaching(0.5, 2)
        assert threshold is None or ratios[threshold] >= 0.5
        assert set(surface.isoratio(0.5)) == {1, 2}
        assert surface.smallest_size_reaching(1.1, 2) is None

    def test_stats_view(self, surface):
        stats = surface.stats(2, 32)
        assert stats.hits + stats.misses == stats.accesses
        assert stats.hit_ratio == surface.ratio(2, 32)

    def test_to_sweep_result_keeps_figure_shape(self, surface):
        legacy = surface.to_sweep_result()
        assert legacy.label == "ITLB"
        assert legacy.ratio(2, 32) == surface.ratio(2, 32)
        assert legacy.meta["engine"] == "numpy"
        assert "2-way" in legacy.table()

    def test_table_includes_reference_columns(self, surface):
        table = surface.table()
        assert "OPT" in table and "1-way" in table

    def test_opt_ratio_requires_opt(self, events):
        surface = run_sweep(SweepSpec("itlb", sizes=(8,),
                                      associativities=(1,)), events)
        with pytest.raises(ValueError, match="OPT"):
            surface.opt_ratio(8)


class TestHierarchy:
    def test_paper_hierarchy_runs_both_levels(self, events):
        itlb, icache = run_hierarchy(paper_hierarchy(), events)
        assert itlb.label == "ITLB"
        assert icache.label == "instruction cache"
        assert itlb.meta["engine"] == "numpy"
        assert itlb.meta["trace_passes"] == 2
        assert icache.meta["trace_passes"] == 2

    def test_figures_match_legacy_sweep_helpers(self, events):
        from repro.trace.cachesim import sweep_icache, sweep_itlb
        itlb, icache = run_hierarchy(paper_hierarchy(), events)
        legacy_itlb = sweep_itlb(events, double_pass=True)
        legacy_icache = sweep_icache(events, double_pass=True)
        for assoc in (1, 2, 4):
            for size in PAPER_SIZES:
                assert itlb.ratio(assoc, size) == \
                    legacy_itlb.ratio(assoc, size)
                assert icache.ratio(assoc, size) == \
                    legacy_icache.ratio(assoc, size)


class TestExperimentIntegration:
    def test_fig10_runs_on_the_engine(self, events):
        result = fig10.run(events=events, plot=False)
        assert result.data["engine"] == "numpy"
        assert result.data["trace_passes"] == 2

    def test_fig11_runs_on_the_engine(self, events):
        result = fig11.run(events=events, plot=False)
        assert result.data["engine"] == "numpy"
        assert result.data["trace_passes"] == 2

    def test_figure_specs_are_unsharded_single_tasks(self):
        assert get_experiment("FIG-10").shards == ()
        assert get_experiment("FIG-11").shards == ()

    def test_figures_record_semantics(self, events):
        assert fig10.run(events=events,
                         plot=False).data["semantics"] == "paper"
        assert fig11.run(events=events,
                         plot=False).data["semantics"] == "paper"

    @pytest.mark.parametrize("figure", [fig10, fig11])
    def test_figures_emit_semantics_delta_column(self, events, figure):
        result = figure.run(events=events, plot=False,
                            compare_semantics=True)
        delta = result.data["semantics_delta"]
        assert set(delta) == {1, 2, 4}
        assert "v2 - paper" in result.table
        # The figure grid itself (and its claims) stays on the
        # double-pass paper pin regardless of the comparison.
        assert result.data["sweep"].meta["semantics"] == "paper"
        baseline = figure.run(events=events, plot=False)
        assert [c.holds for c in result.claims] == \
            [c.holds for c in baseline.claims]

    def test_fig10_v2_semantics_still_supports_the_claims(self, events):
        # The quirk fixes must not change the scientific conclusions:
        # the double-pass figure grid is quirk-free, so v2 reproduces
        # the same claim outcomes bit-for-bit.
        paper = fig10.run(events=events, plot=False)
        v2 = fig10.run(events=events, plot=False, semantics="v2")
        assert v2.data["semantics"] == "v2"
        assert [(c.claim, c.holds) for c in v2.claims] == \
            [(c.claim, c.holds) for c in paper.claims]


class TestCli:
    def test_sweep_command(self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--sizes", "8,64", "--assoc", "1,2,full",
                         "--opt", "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ITLB hit ratio vs cache size" in out
        assert "instruction cache hit ratio vs cache size" in out
        assert "OPT" in out
        assert "engine: numpy" in out

    def test_sweep_single_cache_with_warmup_and_plot(self, tmp_path,
                                                     capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "icache", "--sizes", "8,16",
                         "--assoc", "1", "--warmup", "0.5", "--plot",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fraction 0.5" in out
        assert "legend" in out           # the ASCII plot rendered
        assert "ITLB" not in out

    def test_sweep_rejects_bad_grids(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--sizes", "eight",
                      "--trace-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--assoc", "semi",
                      "--trace-dir", str(tmp_path)])

    @pytest.mark.parametrize("engine", ["single-pass", "numpy"])
    def test_sweep_rejects_removed_engines(self, tmp_path, engine):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--engine", engine,
                      "--trace-dir", str(tmp_path)])

    @pytest.mark.parametrize("fraction", ["1.0", "-0.25", "nan", "two"])
    def test_sweep_rejects_out_of_range_warmup(self, tmp_path, fraction):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--warmup", fraction,
                      "--trace-dir", str(tmp_path)])

    def test_sweep_semantics_flag(self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "itlb", "--sizes", "8,16",
                         "--assoc", "1", "--warmup", "0.25",
                         "--semantics", "v2",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "semantics: v2" in out

    def test_sweep_compare_semantics_prints_delta(self, tmp_path,
                                                  capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "itlb", "--sizes", "8,16",
                         "--assoc", "1,2", "--warmup", "0.25",
                         "--compare-semantics",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "v2 - paper" in out

    def test_sweep_compare_semantics_under_double_pass_notes_parity(
            self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "itlb", "--sizes", "8,16",
                         "--assoc", "1", "--compare-semantics",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "quirk-free" in out
        assert "v2 - paper" not in out

    def test_list_workloads_show_params(self, capsys):
        assert cli_main(["list", "--workloads"]) == 0
        out = capsys.readouterr().out
        assert "defaults: " in out
        assert "phase_length=700" in out      # the paper defaults
        assert "quick:    phase_length=280" in out
        assert "v1" in out                    # generator version
