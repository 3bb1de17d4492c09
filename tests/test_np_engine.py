"""Tests for the LRU stack-distance engine (repro.sweep.np_engine).

The load-bearing guarantee: :class:`NumpyMultiConfigLRU` reports, for
every swept configuration, exactly the hits a plain per-configuration
LRU cache would -- checked against a brute-force oracle local to this
file (one ordered set per (level, associativity), no stack distances
anywhere) across random column pairs (varying alphabet sizes, set
counts, depth caps, count=False segments, resets, sub-ranges), plus
post-replay stack state.  ``run_sweep`` on the engine is pinned
against the per-configuration grid over the full paper grid under both
measurement-semantics versions; CI runs those pins by name
(``-k "equivalence and paper"`` / ``-k "equivalence and v2"``).
"""

import random
from collections import OrderedDict

import pytest

from repro.sweep import SweepSpec, np_engine, run_sweep
from repro.sweep.engine import OptStack
from repro.trace.events import TraceEvent


def _mixed_trace(n=2500, seed=7):
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


class _BruteLRU:
    """Every swept configuration as its own LRU cache.

    One ordered set (least recent first) per set of every
    (2^k sets, assoc ways) configuration with ``assoc`` up to the
    level's cap, and one per single-set capacity up to ``full_cap``.
    """

    def __init__(self, level_caps, full_cap):
        self.level_caps = dict(level_caps)
        self.full_cap = full_cap
        self.caches = {(k, assoc): {}
                       for k, cap in self.level_caps.items()
                       for assoc in range(1, cap + 1)}
        self.full = {entries: OrderedDict()
                     for entries in range(1, full_cap + 1)}
        self.reset_counts()

    def reset_counts(self):
        self.hit_counts = dict.fromkeys(self.caches, 0)
        self.full_hit_counts = dict.fromkeys(self.full, 0)
        self.total = 0

    @staticmethod
    def _reference(lines, block, ways):
        hit = block in lines
        if hit:
            lines.move_to_end(block)
        else:
            if len(lines) >= ways:
                lines.popitem(last=False)
            lines[block] = True
        return hit

    def touch(self, block, placement, count=True):
        for (k, assoc), sets in self.caches.items():
            lines = sets.setdefault(placement & ((1 << k) - 1),
                                    OrderedDict())
            if self._reference(lines, block, assoc) and count:
                self.hit_counts[(k, assoc)] += 1
        for entries, lines in self.full.items():
            if self._reference(lines, block, entries) and count:
                self.full_hit_counts[entries] += 1
        if count:
            self.total += 1

    def stack_state(self):
        """Per level: each set's MRU-first contents at the level cap."""
        levels = {k: {bucket: list(reversed(lines))
                      for bucket, lines in self.caches[(k, cap)].items()}
                  for k, cap in self.level_caps.items()}
        full = (list(reversed(self.full[self.full_cap]))
                if self.full_cap else None)
        return {"levels": levels, "full": full}


def _random_case(seed):
    """One random (columns, geometry, replay plan) torture case.

    Plans mix counted and warm (count=False) sub-range segments with
    occasional mid-stream ``reset_counts`` -- every segmented-replay
    shape the runner can produce, plus ones it cannot yet.
    """
    rng = random.Random(987_000 + seed)
    nblocks = rng.choice([1, 2, 3, 5, 9, 17, 40, 200])
    n = rng.randrange(1, 150)
    blocks = [rng.randrange(nblocks) for _ in range(n)]
    pmap = {block: rng.getrandbits(16) for block in range(nblocks)}
    placements = [pmap[block] for block in blocks]
    ks = rng.sample([1, 2, 3, 4], rng.randrange(1, 4))
    level_caps = {k: rng.choice([1, 2, 3, 4, 5, 6, 8]) for k in ks}
    full_cap = rng.choice([0, 1, 3, 8])
    plan = []
    pos = 0
    while pos < n:
        nxt = rng.randrange(pos, n) + 1
        plan.append((pos, nxt, rng.random() < 0.7))
        if rng.random() < 0.2:
            plan.append("reset")
        pos = nxt
    return blocks, placements, level_caps, full_cap, plan


def _run_plan(engine, oracle, blocks, placements, plan):
    for step in plan:
        if step == "reset":
            engine.reset_counts()
            oracle.reset_counts()
        else:
            start, stop, count = step
            engine.replay_columns(blocks, placements, start, stop, count)
            for index in range(start, stop):
                oracle.touch(blocks[index], placements[index], count)


def _assert_matches_oracle(engine, oracle):
    assert engine.total == oracle.total
    for (k, assoc), hits in oracle.hit_counts.items():
        assert engine.hits(k, assoc) == hits, (k, assoc)
    for entries, hits in oracle.full_hit_counts.items():
        assert engine.full_hits(entries) == hits, entries
    assert engine.stack_state() == oracle.stack_state()


class TestRandomizedEquivalence:
    """Seeded random column pairs pinned to the brute-force oracle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_plan_equivalence(self, seed):
        blocks, placements, level_caps, full_cap, plan = _random_case(seed)
        engine = np_engine.NumpyMultiConfigLRU(dict(level_caps), full_cap)
        oracle = _BruteLRU(level_caps, full_cap)
        _run_plan(engine, oracle, blocks, placements, plan)
        _assert_matches_oracle(engine, oracle)

    def test_cycle_pattern_equivalence(self):
        # 3/4-symbol cycles are the chain resolver's worst case: every
        # reference is a deep re-reference and runs stay length one.
        rng = random.Random(1985)
        blocks = []
        for _ in range(60):
            blocks.extend(range(4))
            if rng.random() < 0.3:
                blocks.append(4 + rng.randrange(3))
        pmap = {block: rng.getrandbits(16) for block in range(7)}
        placements = [pmap[block] for block in blocks]
        level_caps = {1: 4, 2: 5}
        engine = np_engine.NumpyMultiConfigLRU(dict(level_caps))
        oracle = _BruteLRU(level_caps, 0)
        _run_plan(engine, oracle, blocks, placements,
                  [(0, len(blocks), True)])
        _assert_matches_oracle(engine, oracle)

    def test_touch_equivalence(self):
        # One-reference segments through the carry machinery, against
        # the oracle and against one bulk replay of the same stream.
        rng = random.Random(44)
        pmap = {block: rng.getrandbits(16) for block in range(30)}
        refs = [(block, pmap[block])
                for block in (rng.randrange(30) for _ in range(400))]
        bulk = np_engine.NumpyMultiConfigLRU({1: 2, 3: 4}, full_cap=8)
        engine = np_engine.NumpyMultiConfigLRU({1: 2, 3: 4}, full_cap=8)
        oracle = _BruteLRU({1: 2, 3: 4}, 8)
        bulk.replay(refs)
        for i, (block, placement) in enumerate(refs):
            count = i % 5 != 0
            engine.touch(block, placement, count=count)
            oracle.touch(block, placement, count=count)
        _assert_matches_oracle(engine, oracle)
        assert bulk.stack_state() == engine.stack_state()

    def test_next_use_times_equivalence(self):
        rng = random.Random(5)
        blocks = [rng.randrange(40) for _ in range(500)]
        brute = []
        for i, block in enumerate(blocks):
            later = [j for j in range(i + 1, len(blocks))
                     if blocks[j] == block]
            brute.append(float(later[0]) if later else float("inf"))
        assert np_engine.np_next_use_times(blocks) == brute
        assert np_engine.np_next_use_times([]) == []


class TestSweepEquivalence:
    """run_sweep(engine="auto") == run_sweep(engine="grid"), full
    paper grid plus both reference columns, every warm-up window,
    both semantics."""

    WINDOWS = [
        {"double_pass": True},
        {"warmup_fraction": 0.25},
        {"warmup_fraction": 0.0},
        {"warmup_fraction": 0.9},
    ]

    @pytest.mark.parametrize("semantics", ["paper", "v2"])
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=[str(w) for w in WINDOWS])
    @pytest.mark.parametrize("cache", ["itlb", "icache"])
    def test_numpy_single_pass_equivalence(self, cache, window,
                                           semantics, events):
        common = dict(cache=cache, include_full=True, include_opt=True,
                      semantics=semantics, **window)
        fast = run_sweep(SweepSpec(engine="auto", **common), events)
        grid = run_sweep(SweepSpec(engine="grid", **common), events)
        assert fast.counts == grid.counts
        assert fast.opt_counts == grid.opt_counts
        assert fast.meta["engine"] == "numpy"
        assert grid.meta["engine"] == "grid"
        per_replay = 2 if window.get("double_pass") else 1
        assert fast.meta["trace_passes"] == 2 * per_replay  # LRU + OPT

    def test_auto_uses_numpy_when_available(self, events):
        surface = run_sweep(SweepSpec("itlb", double_pass=True), events)
        assert surface.meta["engine"] == "numpy"

    def test_numpy_engine_requires_eligibility(self, events):
        # Non-LRU policies and non-power-of-two set counts have no
        # stack-distance formulation: "auto" routes them to the grid.
        for spec in (SweepSpec("itlb", policy="fifo", sizes=(8, 16),
                               associativities=(2,)),
                     SweepSpec("itlb", sizes=(24,),
                               associativities=(2,))):
            assert not spec.single_pass_eligible()
            assert run_sweep(spec, events).meta["engine"] == "grid"


class TestPlacementPurityGuard:
    """The carry-prefix reconstruction assumes placement is a function
    of block; violations must raise, never silently diverge."""

    def test_in_segment_violation_raises(self):
        fast = np_engine.NumpyMultiConfigLRU({1: 2})
        with pytest.raises(ValueError, match="pure function"):
            fast.replay_columns([5, 5], [10, 11])

    def test_cross_segment_violation_raises(self):
        fast = np_engine.NumpyMultiConfigLRU({1: 2})
        fast.touch(5, 10)
        with pytest.raises(ValueError, match="pure function"):
            fast.touch(5, 11)


class TestHitPrefixCaching:
    """hits()/full_hits()/OptStack.hits() answers stay correct across
    counted updates and resets (the cached prefix sums invalidate)."""

    def test_multi_config_cache_invalidation(self):
        engine = np_engine.NumpyMultiConfigLRU({2: 3}, full_cap=4)
        stream = [(i % 7, i % 7) for i in range(60)]
        engine.replay(stream)
        assert engine.hits(2, 2) == sum(engine.histograms()[2][:2])
        first = engine.hits(2, 2)
        assert engine.hits(2, 2) == first          # cached path
        engine.replay(stream)                      # invalidates
        assert engine.hits(2, 2) == sum(engine.histograms()[2][:2])
        assert engine.full_hits(3) == sum(engine._full_hist[:3])
        engine.touch(3, 3)                         # invalidates too
        assert engine.hits(2, 2) == sum(engine.histograms()[2][:2])
        engine.reset_counts()
        assert engine.hits(2, 3) == 0
        assert engine.full_hits(4) == 0

    def test_opt_stack_cache_invalidation(self):
        blocks = [i % 5 for i in range(40)]
        next_use = np_engine.np_next_use_times(blocks)
        opt = OptStack(4)
        for block, nxt in zip(blocks[:20], next_use[:20]):
            opt.touch(block, nxt)
        assert opt.hits(3) == sum(opt.hist[:3])
        for block, nxt in zip(blocks[20:], next_use[20:]):
            opt.touch(block, nxt)
        assert opt.hits(3) == sum(opt.hist[:3])
        opt.reset_counts()
        assert opt.hits(4) == 0
