"""Seeded inputs: sweep-explore batches and serve-mixed requests.

Pure functions of the seed (and the run length): the same seed gives
the same lists, and the program only ever sees the generated queries.
Queries are wire-format dicts, the form ``repro serve`` accepts and
:func:`repro.sweep.planner.query_from_request` parses, so both
workloads speak one language.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

#: The registered library traces, largest first.
TRACES = ("paper", "interleaved", "deep-calls", "gc-churn", "megamorphic",
          "monomorphic", "redefine-churn")
#: Traces whose replays take tens of milliseconds: serve's novel queries.
SMALL_TRACES = ("megamorphic", "gc-churn", "deep-calls", "monomorphic",
                "redefine-churn")
CACHES = ("itlb", "icache")
SIZES = tuple(1 << k for k in range(3, 13))
ASSOCS = (1, 2, 4, 8)
SEMANTICS = ("paper", "v2")
KINDS = ("sweep", "curve", "isoratio", "stats", "ratio")

#: One sweep-explore cycle: (trace, cache, OPT) per batch.  Every
#: trace x cache once with LRU only, plus the OPT batches, chosen so
#: OPT-bearing batches carry about half the cycle's time.  OPT on the
#: paper and interleaved icache streams is left out: one such batch
#: takes 2-7 s, longer than the rest of a cycle together, and would
#: make every run's figures hinge on one op.  A run is whole cycles,
#: so seeds change the queries but not the mix.
SWEEP_CYCLE = tuple((trace, cache, False) for trace in TRACES
                    for cache in CACHES) + (
    ("paper", "itlb", True), ("megamorphic", "icache", True),
    ("gc-churn", "icache", True), ("deep-calls", "itlb", True),
    ("monomorphic", "icache", True), ("redefine-churn", "icache", True),
)
#: Normalized seconds one cycle takes on the reference host.
SWEEP_CYCLE_S = 8.5


def _subset(rng: random.Random, pool, low: int, high: int) -> List:
    chosen = rng.sample(pool, rng.randint(low, min(high, len(pool))))
    return sorted(chosen, key=pool.index)


def _warmup(rng: random.Random, used: set, trace: str, cache: str,
            double_pass: bool):
    """A warm-up setting no earlier group of this run used for this
    trace and cache, so every replay misses both cache tiers."""
    while True:
        setting = (rng.randint(50, 450) / 1000.0, double_pass,
                   rng.choice(SEMANTICS))
        if (trace, cache, setting) not in used:
            used.add((trace, cache, setting))
            return setting


def _query(rng: random.Random, cache: str, setting, opt: bool, kind: str,
           full: bool) -> dict:
    """One random *kind* query; *full* allows the fully-associative
    column."""
    warmup, double_pass, semantics = setting
    query = {"kind": kind, "cache": cache, "warmup_fraction": warmup,
             "double_pass": double_pass, "semantics": semantics}
    if kind in ("stats", "ratio"):
        query["size"] = rng.choice(SIZES)
        query["associativity"] = rng.choice(ASSOCS + (("full",) if full
                                                      else ()))
        if query["associativity"] == "full":
            query.update(associativities=[1], full=True,
                         sizes=[query["size"]])
    else:
        query["sizes"] = _subset(rng, SIZES, 3, 10)
        query["associativities"] = _subset(rng, ASSOCS, 1, 4)
        query["full"] = full and rng.random() < 0.5
        if kind == "curve":
            columns = query["associativities"] + (
                ["full"] if query["full"] else [])
            query["associativity"] = rng.choice(columns)
        elif kind == "isoratio":
            query["target"] = rng.choice((0.5, 0.8, 0.9, 0.95, 0.99))
    if opt:
        query["opt"] = True
    return query


def sweep_batches(seed: int, cycles: int) -> List[dict]:
    """*cycles* shuffled copies of :data:`SWEEP_CYCLE`; no query
    repeats.

    A batch is two warm-up groups of two queries: a single-pass group
    with the fully-associative column and a double-pass group without.
    Each group has a whole-grid ``sweep`` anchor plus one random query,
    so its superset replay has the same geometry whatever the seed:
    seeds vary fractions, semantics and the random queries, never the
    replay cost.
    """
    rng = random.Random(f"sweep-explore:{seed}")
    used: set = set()
    batches = []
    for _ in range(cycles):
        cycle = list(SWEEP_CYCLE)
        rng.shuffle(cycle)
        for trace, cache, opt in cycle:
            queries = []
            for double_pass in (False, True):
                setting = _warmup(rng, used, trace, cache, double_pass)
                anchor = _query(rng, cache, setting, opt, "sweep", False)
                anchor.update(sizes=list(SIZES), associativities=list(ASSOCS),
                              full=not double_pass)
                queries += [anchor, _query(
                    rng, cache, setting, opt, rng.choice(KINDS),
                    not double_pass)]
            batches.append({"workload": trace, "queries": queries})
    return batches


# -- serve-mixed -----------------------------------------------------------

#: The popular queries of each trace, one per kind, alternating caches.
POPULAR_KINDS = ("curve", "isoratio", "stats", "ratio")
#: Requests per serve block: one timed interval.  Every block carries
#: exactly one novel query per small trace and cache kind (5%), at
#: fixed positions, so blocks cost the same whatever the seed.
BLOCK = 200
NOVEL_EVERY = BLOCK // (len(SMALL_TRACES) * len(CACHES))
NOVEL_WARMUPS = 4


def popular_set(seed: int) -> Dict[str, List[dict]]:
    """Per trace, the queries setup caches (the Zipf head).  All of them
    sweep the whole grid, so the set-up replays, and the memory they
    leave behind, are the same whatever the seed; the seed picks the
    kinds' arguments and the warm-up."""
    rng = random.Random(f"serve-popular:{seed}")
    popular = {}
    for trace in TRACES:
        setting = (rng.choice((0.25, 0.5)), False, "paper")
        popular[trace] = []
        for cache, kind in zip(CACHES * 2, POPULAR_KINDS):
            query = _query(rng, cache, setting, False, kind, True)
            query.update(sizes=list(SIZES), associativities=list(ASSOCS),
                         full=True)
            popular[trace].append(query)
    return popular


def _zipf(rng: random.Random, n: int, exponent: float = 1.1) -> int:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    return rng.choices(range(n), weights)[0]


def serve_blocks(seed: int) -> Iterator[List[dict]]:
    """Endless blocks of :data:`BLOCK` requests.  Each request carries
    1-4 queries on one trace.  Most are Zipf draws from
    :func:`popular_set`; every :data:`NOVEL_EVERY`-th request instead
    leads with a novel point or curve query on a small trace, with a
    warm-up setting no popular query uses, so it replays.  Novel
    queries never repeat."""
    rng = random.Random(f"serve-requests:{seed}")
    popular = popular_set(seed)
    ranked = list(TRACES)
    rng.shuffle(ranked)
    # Odd thousandths: never a popular query's 0.25 or 0.5.
    warmups = {(trace, cache): [(2 * rng.randint(25, 225) + 1) / 1000.0
                                for _ in range(NOVEL_WARMUPS)]
               for trace in SMALL_TRACES for cache in CACHES}
    combos = sorted(warmups)
    seen: set = set()
    number = 0
    while True:
        rng.shuffle(combos)
        novel = iter(combos)
        block = []
        for position in range(BLOCK):
            number += 1
            if position % NOVEL_EVERY == NOVEL_EVERY // 2:
                trace, cache = next(novel)
                queries = [_novel(rng, trace, cache, warmups, seen)]
            else:
                trace = ranked[_zipf(rng, len(ranked))]
                queries = []
            candidates = popular[trace]
            for _ in range(rng.randint(1, 4) - len(queries)):
                queries.append(candidates[_zipf(rng, len(candidates))])
            block.append({"id": f"r{number}", "workload": trace,
                          "queries": queries})
        yield block


def is_novel(query: dict) -> bool:
    return query.get("warmup_fraction") not in (0.25, 0.5)


def _novel(rng: random.Random, trace: str, cache: str, warmups,
           seen: set) -> dict:
    while True:
        warmup = rng.choice(warmups[(trace, cache)])
        if rng.random() < 0.8:
            kind = rng.choice(("stats", "ratio"))
            key: Tuple = (trace, cache, warmup, rng.choice(SIZES),
                          rng.choice(ASSOCS))
            query = {"kind": kind, "cache": cache, "size": key[3],
                     "associativity": key[4]}
        else:
            sizes = _subset(rng, SIZES, 4, 10)
            key = (trace, cache, warmup, tuple(sizes))
            query = {"kind": "curve", "cache": cache, "sizes": sizes,
                     "associativity": 2}
        if key in seen:
            continue
        seen.add(key)
        query["warmup_fraction"] = warmup
        return query
