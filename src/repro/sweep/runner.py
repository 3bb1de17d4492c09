"""Drivers: a SweepSpec plus a trace -> a ResultSurface.

``run_sweep`` picks the execution engine per spec:

* **stack distance** (:class:`~repro.sweep.np_engine.NumpyMultiConfigLRU`,
  reported as ``meta["engine"] == "numpy"``) when the spec is LRU with
  power-of-two set counts and ``engine="auto"`` -- one simulation
  replay of the trace (two under the paper's double-pass warm-up)
  produces every grid cell at once;
* **grid** otherwise (or with ``engine="grid"``) -- one
  :func:`~repro.trace.cachesim.simulate_itlb` /
  :func:`~repro.trace.cachesim.simulate_icache` call per cell, which
  supports any replacement policy and geometry.  It is also the
  oracle the stack-distance engine is pinned against.

Both paths produce *bitwise identical* hit ratios for LRU specs:
driver and ``simulate_*`` functions alike place the warm-up window
with :func:`repro.trace.semantics.reset_index`, the single audited
home of the versioned measurement semantics (``"paper"`` preserves
the historical quirk family bit-for-bit; ``"v2"`` fixes it).  The
equivalence is pinned by tests/test_sweep.py under both versions.
The OPT reference curve has no per-configuration simulator, so both
paths compute it the same way (:func:`_opt_counts`).

``meta["trace_passes"]`` counts *simulation replays* of the event
stream -- the number of times a cache model observed every reference.
Cheap preprocessing (building the filtered reference columns, the OPT
next-use scan) is not a simulation replay and is reported separately
as ``meta["aux_passes"]``.

Reference streams are *columns*, not event objects: the drivers read
the packed int columns of a :class:`~repro.trace.columnar.Trace`
directly (the icache stream for one-word lines is literally the
trace's address column, zero-copy) and feed the engine through
:meth:`~repro.sweep.np_engine.NumpyMultiConfigLRU.replay_columns`.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.caches.setassoc import stable_hash
from repro.sweep import np_engine
from repro.sweep.engine import OptStack
from repro.sweep.spec import HierarchySpec, SweepSpec
from repro.sweep.surface import Cell, ResultSurface
from repro.trace.cachesim import simulate_icache, simulate_itlb
from repro.trace.columnar import Trace, as_trace
from repro.trace.semantics import reset_index
from repro.workloads.library import ResultCache

#: A reference stream: parallel (block identity, placement) columns.
RefColumns = Tuple[Sequence, Sequence[int]]

#: The engine-semantics version, part of every result-cache key: bump
#: it whenever ANY engine's measured counts could change (a
#: replacement-model fix, a warm-up change, a placement-hash change),
#: so stale cached surfaces can only ever miss, never misreport.
#: Measurement-*semantics* differences (``"paper"`` vs ``"v2"``) are
#: already in the spec and need no bump.
ENGINE_VERSION = 1


#: The spec fields a result-cache key covers: all but the display-only
#: ``label`` (two labels of the same sweep share one result).
_KEY_FIELDS = tuple(f.name for f in fields(SweepSpec) if f.name != "label")

#: One encoder for every key: ``json.dumps`` with these options would
#: build a fresh one per call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                default=str)


def result_cache_key(spec: SweepSpec, trace_key: str) -> str:
    """The content key one (trace, sweep) query memoizes under.

    Canonical JSON over the trace's store key, the *full* spec (every
    field but ``label``, each value exactly as the spec holds it; note
    ``engine`` stays in the key, so the engine-equivalence pins always
    compare freshly computed surfaces), and :data:`ENGINE_VERSION`.
    The fields are read straight off the spec -- the same document
    ``dataclasses.asdict`` would build, at a quarter of the cost -- so
    the keys of existing on-disk caches are unchanged.
    """
    identity = {name: getattr(spec, name) for name in _KEY_FIELDS}
    blob = _KEY_ENCODER.encode(
        {"trace": trace_key, "spec": identity,
         "engine_version": ENGINE_VERSION})
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


#: store root -> ResultCache, so repeated sweeps share hit/miss
#: counters and skip re-reading the environment.
_RESULT_CACHES: Dict[str, ResultCache] = {}


def _result_cache(root: str) -> ResultCache:
    cache = _RESULT_CACHES.get(root)
    if cache is None:
        cache = _RESULT_CACHES[root] = ResultCache(root)
    return cache


# -- reference streams ----------------------------------------------------

def _itlb_ref_columns(trace: Trace, dispatched_only: bool) -> RefColumns:
    """The (key, stable hash) columns the ITLB sees, as numpy arrays.

    Block identities are the opcode/class pair packed into one int
    (injective for the 32-bit column values), built in one array
    pass; the placement hash -- which must stay bitwise-identical to
    the set placement the real ITLB computes -- runs once per distinct
    key, on that key's first (opcode, class) pair as Python ints.
    """
    opcodes = np.asarray(trace.opcodes(), dtype=np.int64)
    classes = np.asarray(trace.receiver_classes(), dtype=np.int64)
    if dispatched_only:
        indices = np.asarray(trace.dispatched_indices(), dtype=np.intp)
        opcodes = opcodes[indices]
        classes = classes[indices]
    blocks = (opcodes << 32) ^ (classes & 0xFFFFFFFF)
    _, first, inverse = np.unique(blocks, return_index=True,
                                  return_inverse=True)
    hashes = np.array(
        [stable_hash((opcode, (receiver,))) for opcode, receiver
         in zip(opcodes[first].tolist(), classes[first].tolist())],
        dtype=np.uint64)
    return blocks, hashes[inverse]


def _icache_ref_columns(trace: Trace, line_words: int) -> RefColumns:
    """The (block, block) columns the icache sees (modulo indexing).

    For one-word lines the address column itself serves as both
    identity and placement -- a zero-copy view, nothing built at all.
    """
    addresses = trace.addresses()
    if line_words == 1:
        return addresses, addresses
    blocks = array("q", (address // line_words for address in addresses))
    return blocks, blocks


def _ref_columns(spec: SweepSpec, trace: Trace) -> RefColumns:
    """The reference stream *spec*'s cache kind observes."""
    if spec.cache == "itlb":
        return _itlb_ref_columns(trace, spec.dispatched_only)
    return _icache_ref_columns(trace, spec.line_words)


def _reset_touch(spec: SweepSpec, events: Sequence,
                 n_refs: int) -> Optional[int]:
    """Where in the *reference* stream the warm-up stats reset lands.

    Delegates to the versioned semantics module so the stack-distance
    driver and the ``simulate_*`` loops agree reference-for-reference
    under either semantics version.
    """
    return reset_index(spec.semantics, spec.cache, events, n_refs,
                       warmup_fraction=spec.warmup_fraction,
                       dispatched_only=spec.dispatched_only)


def _opt_counts(spec: SweepSpec, blocks: Sequence,
                reset_at: Optional[int]) -> Dict[int, Cell]:
    """``size -> (hits, misses)`` of the OPT/Belady reference curve.

    One :class:`~repro.sweep.engine.OptStack` replay of *blocks* (two
    under double pass, the first uncounted), after one next-use scan.
    ``reset_at`` is the single-pass warm-up cut (``None``: measure
    everything); double-pass specs ignore it.
    """
    # Python ints, whatever the column type: OptStack's list scans
    # compare and hash them per reference.
    refs = blocks.tolist()
    n_refs = len(refs)
    opt = OptStack(max(spec.entries(s) for s in spec.sizes))
    if spec.double_pass:
        next_use = np_engine.np_next_use_times(refs + refs)
        for i in range(n_refs):
            opt.touch(refs[i], next_use[i], count=False)
        for i in range(n_refs):
            opt.touch(refs[i], next_use[n_refs + i], count=True)
    else:
        next_use = np_engine.np_next_use_times(blocks)
        for index in range(n_refs):
            opt.touch(refs[index], next_use[index],
                      count=(reset_at is None or index >= reset_at))
    counts = {}
    for size in spec.sizes:
        hits = opt.hits(spec.entries(size))
        counts[size] = (hits, opt.total - hits)
    return counts


def _columns(spec: SweepSpec) -> list:
    """The surface's associativity columns, reference column last."""
    columns = list(spec.associativities)
    if spec.include_full and "full" not in columns:
        columns.append("full")
    return columns


# -- the stack-distance path -----------------------------------------------

def _geometry(spec: SweepSpec) -> Tuple[Dict[int, int], int]:
    """(level caps keyed by log2(num_sets), single-set depth bound)."""
    level_caps: Dict[int, int] = {}
    full_cap = 0
    for size, assoc in spec.lru_configs():
        sets = spec.num_sets(size, assoc)
        if sets == 1:
            full_cap = max(full_cap, assoc)
        else:
            k = sets.bit_length() - 1
            level_caps[k] = max(level_caps.get(k, 0), assoc)
    if spec.wants_full_curve():
        full_cap = max(full_cap, max(spec.entries(s) for s in spec.sizes))
    return level_caps, full_cap


def _run_single_pass(spec: SweepSpec, events: Sequence) -> ResultSurface:
    trace = as_trace(events)
    blocks, placements = _ref_columns(spec, trace)
    n_refs = len(blocks)
    engine = np_engine.NumpyMultiConfigLRU(*_geometry(spec))
    per_replay = 2 if spec.double_pass else 1
    reset_at = None
    if spec.double_pass:
        engine.replay_columns(blocks, placements, count=False)
        engine.replay_columns(blocks, placements, count=True)
    else:
        reset_at = _reset_touch(spec, trace, n_refs)
        # Counting-then-resetting is the same as not counting (state
        # evolution never depends on the counters), so the warm-up
        # window splits into two bulk replays around the reset point.
        if reset_at is None:
            engine.replay_columns(blocks, placements, count=True)
        else:
            engine.replay_columns(blocks, placements,
                                  stop=reset_at, count=False)
            engine.replay_columns(blocks, placements,
                                  start=reset_at, count=True)

    total = engine.total
    counts: Dict[object, Dict[int, Cell]] = {}
    for assoc in _columns(spec):
        row: Dict[int, Cell] = {}
        for size in spec.sizes:
            if assoc == "full":
                hits = engine.full_hits(spec.entries(size))
            else:
                sets = spec.num_sets(size, assoc)
                if sets == 1:
                    hits = engine.full_hits(assoc)
                else:
                    hits = engine.hits(sets.bit_length() - 1, assoc)
            row[size] = (hits, total - hits)
        counts[assoc] = row

    opt_counts = None
    passes = per_replay
    aux = 1  # the reference-stream build
    if spec.include_opt:
        opt_counts = _opt_counts(spec, blocks, reset_at)
        passes += per_replay
        aux += 1
    return ResultSurface(spec, counts, opt_counts, {
        "engine": "numpy",
        "semantics": spec.semantics,
        "trace_passes": passes,
        "aux_passes": aux,
        "events": len(trace),
        "references": n_refs,
        "measured": total,
    })


# -- the per-configuration grid path ---------------------------------------

def _simulate_cell(spec: SweepSpec, events: Sequence,
                   size: int, assoc) -> Cell:
    kwargs = dict(policy=spec.policy,
                  warmup_fraction=spec.warmup_fraction,
                  double_pass=spec.double_pass,
                  semantics=spec.semantics)
    if spec.cache == "itlb":
        stats = simulate_itlb(events, size, assoc,
                              dispatched_only=spec.dispatched_only,
                              **kwargs)
    else:
        stats = simulate_icache(events, size, assoc,
                                line_words=spec.line_words, **kwargs)
    return stats.hits, stats.misses


def _run_grid(spec: SweepSpec,
              events: Sequence) -> ResultSurface:
    per_sim = 2 if spec.double_pass else 1
    passes = 0
    counts: Dict[object, Dict[int, Cell]] = {}
    for assoc in _columns(spec):
        row: Dict[int, Cell] = {}
        for size in spec.sizes:
            row[size] = _simulate_cell(spec, events, size, assoc)
            passes += per_sim
        counts[assoc] = row

    opt_counts = None
    aux = 0
    if spec.include_opt:
        trace = as_trace(events)
        blocks, _ = _ref_columns(spec, trace)
        reset_at = (None if spec.double_pass
                    else _reset_touch(spec, trace, len(blocks)))
        opt_counts = _opt_counts(spec, blocks, reset_at)
        passes += per_sim
        aux = 2  # the reference-stream build and the next-use scan
    return ResultSurface(spec, counts, opt_counts, {
        "engine": "grid",
        "semantics": spec.semantics,
        "trace_passes": passes,
        "aux_passes": aux,
        "events": len(events),
        "configurations": sum(len(row) for row in counts.values()),
    })


# -- public entry points ---------------------------------------------------

def run_sweep(spec: SweepSpec,
              events: Sequence) -> ResultSurface:
    """Execute one sweep over a trace, choosing the engine per spec.

    ``events`` may be a columnar :class:`~repro.trace.columnar.Trace`
    (the store's native type; iterated column-wise throughout) or a
    legacy ``TraceEvent`` sequence, which is packed into columns once
    up front.

    Store-backed traces (those carrying a ``store_key`` stamp) are
    memoized through the on-disk result cache: a repeated query
    reconstructs the surface from
    :meth:`~repro.sweep.surface.ResultSurface.to_payload` -- ``meta``
    verbatim, so cached figures render byte-identically -- without
    replaying a single reference.  The ``sweep.replay`` counter
    increments only when an engine actually ran, which is how "a
    repeated run performs zero replays" is asserted.
    """
    events = as_trace(events)
    cache = key = None
    trace_key = getattr(events, "store_key", None)
    if trace_key and getattr(events, "store_root", None) \
            and ResultCache.enabled():
        cache = _result_cache(events.store_root)
        key = result_cache_key(spec, trace_key)
        payload = cache.get(key)
        if payload is not None:
            surface = ResultSurface.from_payload(spec, payload)
            if surface is not None:
                with telemetry.span("sweep.run", cache=spec.cache,
                                    engine=spec.engine) as sp:
                    sp.set(outcome="result-cache-hit",
                           resolved_engine=surface.meta.get("engine"))
                return surface
            # Decoded JSON but not a surface document: rewrite below.
    with telemetry.span("sweep.run", cache=spec.cache,
                        engine=spec.engine) as sp:
        start = time.perf_counter()
        surface = _dispatch(spec, events)
        elapsed = time.perf_counter() - start
        meta = surface.meta
        sp.set(resolved_engine=meta["engine"],
               trace_passes=meta["trace_passes"],
               references=meta.get("references", meta.get("events")))
        telemetry.inc("sweep.replay", cache=spec.cache,
                      engine=meta["engine"])
        if telemetry.enabled() and elapsed > 0:
            replayed = ((meta.get("references")
                         or meta.get("events") or 0)
                        * max(1, meta["trace_passes"]))
            telemetry.observe("sweep.replay_events_per_sec",
                              replayed / elapsed,
                              cache=spec.cache, engine=meta["engine"])
    if cache is not None:
        cache.put(key, surface.to_payload())
    return surface


def _dispatch(spec: SweepSpec, events: Sequence) -> ResultSurface:
    """Engine selection (see :func:`run_sweep`)."""
    if spec.engine == "auto" and spec.single_pass_eligible():
        return _run_single_pass(spec, events)
    return _run_grid(spec, events)


def run_hierarchy(hierarchy: HierarchySpec,
                  events: Sequence) -> Tuple[ResultSurface, ...]:
    """Run every level of a hierarchy over one trace, in order.

    Routed through the batch planner
    (:func:`repro.sweep.planner.run_batch`), so levels that differ
    only in geometry coalesce into one superset replay; the surfaces
    stay bitwise-identical to per-level :func:`run_sweep` calls.  Use
    :func:`run_hierarchy_planned` to also see what the batch cost.
    """
    return run_hierarchy_planned(hierarchy, events)[0]


def run_hierarchy_planned(hierarchy: HierarchySpec, events: Sequence):
    """(level surfaces, :class:`~repro.sweep.planner.BatchReport`)."""
    from repro.sweep.planner import Query, run_batch
    events = as_trace(events)
    batch = run_batch([Query(spec=level) for level in hierarchy.levels],
                      events)
    return tuple(batch.surfaces), batch.report


def run_semantics_delta(
    spec: SweepSpec, events: Sequence,
) -> Tuple[ResultSurface, ResultSurface, Dict[object, Dict[int, float]]]:
    """One spec under both semantics: (paper, v2, v2 - paper ratios).

    Quantifies what the paper's warm-up quirk family costs on this
    grid instead of leaving it buried in the pinned figures.  The
    delta is per cell (``delta[assoc][size]``, v2 ratio minus paper
    ratio) and is identically zero for double-pass specs -- the quirks
    live entirely in the single-pass fraction window.
    """
    from dataclasses import replace
    paper = run_sweep(replace(spec, semantics="paper"), events)
    v2 = run_sweep(replace(spec, semantics="v2"), events)
    delta = {assoc: {size: v2.ratio(assoc, size) - paper.ratio(assoc, size)
                     for size in row}
             for assoc, row in paper.counts.items()}
    return paper, v2, delta
