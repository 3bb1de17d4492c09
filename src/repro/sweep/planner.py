"""Batched sweep query planning: N queries, one trace pass per group.

The stack-distance engine already computes a *whole* hit-ratio surface
from one replay, so N queries against the same trace should cost one
pass, not N.  This module is the layer that makes that true for
callers who arrive with *queries* (a curve here, an iso-ratio
threshold there, a point ratio somewhere else) rather than one
carefully crafted superset spec:

:class:`Query`
    One normalized question -- a :class:`~repro.sweep.spec.SweepSpec`
    plus a kind (``sweep`` / ``curve`` / ``isoratio`` / ``stats`` /
    ``ratio``) and the kind's arguments -- with :meth:`Query.answer`
    projecting the JSON-shaped reply out of a surface.

:func:`run_batch`
    The planner, in two steps.  :func:`probe_batch` answers queries
    from cache when possible (the in-memory :class:`SurfaceCache`,
    then the disk :class:`~repro.workloads.library.ResultCache`) --
    cache reads only, cheap enough for an event loop.
    :func:`replay_batch` handles the misses: they are
    grouped by everything that must match for two queries to share a
    replay (cache kind, line size, policy, warm-up, semantics,
    engine -- the trace itself is the batch's), the *superset*
    geometry (union of sizes, union of associativities) is run once
    per group through :func:`~repro.sweep.runner.run_sweep`, and each
    query's surface is *projected* out of the superset.

    Projection is bitwise-exact by construction: the stack-distance
    engine's per-level depth histograms are independent, and widening
    a level's cap never changes the hit counts at shallower depths
    (a reference past every swept way count simply misses
    everywhere), so the superset's counts for any sub-grid are the
    same integers an individual replay produces.  The projected
    surface's ``meta`` is reconstructed exactly as the individual
    run would have reported it (``trace_passes`` / ``aux_passes``
    reflect the query's own spec, not the superset's), which is what
    keeps batch-planned figures byte-identical to per-query runs.

    Groups that cannot merge -- the union geometry fails spec
    validation, the spec is not stack-distance eligible, or the caller
    forced the ``grid`` engine -- fall back to individual
    :func:`~repro.sweep.runner.run_sweep` calls, counted in the
    :class:`BatchReport` so the fallback is visible, never silent.

:class:`SurfaceCache`
    A byte-budgeted in-memory LRU of result payloads (the same JSON
    documents the disk cache stores) keyed by the same content key,
    with **single-flight** deduplication: concurrent identical
    replays (the async front-end's executor threads) share one
    computation, the waiters adopting the leader's payload.  Budget
    via ``REPRO_SURFACE_CACHE_BYTES`` (default 64 MiB); disable with
    ``REPRO_SURFACE_CACHE=0``.

Caching only engages for store-stamped traces (those carrying
``store_key`` / ``store_root``), exactly like :func:`run_sweep`;
grouping and projection work for any trace.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.sweep.runner import _result_cache, result_cache_key, run_sweep
from repro.sweep.spec import CACHE_KINDS, SweepSpec
from repro.sweep.surface import ResultSurface
from repro.trace.columnar import Trace, as_trace
from repro.trace.semantics import SEMANTICS
from repro.workloads.library import ResultCache

Assoc = Union[int, str]

QUERY_KINDS = ("sweep", "curve", "isoratio", "stats", "ratio")

ENV_SURFACE_CACHE = "REPRO_SURFACE_CACHE"
ENV_SURFACE_BUDGET = "REPRO_SURFACE_CACHE_BYTES"

#: In-memory surface budget when ``REPRO_SURFACE_CACHE_BYTES`` is
#: unset: a paper-grid payload is ~1 KiB, so this holds ~10^4 hot
#: surfaces without approaching the disk cache's budget.
DEFAULT_SURFACE_BUDGET = 64 * 1024 * 1024


def _spec_columns(spec: SweepSpec) -> List[Assoc]:
    """The column order a surface for *spec* iterates in."""
    columns: List[Assoc] = list(spec.associativities)
    if spec.include_full and "full" not in columns:
        columns.append("full")
    return columns


@dataclass(frozen=True)
class Query:
    """One normalized sweep question against one trace.

    ``kind`` picks the answer shape; ``associativity`` / ``size`` /
    ``target`` are the kind's arguments (validated against the spec's
    grid, so a malformed query fails at construction, not after a
    replay).
    """

    spec: SweepSpec
    kind: str = "sweep"
    associativity: Optional[Assoc] = None
    size: Optional[int] = None
    target: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}; "
                             f"expected one of {QUERY_KINDS}")
        columns = _spec_columns(self.spec)
        if self.kind in ("curve", "stats", "ratio"):
            if self.associativity is None:
                raise ValueError(
                    f"a {self.kind!r} query needs an associativity")
            if self.associativity not in columns:
                raise ValueError(
                    f"associativity {self.associativity!r} is not in "
                    f"the swept columns {columns}")
        if self.kind in ("stats", "ratio"):
            if self.size is None:
                raise ValueError(f"a {self.kind!r} query needs a size")
            if self.size not in self.spec.sizes:
                raise ValueError(
                    f"size {self.size!r} is not in the swept sizes "
                    f"{self.spec.sizes}")
        if self.kind == "isoratio":
            if self.target is None:
                raise ValueError("an 'isoratio' query needs a target")
            if not 0.0 < self.target <= 1.0:
                raise ValueError(
                    f"isoratio target must be in (0, 1], got "
                    f"{self.target!r}")

    def answer(self, surface: ResultSurface):
        """The JSON-shaped reply for this query, read off *surface*."""
        if self.kind == "sweep":
            return {
                "grid": [[assoc, size, surface.ratio(assoc, size)]
                         for assoc in surface.counts
                         for size in surface.counts[assoc]],
                "meta": dict(surface.meta),
            }
        if self.kind == "curve":
            return {"associativity": self.associativity,
                    "points": surface.curve(self.associativity)}
        if self.kind == "isoratio":
            return {"target": self.target,
                    "thresholds": {str(assoc): size for assoc, size
                                   in surface.isoratio(self.target)
                                   .items()}}
        hits, misses = surface.cell(self.associativity, self.size)
        cell = {"associativity": self.associativity, "size": self.size,
                "ratio": surface.ratio(self.associativity, self.size)}
        if self.kind == "stats":
            cell.update(hits=hits, misses=misses,
                        accesses=hits + misses)
        return cell


def query_from_request(document: dict) -> Query:
    """Build a :class:`Query` from one wire-format dict.

    Raises :class:`ValueError` (with a client-facing message) on any
    malformed field; the server turns that into a per-query error
    entry instead of failing the request.  Point queries (``stats`` /
    ``ratio``) that name only their cell are normalized to a
    single-cell spec, which the planner then coalesces into whatever
    superset the batch needs.
    """
    if not isinstance(document, dict):
        raise ValueError(f"a query must be an object, got "
                         f"{type(document).__name__}")
    kind = document.get("kind", "sweep")
    known = {"kind", "cache", "sizes", "associativities", "line_words",
             "policy", "warmup_fraction", "double_pass",
             "dispatched_only", "full", "opt", "engine", "semantics",
             "associativity", "size", "target", "label"}
    unknown = set(document) - known
    if unknown:
        raise ValueError(f"unknown query field(s) "
                         f"{sorted(unknown)}; known: {sorted(known)}")
    cache = document.get("cache")
    if cache not in CACHE_KINDS:
        raise ValueError(f"query needs a cache kind, one of "
                         f"{CACHE_KINDS}; got {cache!r}")
    spec_kw: Dict[str, object] = {"cache": cache}
    associativity = document.get("associativity")
    size = document.get("size")
    if "sizes" in document:
        spec_kw["sizes"] = tuple(document["sizes"])
    elif kind in ("stats", "ratio") and size is not None:
        spec_kw["sizes"] = (size,)          # normalized point query
    if "associativities" in document:
        spec_kw["associativities"] = tuple(document["associativities"])
    elif kind in ("stats", "ratio", "curve") and associativity is not None:
        spec_kw["associativities"] = (associativity,)
    for key, spec_field in (("line_words", "line_words"),
                            ("policy", "policy"),
                            ("warmup_fraction", "warmup_fraction"),
                            ("double_pass", "double_pass"),
                            ("dispatched_only", "dispatched_only"),
                            ("full", "include_full"),
                            ("opt", "include_opt"),
                            ("engine", "engine"),
                            ("semantics", "semantics"),
                            ("label", "label")):
        if key in document:
            spec_kw[spec_field] = document[key]
    if spec_kw.get("semantics", "paper") not in SEMANTICS:
        raise ValueError(f"unknown semantics "
                         f"{spec_kw['semantics']!r}; expected one of "
                         f"{SEMANTICS}")
    spec = SweepSpec(**spec_kw)  # ValueError on bad geometry or engine
    return Query(spec=spec, kind=kind, associativity=associativity,
                 size=size, target=document.get("target"))


# -- the in-memory surface cache -------------------------------------------

class _Flight:
    """One in-progress superset replay waiters can adopt."""

    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[dict] = None


class SurfaceCache:
    """Byte-budgeted LRU of result payloads, with single-flight.

    Keys are the same content keys the disk
    :class:`~repro.workloads.library.ResultCache` uses, values the
    same JSON payloads, so the two tiers are interchangeable views of
    one identity.  Thread-safe: the async front-end's executor
    threads share one instance.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is None:
            try:
                budget_bytes = int(
                    os.environ.get(ENV_SURFACE_BUDGET,
                                   str(DEFAULT_SURFACE_BUDGET)))
            except ValueError:
                budget_bytes = DEFAULT_SURFACE_BUDGET
        self.budget_bytes = max(0, budget_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[dict, int]]" \
            = OrderedDict()
        self._bytes = 0
        self._inflight: Dict[str, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.shared = 0
        self.evicted = 0

    @staticmethod
    def enabled() -> bool:
        """False when ``REPRO_SURFACE_CACHE=0`` (or ``off``/``false``)
        disables the in-memory tier for the process."""
        return os.environ.get(ENV_SURFACE_CACHE, "1").strip().lower() \
            not in ("0", "off", "false", "no")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains(self, key: str) -> bool:
        """Existence probe -- no LRU refresh, no counters (the server
        uses this for admission decisions)."""
        with self._lock:
            return key in self._entries

    def _get_locked(self, key: str) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def _put_locked(self, key: str, payload: dict) -> None:
        size = len(json.dumps(payload, sort_keys=True,
                              separators=(",", ":")))
        if key in self._entries:
            self._bytes -= self._entries.pop(key)[1]
        self._entries[key] = (payload, size)
        self._bytes += size
        while self._bytes > self.budget_bytes and self._entries:
            _, (_, dropped) = self._entries.popitem(last=False)
            self._bytes -= dropped
            self.evicted += 1

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            payload = self._get_locked(key)
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
            return payload

    def put(self, key: str, payload: dict) -> None:
        with self._lock:
            self._put_locked(key, payload)

    def get_or_compute(self, key: str, compute) -> Tuple[dict, str]:
        """The payload for *key*, computing it at most once at a time.

        Returns ``(payload, outcome)`` with outcome ``"hit"`` (already
        cached), ``"computed"`` (this caller ran *compute*) or
        ``"shared"`` (another thread's in-flight computation was
        adopted).  If the leader raises, its waiters retry -- one of
        them becomes the next leader, so a transient failure never
        wedges the key.
        """
        while True:
            with self._lock:
                payload = self._get_locked(key)
                if payload is not None:
                    self.hits += 1
                    return payload, "hit"
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[key] = flight
                    break
            flight.event.wait()
            if flight.payload is not None:
                with self._lock:
                    self.shared += 1
                return flight.payload, "shared"
            # The leader failed; loop and contend for leadership.
        try:
            payload = compute()
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.payload = payload
        with self._lock:
            self.misses += 1
            self._put_locked(key, payload)
            self._inflight.pop(key, None)
        flight.event.set()
        return payload, "computed"

    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "bytes": self._bytes,
                    "budget_bytes": self.budget_bytes,
                    "hits": self.hits, "misses": self.misses,
                    "shared": self.shared, "evicted": self.evicted}


_DEFAULT_CACHE: Optional[SurfaceCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_surface_cache() -> SurfaceCache:
    """The process-wide surface cache (CLI, hierarchy runs and the
    server all share it, so their hits compound)."""
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = SurfaceCache()
        return _DEFAULT_CACHE


# -- planning --------------------------------------------------------------

def _group_key(spec: SweepSpec) -> Tuple:
    """Everything two specs must share to answer from one replay.

    Geometry (sizes, associativities, the reference-curve flags) is
    deliberately absent -- that is what the superset unions away.
    ``engine`` stays: it is part of the result-cache identity, so an
    ``auto`` query and a ``grid`` query never share a surface even
    when their counts would agree.
    """
    return (spec.cache, spec.line_words, spec.policy,
            spec.warmup_fraction, spec.double_pass,
            spec.dispatched_only, spec.engine, spec.semantics)


def _superset_spec(specs: Sequence[SweepSpec]) -> Optional[SweepSpec]:
    """The union-geometry spec one replay of the group runs, or None
    when the group must fall back to individual runs.

    The union can be invalid where every member is valid (a size from
    one query need not divide an associativity from another), and
    non-eligible specs (non-LRU, non-power-of-two set counts, forced
    ``grid`` engine) have no superset-projection property to lean on;
    both answer None and the caller runs the queries one by one.
    """
    sizes = tuple(sorted({size for spec in specs
                          for size in spec.sizes}))
    int_assocs = tuple(sorted({assoc for spec in specs
                               for assoc in spec.associativities
                               if assoc != "full"}))
    wants_full = any(spec.wants_full_curve() for spec in specs)
    base = specs[0]
    if base.engine == "grid":
        return None
    try:
        merged = replace(
            base, sizes=sizes,
            associativities=int_assocs or ("full",),
            include_full=wants_full,
            include_opt=any(spec.include_opt for spec in specs),
            label="")
    except ValueError:
        return None
    if not merged.single_pass_eligible():
        return None
    return merged


def _project(spec: SweepSpec, superset: ResultSurface) -> ResultSurface:
    """*spec*'s surface read out of the superset's counts.

    ``meta`` is reconstructed to exactly what an individual
    single-pass run of *spec* reports: pass counts follow the query's
    own ``double_pass`` / ``include_opt`` flags (the superset may
    have unioned ``include_opt`` in for someone else), while engine,
    reference and measured counts are grid-independent within a
    group and carry over verbatim.
    """
    counts: Dict[Assoc, Dict[int, Tuple[int, int]]] = {}
    for assoc in _spec_columns(spec):
        row = superset.counts[assoc]
        counts[assoc] = {size: row[size] for size in spec.sizes}
    opt_counts = None
    if spec.include_opt:
        opt_counts = {size: superset.opt_counts[size]
                      for size in spec.sizes}
    passes = 2 if spec.double_pass else 1
    aux = 1
    if spec.include_opt:
        passes *= 2
        aux += 1
    meta = {
        "engine": superset.meta["engine"],
        "semantics": spec.semantics,
        "trace_passes": passes,
        "aux_passes": aux,
        "events": superset.meta["events"],
        "references": superset.meta["references"],
        "measured": superset.meta["measured"],
    }
    return ResultSurface(spec, counts, opt_counts, meta)


@dataclass
class BatchReport:
    """What one planned batch actually cost, for footers/telemetry."""

    queries: int = 0
    #: Engine replays that actually ran (superset runs + fallbacks).
    replays: int = 0
    #: Simulation passes over the trace those replays performed.
    trace_passes: int = 0
    #: Queries answered from a superset replay shared with >= 1 other.
    coalesced: int = 0
    #: Superset groups formed (however they were then satisfied).
    groups: int = 0
    #: Queries run individually because their group could not merge.
    fallbacks: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    #: Whole groups answered from a cached superset surface.
    superset_hits: int = 0
    singleflight_shared: int = 0

    @property
    def queries_per_replay(self) -> Optional[float]:
        return self.queries / self.replays if self.replays else None

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "replays": self.replays,
            "trace_passes": self.trace_passes,
            "coalesced": self.coalesced,
            "groups": self.groups,
            "fallbacks": self.fallbacks,
            "cache_hits": {"memory": self.memory_hits,
                           "disk": self.disk_hits,
                           "superset": self.superset_hits},
            "singleflight_shared": self.singleflight_shared,
            "queries_per_replay": self.queries_per_replay,
        }


@dataclass
class BatchResult:
    """Per-query surfaces (aligned with the input order) + the bill."""

    queries: List[Query]
    surfaces: List[ResultSurface]
    report: BatchReport = field(default_factory=BatchReport)

    def answers(self) -> List[object]:
        return [query.answer(surface)
                for query, surface in zip(self.queries, self.surfaces)]


@dataclass
class BatchProbe:
    """A batch after the cache tiers, before any replay.

    ``surfaces`` holds every answer the tiers had (None where they had
    none) and ``pending`` the unanswered query indexes, grouped by
    :func:`_group_key`.  The probed surfaces are decoded payloads the
    probe owns, so an eviction after the probe cannot take them back.
    """

    queries: List[Query]
    events: Trace
    keys: List[Optional[str]]
    surfaces: List[Optional[ResultSurface]]
    pending: Dict[Tuple, List[int]]
    report: BatchReport
    memory: Optional[SurfaceCache]
    disk: Optional[ResultCache]

    def result(self) -> BatchResult:
        """The answered batch, once no group is pending."""
        if self.pending:
            raise RuntimeError("pending groups need replay_batch() first")
        return BatchResult(queries=self.queries, surfaces=self.surfaces,
                           report=self.report)


def probe_batch(queries: Sequence[Query], events,
                *, surface_cache: Optional[SurfaceCache] = None
                ) -> BatchProbe:
    """Answer what the cache tiers can: the in-memory
    :class:`SurfaceCache`, then the disk result cache.

    Cache reads only, never a replay, and one content key per query
    (kept for the replay step's puts).  :func:`replay_batch` finishes
    the batch.
    """
    queries = list(queries)
    events = as_trace(events)
    memory = surface_cache if surface_cache is not None \
        else default_surface_cache()
    if not SurfaceCache.enabled():
        memory = None
    trace_key = getattr(events, "store_key", None)
    store_root = getattr(events, "store_root", None)
    disk = _result_cache(store_root) \
        if trace_key and store_root and ResultCache.enabled() else None

    report = BatchReport(queries=len(queries))
    telemetry.inc("planner.queries", len(queries))
    keys = [result_cache_key(query.spec, trace_key) if trace_key else None
            for query in queries]
    surfaces: List[Optional[ResultSurface]] = [None] * len(queries)
    pending: Dict[Tuple, List[int]] = {}
    for i, (query, key) in enumerate(zip(queries, keys)):
        if key is not None and memory is not None:
            payload = memory.get(key)
            if payload is not None:
                surface = ResultSurface.from_payload(query.spec, payload)
                if surface is not None:
                    surfaces[i] = surface
                    report.memory_hits += 1
                    telemetry.inc("planner.cache_hit", tier="memory")
                    continue
        if key is not None and disk is not None:
            payload = disk.get(key)
            if payload is not None:
                surface = ResultSurface.from_payload(query.spec, payload)
                if surface is not None:
                    surfaces[i] = surface
                    report.disk_hits += 1
                    telemetry.inc("planner.cache_hit", tier="disk")
                    if memory is not None:
                        memory.put(key, payload)
                    continue
        pending.setdefault(_group_key(query.spec), []).append(i)
    return BatchProbe(queries=queries, events=events, keys=keys,
                      surfaces=surfaces, pending=pending, report=report,
                      memory=memory, disk=disk)


def replay_batch(probe: BatchProbe) -> BatchResult:
    """Replay *probe*'s pending groups -- one superset replay per
    group where the union geometry allows, individual runs otherwise
    -- project every query's surface out, and write both cache tiers.
    """
    queries, events, report = probe.queries, probe.events, probe.report
    memory, disk = probe.memory, probe.disk
    trace_key = getattr(events, "store_key", None)
    for indexes in probe.pending.values():
        report.groups += 1
        merged = _superset_spec([queries[i].spec for i in indexes])
        if merged is None:
            for i in indexes:
                surface = probe.surfaces[i] = run_sweep(queries[i].spec,
                                                        events)
                report.fallbacks += 1
                report.replays += 1
                report.trace_passes += surface.meta.get("trace_passes", 0)
                telemetry.inc("planner.fallback")
            continue
        superset = _run_superset(merged, events, trace_key, memory, disk,
                                 len(indexes), report)
        for i in indexes:
            surface = probe.surfaces[i] = _project(queries[i].spec,
                                                   superset)
            key = probe.keys[i]
            if key is not None:
                payload = surface.to_payload()
                if memory is not None:
                    memory.put(key, payload)
                if disk is not None:
                    disk.put(key, payload)
    probe.pending = {}
    return probe.result()


def run_batch(queries: Sequence[Query], events,
              *, surface_cache: Optional[SurfaceCache] = None
              ) -> BatchResult:
    """Answer every query over one trace with as few replays as the
    grouping rules allow: :func:`probe_batch`, then
    :func:`replay_batch`.  See the module docstring for the pipeline;
    the returned surfaces are bitwise-identical to per-query
    :func:`~repro.sweep.runner.run_sweep` results (pinned by
    tests/test_planner.py).
    """
    with telemetry.span("planner.batch", queries=len(queries)) as sp:
        batch = replay_batch(probe_batch(queries, events,
                                         surface_cache=surface_cache))
        report = batch.report
        sp.set(replays=report.replays, coalesced=report.coalesced,
               cache_hits=report.memory_hits + report.disk_hits)
    return batch


def _run_superset(merged: SweepSpec, events, trace_key: Optional[str],
                  memory: Optional[SurfaceCache],
                  disk: Optional[ResultCache],
                  group_size: int, report: BatchReport) -> ResultSurface:
    """One group's superset surface, via every cache tier in turn."""
    key = result_cache_key(merged, trace_key) if trace_key else None
    was_on_disk = disk is not None and key is not None \
        and disk.contains(key)

    def compute() -> dict:
        # run_sweep handles the disk tier itself (consult + put) and
        # emits the sweep.run span / sweep.replay counter, so a
        # superset replay is indistinguishable from any other sweep
        # in the existing telemetry.
        return run_sweep(merged, events).to_payload()

    if memory is not None and key is not None:
        payload, outcome = memory.get_or_compute(key, compute)
    else:
        payload, outcome = compute(), "computed"
    if outcome == "shared":
        report.singleflight_shared += 1
        telemetry.inc("planner.singleflight_shared")
    surface = ResultSurface.from_payload(merged, payload)
    if surface is None:  # never expected; defensive re-run
        surface = run_sweep(merged, events)
        outcome = "computed"
    if outcome == "computed" and not was_on_disk:
        report.replays += 1
        report.trace_passes += surface.meta.get("trace_passes", 0)
        telemetry.inc("planner.replays")
        telemetry.observe("planner.queries_per_replay", group_size)
        if group_size > 1:
            report.coalesced += group_size
            telemetry.inc("planner.coalesced", group_size)
    else:
        report.superset_hits += 1
        telemetry.inc("planner.cache_hit", tier="superset")
    return surface
