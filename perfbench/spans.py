"""Runtime wrappers around the program's public functions, and the
per-layer metrics computed from what they record.

Nothing under ``src/`` knows about this module: :func:`install`
replaces functions and methods at run time, in the benchmark process
(sweep-explore) or in a ``repro`` child started through
``launcher.py``.  Two modes:

* **fingerprint** (every run): a handful of low-frequency calls
  (experiment runners, ``COMMachine.run``, ``run_sweep``, LRU bulk
  replays) update the simulated-statistics fingerprint; no clock is
  read, so timed runs measure the program as shipped.
* **traced** (``--trace 1`` only): every wrapped call also records a
  span ``(id, name, start, end, parent id, request id)``.  Spans stay
  in memory until the run ends.  The parent and request id travel in a
  context variable, so spans nest correctly across asyncio tasks and
  executor threads.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (parent span id, request id) of the code running now.
_CURRENT = contextvars.ContextVar("perfbench_current", default=(None, None))

Span = Tuple[int, str, float, float, Optional[int], object]

EXPERIMENT_IDS = ("FIG-10", "FIG-11", "TAB-CALL", "TAB-CTX", "TAB-CCACHE",
                  "TAB-ADDR", "TAB-3ADDR")


class Recorder:
    """What the wrappers write: spans (traced only), counters and the
    simulated-statistics fingerprint."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.fingerprint: Dict[str, int] = defaultdict(int)
        self.experiment: Optional[str] = None
        self._ids = itertools.count(1)

    def call(self, name: str, fn, args, kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        parent, request = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, request))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, name, start, end, parent, request))

    async def call_async(self, name: str, fn, args, kwargs, request):
        parent, _ = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, request))
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, name, start, end, parent, request))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "fingerprint": dict(self.fingerprint)}


def _wrapper(rec: Recorder, fn, name, pre=None, post=None):
    """*fn* timed as span *name* (a string or ``name(args)``), with
    optional ``pre(args)`` / ``post(args, kwargs, result, state)``
    hooks."""
    naming = name if callable(name) else (lambda args: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = pre(args) if pre is not None else None
        result = rec.call(naming(args), fn, args, kwargs)
        if post is not None:
            post(args, kwargs, result, state)
        return result
    return wrapper


def _patch_method(cls, attr: str, make) -> None:
    """Set ``cls.attr`` to ``make(function)``; the function may be
    inherited, and a classmethod stays one."""
    raw = next(klass.__dict__[attr] for klass in cls.__mro__
               if attr in klass.__dict__)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _patch_function(module, attr: str, make) -> None:
    """Replace ``module.attr`` and every ``from module import attr``
    binding already made in a ``repro`` module."""
    original = getattr(module, attr)
    replacement = make(original)
    for name, other in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, replacement)


# -- what each wrapper records -----------------------------------------------

def _install_fingerprint(rec: Recorder) -> None:
    from repro.core.machine import COMMachine
    from repro.experiments import registry
    from repro.sweep import runner
    from repro.sweep.np_engine import NumpyMultiConfigLRU

    registry.load_all()
    for exp_id, spec in list(registry._REGISTRY.items()):
        def pre(args, exp_id=exp_id):
            previous, rec.experiment = rec.experiment, exp_id
            return previous

        def post(args, kwargs, result, previous):
            rec.experiment = previous
        registry._REGISTRY[exp_id] = dataclasses.replace(
            spec, runner=_wrapper(rec, spec.runner, f"experiments.{exp_id}",
                                  pre, post))

    def machine_pre(args):
        machine = args[0]
        return (machine.cycles.cycles,
                machine.itlb.stats.hits, machine.itlb.stats.misses,
                machine.icache.stats.hits, machine.icache.stats.misses)

    def machine_post(args, kwargs, executed, before):
        machine = args[0]
        after = machine_pre(args)
        delta = [b - a for a, b in zip(before, after)]
        rec.counts["core.instructions"] += executed
        rec.counts["core.sim_cycles"] += delta[0]
        for key, value in zip(("itlb_hits", "itlb_misses", "icache_hits",
                               "icache_misses"), delta[1:]):
            rec.counts[f"caches.{key}"] += value
        where = rec.experiment or "none"
        rec.fingerprint[f"{where}.core.instructions"] += executed
        rec.fingerprint[f"{where}.core.sim_cycles"] += delta[0]
    _patch_method(COMMachine, "run", lambda fn: _wrapper(
        rec, fn, "core.run", machine_pre, machine_post))

    def sweep_post(args, kwargs, surface, state):
        if rec.experiment in ("FIG-10", "FIG-11"):
            for row in surface.counts.values():
                for hits, misses in row.values():
                    rec.fingerprint[f"{rec.experiment}.hits"] += hits
                    rec.fingerprint[f"{rec.experiment}.misses"] += misses
    _patch_function(runner, "run_sweep", lambda fn: _wrapper(
        rec, fn, lambda args: "sweep.run_sweep+opt"
        if args[0].include_opt else "sweep.run_sweep", post=sweep_post))

    def replay_post(args, kwargs, result, state):
        start = kwargs.get("start", args[3] if len(args) > 3 else 0)
        stop = kwargs.get("stop", args[4] if len(args) > 4 else None)
        refs = max(0, (len(args[1]) if stop is None else stop) - start)
        rec.counts["sweep.refs"] += refs
        rec.fingerprint["sweep.refs"] += refs
    _patch_method(NumpyMultiConfigLRU, "replay_columns", lambda fn: _wrapper(
        rec, fn, "sweep.lru_replay", post=replay_post))


def install_timers(rec: Recorder) -> None:
    from repro import serve, smalltalk
    from repro.caches.setassoc import SetAssociativeCache
    from repro.fith.interp import FithMachine
    from repro.smalltalk import compiler, stackgen
    from repro.sweep import np_engine, planner
    from repro.trace.columnar import MappedTrace, Trace
    from repro.workloads.library import ResultCache
    from repro.workloads.spec import WorkloadSpec
    from repro.workloads.store import TraceStore

    del smalltalk  # imported so its re-exports get patched too

    def fith_pre(args):
        trace = args[0].trace
        return len(trace) if trace is not None else 0

    def fith_post(args, kwargs, result, before):
        trace = args[0].trace
        if trace is not None:
            rec.counts["fith.events"] += len(trace) - before
    _patch_method(FithMachine, "run", lambda fn: _wrapper(
        rec, fn, "fith.run", fith_pre, fith_post))
    _patch_function(compiler, "compile_program",
                    lambda fn: _wrapper(rec, fn, "smalltalk.compile"))
    _patch_function(stackgen, "run_stack_program",
                    lambda fn: _wrapper(rec, fn, "smalltalk.stackvm"))
    _patch_method(SetAssociativeCache, "probe",
                  lambda fn: _wrapper(rec, fn, "caches.probe"))

    def encode_post(args, kwargs, blob, state):
        rec.counts["trace.bytes"] += len(blob)
    _patch_method(Trace, "to_bytes", lambda fn: _wrapper(
        rec, fn, "trace.encode", post=encode_post))

    def open_post(args, kwargs, trace, state):
        rec.counts["trace.bytes"] += len(args[1])
    _patch_method(Trace, "from_buffer", lambda fn: _wrapper(
        rec, fn, "trace.open", post=open_post))
    _patch_method(MappedTrace, "verify",
                  lambda fn: _wrapper(rec, fn, "trace.open"))

    def load_post(args, kwargs, trace, generated_before):
        generated = args[0].generated - generated_before
        rec.counts["store.misses"] += generated
        rec.counts["store.hits"] += 1 - generated
    for method in ("load", "ensure"):
        _patch_method(TraceStore, method, lambda fn: _wrapper(
            rec, fn, "store.load", lambda args: args[0].generated,
            load_post))
    _patch_method(WorkloadSpec, "generate",
                  lambda fn: _wrapper(rec, fn, "store.generate"))

    def get_post(args, kwargs, payload, state):
        key = "result_cache.hits" if payload is not None \
            else "result_cache.misses"
        rec.counts[key] += 1
    _patch_method(ResultCache, "get", lambda fn: _wrapper(
        rec, fn, "result_cache.get", post=get_post))
    _patch_method(ResultCache, "put",
                  lambda fn: _wrapper(rec, fn, "result_cache.put"))
    _patch_function(np_engine, "np_next_use_times",
                    lambda fn: _wrapper(rec, fn, "sweep.next_use"))

    def batch_post(args, kwargs, batch, state):
        report = batch.report
        for key in ("queries", "replays", "memory_hits", "disk_hits",
                    "superset_hits", "fallbacks", "singleflight_shared"):
            rec.counts[f"planner.{key}"] += getattr(report, key)
    _patch_function(planner, "run_batch", lambda fn: _wrapper(
        rec, fn, "planner.batch", post=batch_post))

    answer = serve.SweepServer._answer

    async def traced_answer(self, document):
        request = document.get("id") if isinstance(document, dict) else None
        return await rec.call_async("serve.answer", answer, (self, document),
                                    {}, request)
    serve.SweepServer._answer = traced_answer
    # run_in_executor does not carry context variables into the worker
    # thread; binding the caller's context into the partial the server
    # builds lets replay spans keep their request id and parent.
    serve.functools = _ContextPartial()


class _ContextPartial:
    """Stands in for the ``functools`` module inside ``repro.serve``."""

    def __getattr__(self, name):
        return getattr(functools, name)

    @staticmethod
    def partial(fn, *args, **kwargs):
        return functools.partial(contextvars.copy_context().run, fn,
                                 *args, **kwargs)


def install(traced: bool) -> Recorder:
    """Install the wrappers in this process; returns their recorder."""
    rec = Recorder(traced)
    _install_fingerprint(rec)
    if traced:
        install_timers(rec)
    return rec


# -- per-layer metrics from spans -------------------------------------------

#: Layer time metrics: (metric, span names, how).  ``total`` sums the
#: outermost spans of the layer; ``self`` subtracts their child spans.
_TIMES = (
    ("fith.run_s", ("fith.run",), "total"),
    ("smalltalk.compile_s", ("smalltalk.compile",), "total"),
    ("smalltalk.stackvm_s", ("smalltalk.stackvm",), "total"),
    ("core.run_s", ("core.run",), "self"),
    ("caches.probe_s", ("caches.probe",), "total"),
    ("trace.encode_s", ("trace.encode",), "total"),
    ("trace.open_s", ("trace.open",), "total"),
    ("store.load_s", ("store.load",), "total"),
    ("store.generate_s", ("store.generate",), "total"),
    ("result_cache.get_s", ("result_cache.get",), "total"),
    ("result_cache.put_s", ("result_cache.put",), "total"),
    ("sweep.run_sweep_s", ("sweep.run_sweep", "sweep.run_sweep+opt"),
     "total"),
    ("sweep.lru_replay_s", ("sweep.lru_replay",), "total"),
    ("sweep.next_use_s", ("sweep.next_use",), "total"),
    ("sweep.opt_self_s", ("sweep.run_sweep+opt",), "self"),
    ("planner.batch_s", ("planner.batch",), "total"),
)

_COUNTS = ("fith.events", "core.instructions", "core.sim_cycles",
           "trace.bytes", "store.hits", "store.misses", "result_cache.hits",
           "result_cache.misses", "sweep.refs", "planner.queries",
           "planner.replays", "planner.memory_hits", "planner.disk_hits",
           "planner.superset_hits", "planner.fallbacks",
           "planner.singleflight_shared")


def layer_metrics(spans: Iterable[Span], counts: Dict[str, float],
                  scale: Callable[[float], float] = lambda start: 1.0
                  ) -> Dict[str, float]:
    """Per-layer metrics of one op (or one run) from its spans.

    ``scale(start)`` is the normalization factor of the interval a span
    starts in; every duration is multiplied by it.
    """
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    duration = {span[0]: (span[3] - span[2]) * scale(span[2])
                for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] in by_id:
            child_time[span[4]] += duration[span[0]]

    def layer_ancestor(span, names) -> bool:
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = by_id.get(parent[4])
        return False

    def experiment_of(span) -> Optional[str]:
        node = span
        while node is not None:
            if node[1].startswith("experiments."):
                return node[0]
            node = by_id.get(node[4])
        return None

    metrics: Dict[str, float] = {}
    for metric, names, how in _TIMES:
        total = 0.0
        for span in spans:
            if span[1] not in names or layer_ancestor(span, names):
                continue
            total += duration[span[0]]
            if how == "self":
                total -= min(child_time[span[0]], duration[span[0]])
        metrics[metric] = total

    experiment_s = {exp_id: 0.0 for exp_id in EXPERIMENT_IDS}
    sweeps: Dict[int, int] = defaultdict(int)
    replayed: Dict[int, int] = defaultdict(int)
    replaying_sweeps = set()
    for span in spans:
        if span[1].startswith("experiments."):
            exp_id = span[1].split(".", 1)[1]
            experiment_s[exp_id] = experiment_s.get(exp_id, 0.0) \
                + duration[span[0]]
        elif span[1].startswith("sweep.run_sweep"):
            owner = experiment_of(span)
            if owner is not None:
                sweeps[owner] += 1
        elif span[1] == "sweep.lru_replay":
            owner = experiment_of(span)
            if owner is not None:
                replayed[owner] += 1
            node = by_id.get(span[4])
            while node is not None and \
                    not node[1].startswith("sweep.run_sweep"):
                node = by_id.get(node[4])
            if node is not None:
                replaying_sweeps.add(node[0])
    for exp_id, seconds in experiment_s.items():
        metrics[f"experiments.{exp_id}_s"] = seconds
    metrics["experiments.cache_served"] = sum(
        1 for owner, count in sweeps.items() if not replayed.get(owner))
    metrics["sweep.replays"] = len(replaying_sweeps)
    metrics["caches.probes"] = sum(1 for span in spans
                                   if span[1] == "caches.probe")

    for key in _COUNTS:
        metrics[key] = counts.get(key, 0)
    metrics["fith.events_per_s"] = _rate(metrics["fith.events"],
                                         metrics["fith.run_s"])
    core_total = sum(duration[span[0]] for span in spans
                     if span[1] == "core.run"
                     and not layer_ancestor(span, ("core.run",)))
    metrics["core.instructions_per_s"] = _rate(metrics["core.instructions"],
                                               core_total)
    metrics["sweep.lru_refs_per_s"] = _rate(metrics["sweep.refs"],
                                            metrics["sweep.lru_replay_s"])
    metrics["planner.queries_per_replay"] = _rate(metrics["planner.queries"],
                                                  metrics["planner.replays"])
    for cache in ("itlb", "icache"):
        hits = counts.get(f"caches.{cache}_hits", 0)
        misses = counts.get(f"caches.{cache}_misses", 0)
        metrics[f"caches.{cache}_hit_ratio"] = _rate(hits, hits + misses)
    return metrics


def covered(spans: Iterable[Span], start: float, end: float) -> float:
    """Seconds of [start, end] inside at least one span."""
    intervals = sorted((max(s[2], start), min(s[3], end)) for s in spans
                       if s[3] > start and s[2] < end)
    total = 0.0
    reach = start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
