"""Output checks, run outside every timed interval.

Each check returns a list of failure messages; an empty list passes.
A failed check fails its op, and the messages go to stderr.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

#: sha256 over every claim's status, paper and measured lines of
#: ``repro run`` (full scale), in order.  The paper's suite is fixed, so
#: this never depends on the seed; it changes only if a claim's
#: measured value does.
CLAIMS_DIGEST = ("a6c8eb0bc30c75b03222f2a682d722450a34b553b9fa4773fa9d502e"
                 "79341778")
CLAIMS_TOTAL = 27

_CLAIM = re.compile(r"^\s+\[(REPRODUCED|DIVERGES)\] ")
_DETAIL = re.compile(r"^\s+(paper|measured): ")


def claim_lines(stdout: str) -> List[str]:
    """The claim blocks of a ``repro run`` transcript.  Timing lines
    ("took Ns", the summary's wall time) are not part of them."""
    lines = []
    for line in stdout.splitlines():
        if _CLAIM.match(line) or _DETAIL.match(line):
            lines.append(line.strip())
    return lines


def claims_digest(stdout: str) -> str:
    return hashlib.sha256(
        "\n".join(claim_lines(stdout)).encode()).hexdigest()


def check_claims(stdout: str, returncode: int,
                 expected: str = CLAIMS_DIGEST) -> List[str]:
    problems = []
    if returncode != 0:
        problems.append(f"repro run exited with {returncode}")
    reproduced = sum(1 for line in claim_lines(stdout)
                     if line.startswith("[REPRODUCED]"))
    if reproduced != CLAIMS_TOTAL:
        problems.append(f"{reproduced}/{CLAIMS_TOTAL} claims reproduced")
    digest = claims_digest(stdout)
    if digest != expected:
        problems.append(f"claims digest {digest} != {expected}")
    return problems


# -- sweep-explore: answered cells against the grid oracle -------------------

def answered_cells(batches: Sequence[dict], results: Sequence
                   ) -> List[Tuple[int, int, object, int, bool]]:
    """Every (batch, query, associativity, size, is_opt) cell the run
    answered."""
    cells = []
    for b, result in enumerate(results):
        for q, surface in enumerate(result.surfaces):
            for assoc, row in surface.counts.items():
                cells.extend((b, q, assoc, size, False) for size in row)
            if surface.opt_counts is not None:
                cells.extend((b, q, None, size, True)
                             for size in surface.opt_counts)
    return cells


def oracle_cell(spec, trace, assoc, size, opt: bool) -> Tuple[int, int]:
    """(hits, misses) of one cell from the per-configuration grid
    engine, on a trace copy without a store stamp (so no cache
    answers)."""
    from repro.sweep.runner import run_sweep
    if opt:
        cell = replace(spec, sizes=(size,), associativities=(1,),
                       include_full=False, include_opt=True, engine="grid")
        return tuple(run_sweep(cell, trace).opt_counts[size])
    if assoc == "full":
        cell = replace(spec, sizes=(size,), associativities=("full",),
                       include_full=False, include_opt=False,
                       engine="grid")
    else:
        cell = replace(spec, sizes=(size,), associativities=(assoc,),
                       include_full=False, include_opt=False,
                       engine="grid")
    return tuple(run_sweep(cell, trace).counts[assoc][size])


def check_sweep_cells(batches, queries, results, traces: Dict[str, object],
                      seed: int, samples: int, opt_samples: int
                      ) -> List[Tuple[int, str]]:
    """A seeded sample of answered cells, LRU and OPT, each bitwise
    equal to the grid engine's; returns ``(batch, message)`` per
    mismatch.  *traces* maps workload name to an unstamped trace."""
    rng = random.Random(f"oracle:{seed}")
    cells = answered_cells(batches, results)
    lru = [cell for cell in cells if not cell[4]]
    opt = [cell for cell in cells if cell[4]]
    picked = rng.sample(lru, min(samples, len(lru))) \
        + rng.sample(opt, min(opt_samples, len(opt)))
    problems = []
    for b, q, assoc, size, is_opt in picked:
        surface = results[b].surfaces[q]
        got = tuple(surface.opt_counts[size] if is_opt
                    else surface.counts[assoc][size])
        want = oracle_cell(queries[b][q].spec,
                           traces[batches[b]["workload"]], assoc, size,
                           is_opt)
        if got != want:
            problems.append((b, f"batch {b} query {q} "
                                f"{'OPT' if is_opt else assoc}@{size}: "
                                f"planner {got} != grid {want}"))
    return problems


# -- serve-mixed: replies against in-process planner.run_batch ---------------

def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def collect_answers(exchanges) -> Tuple[Dict[Tuple[str, str], str],
                                        List[str]]:
    """Distinct (workload, query) -> canonical answer over every
    reply; a query answered two different ways is a failure."""
    answers: Dict[Tuple[str, str], str] = {}
    problems = []
    for request, reply, _ in exchanges:
        for query, result in zip(request["queries"],
                                 reply.get("results") or ()):
            key = (request["workload"], canonical(query))
            answer = canonical(result.get("answer"))
            if answers.setdefault(key, answer) != answer:
                problems.append(f"{request['id']}: query {key[1]} answered "
                                f"differently from an earlier reply")
    return answers, problems


def check_serve_answers(answers: Dict[Tuple[str, str], str],
                        traces: Dict[str, object]) -> List[str]:
    """Each distinct query's served answer equals in-process
    ``planner.run_batch`` on the same (unstamped) trace."""
    from repro.sweep import planner
    by_trace: Dict[str, List[Tuple[str, str]]] = {}
    for workload, query in answers:
        by_trace.setdefault(workload, []).append((workload, query))
    problems = []
    for workload, keys in sorted(by_trace.items()):
        queries = [planner.query_from_request(json.loads(key[1]))
                   for key in keys]
        batch = planner.run_batch(queries, traces[workload],
                                  surface_cache=planner.SurfaceCache(0))
        for key, answer in zip(keys, batch.answers()):
            if canonical(answer) != answers[key]:
                problems.append(f"{workload}: served answer to {key[1]} "
                                f"differs from in-process run_batch")
    return problems
