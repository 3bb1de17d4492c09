"""Tests for the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import itertools
import json
import math
import socket
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import loadgen  # noqa: E402
from client import ServeClient, nproc  # noqa: E402


def _requests(seed, blocks=2):
    return [request for block in itertools.islice(
        loadgen.serve_blocks(seed), blocks) for request in block]


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert loadgen.sweep_batches(7, 2) == loadgen.sweep_batches(7, 2)
    assert loadgen.sweep_batches(7, 2) != loadgen.sweep_batches(8, 2)
    assert _requests(7) == _requests(7)
    assert _requests(7) != _requests(8)
    assert loadgen.popular_set(7) == loadgen.popular_set(7)


def test_sweep_queries_never_repeat_and_parse():
    from repro.sweep import planner
    from repro.sweep.runner import result_cache_key

    keys = set()
    for batch in loadgen.sweep_batches(3, 3):
        for query in batch["queries"]:
            spec = planner.query_from_request(query).spec
            keys.add((batch["workload"], result_cache_key(spec, "t")))
    groups = {(batch["workload"], query["warmup_fraction"],
               query["double_pass"], query["semantics"], query["cache"])
              for batch in loadgen.sweep_batches(3, 3)
              for query in batch["queries"]}
    assert len(groups) == 2 * len(loadgen.sweep_batches(3, 3))
    assert keys


def test_serve_blocks_have_one_fixed_novel_share():
    requests = _requests(5, 15)
    novel = [(request["workload"], json.dumps(query, sort_keys=True))
             for request in requests
             for query in request["queries"] if loadgen.is_novel(query)]
    assert len(novel) == len(set(novel)) == len(requests) // 20
    for block in itertools.islice(loadgen.serve_blocks(5), 3):
        combos = {(request["workload"], request["queries"][0]["cache"])
                  for request in block
                  if loadgen.is_novel(request["queries"][0])}
        assert len(combos) == len(loadgen.SMALL_TRACES) \
            * len(loadgen.CACHES)


class _CountingServer:
    """Answers every JSON line with ok:true; counts connections."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self.accepted = 0
        self.threads = []
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            worker = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            worker.start()
            self.threads.append(worker)

    @staticmethod
    def _serve(conn):
        with conn, conn.makefile("rwb") as stream:
            for line in stream:
                request = json.loads(line)
                stream.write(json.dumps({"id": request["id"], "ok": True})
                             .encode() + b"\n")
                stream.flush()

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        for thread in [self.thread] + self.threads:
            thread.join(5)
            assert not thread.is_alive()


def test_load_generator_opens_at_most_nproc_connections():
    server = _CountingServer()
    try:
        with pytest.raises(ValueError):
            ServeClient(server.port, nproc() + 1)
        client = ServeClient(server.port, min(2, nproc()))
        done = client.run(_requests(1, 1))
        client.close()
        assert done
        assert server.accepted == min(2, nproc()) <= nproc()
    finally:
        server.close()


def _transcript(measured="0.9988"):
    lines = []
    for index in range(checks.CLAIMS_TOTAL):
        lines += [f"  [REPRODUCED] claim {index}",
                  "               paper: >= 0.99",
                  f"               measured: {measured if index == 3 else index}",
                  f"(EXP-{index} took 0.{index % 10}s)"]
    return "\n".join(lines)


def test_claims_check_fails_on_one_wrong_claim():
    good = _transcript()
    digest = checks.claims_digest(good)
    assert checks.check_claims(good, 0, expected=digest) == []
    assert checks.claims_digest(good.replace("took 0.1s", "took 9.9s")) \
        == digest
    assert checks.check_claims(_transcript("0.9987"), 0, expected=digest)
    assert checks.check_claims(
        good.replace("[REPRODUCED] claim 5", "[DIVERGES] claim 5"), 0,
        expected=digest)
    assert checks.check_claims(good, 1, expected=digest)


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    from repro.trace.columnar import Trace
    from repro.workloads.store import TraceStore

    store = TraceStore(tmp_path_factory.mktemp("store"))
    events = store.load("redefine-churn")
    yield Trace.from_bytes(events.to_bytes())
    store.close()


def _batch(trace):
    from repro.sweep import planner

    batch = {"workload": "redefine-churn", "queries": [
        {"kind": "sweep", "cache": "itlb", "sizes": [8, 16],
         "associativities": [1, 2], "full": True, "opt": True,
         "warmup_fraction": 0.3},
        {"kind": "stats", "cache": "itlb", "size": 16, "associativity": 2,
         "warmup_fraction": 0.3, "double_pass": True}]}
    queries = [planner.query_from_request(q) for q in batch["queries"]]
    result = planner.run_batch(queries, trace,
                               surface_cache=planner.SurfaceCache(0))
    return [batch], [queries], [result]


def test_sweep_cell_check_fails_on_one_wrong_cell(small_trace):
    batches, queries, results = _batch(small_trace)
    cells = len(checks.answered_cells(batches, results))
    traces = {"redefine-churn": small_trace}
    assert checks.check_sweep_cells(batches, queries, results, traces, 1,
                                    cells, cells) == []
    surface = results[0].surfaces[0]
    hits, misses = surface.counts[2][16]
    surface.counts[2][16] = (hits + 1, misses - 1)
    problems = checks.check_sweep_cells(batches, queries, results, traces,
                                        1, cells, cells)
    assert len(problems) == 1 and problems[0][0] == 0
    surface.counts[2][16] = (hits, misses)
    surface.opt_counts[8] = (surface.opt_counts[8][0] - 1,
                             surface.opt_counts[8][1] + 1)
    assert len(checks.check_sweep_cells(batches, queries, results, traces,
                                        1, cells, cells)) == 1


def test_serve_answer_check_fails_on_one_wrong_answer(small_trace):
    batches, _, results = _batch(small_trace)
    request = dict(batches[0], id="r1")
    reply = {"ok": True, "results": [{"ok": True, "answer": answer}
                                     for answer in results[0].answers()]}
    exchanges = [(request, json.loads(json.dumps(reply)), 0.001)]
    answers, problems = checks.collect_answers(exchanges)
    traces = {"redefine-churn": small_trace}
    assert problems == []
    assert checks.check_serve_answers(answers, traces) == []
    wrong = json.loads(json.dumps(reply))
    wrong["results"][1]["answer"]["hits"] += 1
    answers, _ = checks.collect_answers([(request, wrong, 0.001)])
    assert len(checks.check_serve_answers(answers, traces)) == 1
    _, problems = checks.collect_answers(exchanges
                                         + [(request, wrong, 0.001)])
    assert len(problems) == 1


def test_normalization_is_raw_times_nominal_over_adjacent():
    adjacent = math.sqrt(0.004 * 0.009)
    assert calib.normalize(2.0, 0.004, 0.009, nominal=0.006) \
        == pytest.approx(2.0 * 0.006 / adjacent)
    cal = calib.Calibrator()
    before = cal.mark()
    factor = cal.close()
    after = calib.median(cal.brackets[-1])
    assert factor == pytest.approx(calib.CAL_NOMINAL_S
                                   / math.sqrt(before * after))
    assert len(cal.brackets) == 2


def test_calibration_refuses_while_a_thread_is_alive():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with pytest.raises(calib.ProgramThreadAlive):
            calib.bracket()
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert len(calib.bracket(2)) == 2
