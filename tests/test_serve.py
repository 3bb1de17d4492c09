"""The async serving front-end (repro.serve / ``repro serve``).

Everything runs against a real :class:`SweepServer` bound to an
ephemeral localhost port inside ``asyncio.run`` -- the same listener,
framing sniff, planner hand-off and admission gate production uses.
Pins: JSONL and HTTP framings on one port, warm requests served from
cache, per-query and per-request error isolation, explicit overload
rejection, the one-probe hit path (answered inline, never replaying on
the event loop), the ``serve.request`` fault site, ``--max-requests``
shutdown, and the telemetry the report's serving section reads.
"""

import asyncio
import json
import threading

import pytest

from repro import faults, telemetry
from repro.faults import FaultPlan, FaultSpec
from repro.serve import SweepServer
from repro.sweep import planner
from repro.sweep.runner import _RESULT_CACHES, _result_cache
from repro.workloads.store import TraceStore


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    monkeypatch.delenv(faults.ENV_EPOCH, raising=False)
    monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv(planner.ENV_SURFACE_CACHE, raising=False)
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


#: A mixed, coalescable batch in wire format: two itlb queries that
#: share one superset replay, plus an icache point query.
QUERIES = [
    {"kind": "curve", "cache": "itlb", "associativity": 1,
     "sizes": [8, 16, 32]},
    {"kind": "isoratio", "cache": "itlb", "sizes": [8, 16, 32],
     "associativities": [1, 2], "target": 0.5},
    {"kind": "stats", "cache": "icache", "associativity": 2,
     "size": 64},
]


def _request(queries=None, **extra):
    body = {"id": "r1", "workload": "monomorphic", "quick": True,
            "queries": QUERIES if queries is None else queries}
    body.update(extra)
    return body


async def _jsonl(port, *requests):
    """Send request dicts down one JSONL connection; list of replies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    try:
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
    finally:
        writer.close()
    return replies


async def _http(port, method, body=None):
    """One HTTP exchange; returns (status_code, parsed_body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        blob = json.dumps(body).encode() if body is not None else b""
        writer.write(
            f"{method} / HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(blob)}\r\n\r\n".encode() + blob)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload)


def _serve(tmp_path, coro_factory, **server_kwargs):
    """Run *coro_factory(server, port)* against a live server."""
    async def main():
        server = SweepServer(TraceStore(tmp_path), **server_kwargs)
        port = await server.start()
        try:
            return await coro_factory(server, port)
        finally:
            await server.close()
    return asyncio.run(main())


class TestJsonLines:
    def test_cold_request_coalesces_and_answers_in_order(self,
                                                         tmp_path):
        async def scenario(server, port):
            (reply,) = await _jsonl(port, _request())
            return reply

        reply = _serve(tmp_path, scenario)
        assert reply["ok"] and reply["id"] == "r1"
        assert reply["workload"] == "monomorphic"
        kinds = [entry["kind"] for entry in reply["results"]]
        assert kinds == ["curve", "isoratio", "stats"]
        assert all(entry["ok"] for entry in reply["results"])
        assert reply["results"][0]["answer"]["points"]
        assert reply["results"][1]["answer"]["thresholds"]
        assert "hits" in reply["results"][2]["answer"]
        stats = reply["stats"]
        assert stats["queries"] == 3
        # Two itlb queries share one replay; the icache query is its
        # own group.
        assert stats["replays"] == 2
        assert stats["coalesced"] == 2
        assert stats["served_from_cache"] == 0

    def test_warm_request_is_served_from_cache(self, tmp_path):
        async def scenario(server, port):
            return await _jsonl(port, _request(), _request(id="r2"))

        cold, warm = _serve(tmp_path, scenario)
        assert cold["stats"]["replays"] == 2
        assert warm["stats"]["replays"] == 0
        assert warm["stats"]["served_from_cache"] == 3
        # Warm answers are byte-identical to cold ones.
        assert warm["results"] == cold["results"]

    def test_malformed_query_fails_alone(self, tmp_path):
        async def scenario(server, port):
            (reply,) = await _jsonl(port, _request(
                queries=QUERIES[:1] + [{"kind": "stats",
                                        "cache": "l4"}]))
            return reply

        reply = _serve(tmp_path, scenario)
        assert reply["ok"]
        good, bad = reply["results"]
        assert good["ok"]
        assert not bad["ok"] and "cache kind" in bad["error"]

    def test_malformed_request_fails_alone(self, tmp_path):
        async def scenario(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b"this is not json\n")
            writer.write(json.dumps(_request()).encode() + b"\n")
            await writer.drain()
            bad = json.loads(await reader.readline())
            good = json.loads(await reader.readline())
            writer.close()
            return bad, good, server.errors

        bad, good, errors = _serve(tmp_path, scenario)
        assert not bad["ok"] and "bad request" in bad["error"]
        assert good["ok"]
        assert errors == 1

    def test_empty_queries_list_is_an_error(self, tmp_path):
        async def scenario(server, port):
            (reply,) = await _jsonl(port, _request(queries=[]))
            return reply

        reply = _serve(tmp_path, scenario)
        assert not reply["ok"]
        assert "non-empty 'queries'" in reply["error"]


class TestHttp:
    def test_post_and_health_share_the_port(self, tmp_path):
        async def scenario(server, port):
            status, body = await _http(port, "POST", _request())
            health_status, health = await _http(port, "GET")
            return status, body, health_status, health

        status, body, health_status, health = _serve(tmp_path, scenario)
        assert status == 200
        assert body["ok"] and len(body["results"]) == 3
        assert health_status == 200
        assert health["ok"] and health["queue_limit"] == 4
        assert health["requests"] == 1

    def test_bad_post_is_a_400(self, tmp_path):
        async def scenario(server, port):
            return await _http(port, "POST", {"id": "r9",
                                              "queries": "nope"})

        status, body = _serve(tmp_path, scenario)
        assert status == 400
        assert not body["ok"]


class TestAdmissionControl:
    def test_uncached_request_is_rejected_at_zero_limit(self, tmp_path):
        async def scenario(server, port):
            (reply,) = await _jsonl(port, _request())
            status, body = await _http(port, "POST", _request())
            return reply, status, body, server.rejected

        reply, status, body, rejected = _serve(tmp_path, scenario,
                                               queue_limit=0)
        assert not reply["ok"]
        assert reply["status"] == "overloaded"
        assert "retry" in reply["error"]
        assert status == 503 and body["status"] == "overloaded"
        assert rejected == 2

    def test_cached_request_bypasses_the_replay_gate(self, tmp_path):
        # Warm the caches with a normal server, then serve the same
        # batch at queue_limit=0: pure cache reads need no slot.
        async def scenario(server, port):
            return await _jsonl(port, _request())

        _serve(tmp_path, scenario)  # warm (shared default SurfaceCache)

        (reply,) = _serve(tmp_path, scenario, queue_limit=0)
        assert reply["ok"]
        assert reply["stats"]["replays"] == 0
        assert reply["stats"]["served_from_cache"] == 3


class TestHitPath:
    """One probe decides admission and supplies the answers."""

    def test_warm_request_is_answered_inline_without_a_load(
            self, tmp_path, monkeypatch):
        loads = []
        original = TraceStore.load

        def counting_load(store, *args, **kwargs):
            loads.append(threading.get_ident())
            return original(store, *args, **kwargs)

        monkeypatch.setattr(TraceStore, "load", counting_load)

        async def scenario(server, port):
            return await _jsonl(port, _request(), _request(id="r2"))

        cold, warm = _serve(tmp_path, scenario)
        assert cold["stats"]["inline"] is False
        assert warm["stats"]["inline"] is True
        # Only the cold request opened the trace; the warm one found
        # it open and never took the executor.
        assert len(loads) == 1
        assert loads[0] != threading.get_ident()

    def test_probed_answers_survive_eviction_before_projection(
            self, tmp_path, monkeypatch):
        memory = planner.SurfaceCache()

        async def scenario(server, port):
            return await _jsonl(port, _request())

        (cold,) = _serve(tmp_path, scenario, surface_cache=memory)
        probe_batch = planner.probe_batch

        def probe_then_evict(queries, events, **kwargs):
            probe = probe_batch(queries, events, **kwargs)
            # Both tiers lose every entry after the probe has read them.
            memory.budget_bytes = 0
            memory.put("evict-everything", {"n": 0})
            assert len(memory) == 0
            _result_cache(events.store_root).clear()
            return probe

        monkeypatch.setattr(planner, "probe_batch", probe_then_evict)
        (warm,) = _serve(tmp_path, scenario, surface_cache=memory,
                         queue_limit=0)
        assert warm["ok"], warm
        assert warm["stats"]["inline"] is True
        assert warm["stats"]["replays"] == 0
        assert warm["stats"]["served_from_cache"] == 3
        assert warm["results"] == cold["results"]

    def test_no_replay_ever_runs_on_the_event_loop(self, tmp_path,
                                                    monkeypatch):
        ran_on = []
        run_sweep = planner.run_sweep

        def recording_run_sweep(spec, events):
            ran_on.append(threading.get_ident())
            return run_sweep(spec, events)

        monkeypatch.setattr(planner, "run_sweep", recording_run_sweep)
        novel = {"kind": "ratio", "cache": "itlb", "associativity": 2,
                 "size": 16, "warmup_fraction": 0.125}
        fallback = {"kind": "stats", "cache": "itlb", "associativity": 1,
                    "size": 8, "engine": "grid"}

        async def scenario(server, port):
            replies = await _jsonl(
                port, _request(), _request(id="r2"),
                _request(id="r3", queries=QUERIES + [novel]),
                _request(id="r4", queries=[fallback]))
            return replies, threading.get_ident()

        replies, loop_thread = _serve(tmp_path, scenario)
        assert all(reply["ok"] for reply in replies)
        assert [reply["stats"]["inline"] for reply in replies] \
            == [False, True, False, False]
        assert replies[2]["stats"]["replays"] == 1
        assert replies[3]["stats"]["fallbacks"] == 1
        assert ran_on and loop_thread not in ran_on

    def test_partially_cached_request_takes_the_gate(self, tmp_path):
        async def warm(server, port):
            return await _jsonl(port, _request())

        _serve(tmp_path, warm)
        novel = {"kind": "ratio", "cache": "icache", "associativity": 1,
                 "size": 32, "warmup_fraction": 0.375}

        async def scenario(server, port):
            return await _jsonl(port,
                                _request(queries=QUERIES + [novel]))

        (reply,) = _serve(tmp_path, scenario, queue_limit=0)
        assert reply["status"] == "overloaded"


class TestFaultSite:
    def test_corrupted_request_bytes_become_bad_requests(self,
                                                         tmp_path):
        faults.install(FaultPlan(seed=3, specs=(
            FaultSpec(site="serve.request", kind="corrupt"),)))

        async def scenario(server, port):
            (reply,) = await _jsonl(port, _request())
            return reply, server.errors

        reply, errors = _serve(tmp_path, scenario)
        # A flipped bit either breaks the JSON (bad request) or lands
        # in a field value (a per-query error / normal answer); the
        # connection and the server survive regardless.
        assert isinstance(reply, dict)
        assert errors <= 1

    def test_io_error_fault_is_an_error_response(self, tmp_path):
        faults.install(FaultPlan(seed=3, specs=(
            FaultSpec(site="serve.request", kind="io-error"),)))

        async def scenario(server, port):
            (reply,) = await _jsonl(port, _request())
            return reply, server.errors

        reply, errors = _serve(tmp_path, scenario)
        assert not reply["ok"]
        assert "bad request" in reply["error"]
        assert errors == 1


class TestLifecycle:
    def test_max_requests_stops_the_server(self, tmp_path):
        async def main():
            server = SweepServer(TraceStore(tmp_path), max_requests=2)
            port = await server.start()
            runner = asyncio.ensure_future(server._done.wait())
            await _jsonl(port, _request(), _request(id="r2"))
            await asyncio.wait_for(runner, timeout=10)
            await server.close()
            return server.requests_served

        assert asyncio.run(main()) == 2

    def test_counters_feed_the_report_serving_section(self, tmp_path):
        telemetry.install(tmp_path / "run" / "telemetry", fresh=True)

        async def scenario(server, port):
            await _jsonl(port, _request(), _request(id="r2"))

        _serve(tmp_path, scenario)
        telemetry.finalize()
        telemetry.install(None)

        from repro.telemetry import report as telemetry_report
        data = telemetry_report.load_run(tmp_path / "run")
        report = telemetry_report.build_report(data)
        serving = report["serving"]
        assert serving["requests"] == 2
        assert serving["queries"] == 6
        assert serving["replays"] == 2
        assert serving["coalesced"] == 2
        assert serving["cache_hits_memory"] == 3
        assert serving["inline"] == 1
        # Replay observations: the itlb group answered 2 queries, the
        # icache group 1 -- mean 1.5.
        assert serving["queries_per_replay"] == 1.5
        text = telemetry_report.render(report)
        assert "query planner / serving:" in text
