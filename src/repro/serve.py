"""``repro serve``: an asyncio front-end for batched sweep queries.

The serving half of the "millions of users" story: many cheap cached
reads, few expensive replays, and admission control between them.
One process owns the trace store, the in-memory
:class:`~repro.sweep.planner.SurfaceCache` and the disk result cache;
clients send *batches* of queries and the
:func:`~repro.sweep.planner.run_batch` planner answers each batch
with as few trace replays as the coalescing rules allow.

Protocol
--------

JSON lines over a plain socket -- one request object per line, one
response object per line::

    {"id": "r1", "workload": "paper", "quick": true,
     "queries": [
       {"kind": "curve", "cache": "itlb", "associativity": 2,
        "warmup_fraction": 0.25, "double_pass": false},
       {"kind": "isoratio", "cache": "icache", "target": 0.99,
        "warmup_fraction": 0.25, "double_pass": false}]}

    {"id": "r1", "ok": true, "results": [...], "stats": {...}}

The same JSON body over ``HTTP POST /`` works too (``GET /`` answers
a health document); the listener sniffs the first line, so one port
serves both framings.  Malformed queries fail individually (an error
entry in ``results``), a malformed request fails alone, and neither
takes the connection down.

Admission control
-----------------

Each request is probed once (:func:`~repro.sweep.planner.probe_batch`:
memory tier, then disk tier), and that one probe both decides
admission and supplies the answers.  A request whose every query
the probe answered takes no replay slot and is counted as
``serve.inline`` (``"inline": true`` in its stats); when its trace is
already open (:meth:`~repro.workloads.store.TraceStore.peek`) it is
served in one synchronous pass on the event loop, with no thread hop.
Only work that can block takes the executor: the first load of a
trace, and replays.  A request with any miss goes through a
bounded replay gate, which sends just its pending groups
(:func:`~repro.sweep.planner.replay_batch`) to the executor: at most
``queue_limit`` replaying requests at a time, the rest rejected
*explicitly* (``"status": "overloaded"``, HTTP 503, the
``serve.rejected`` counter) rather than queued into memory until the
process dies.  The current depth is the ``serve.queue_depth`` gauge.
An entry evicted after the probe changes nothing: the probe already
holds its decoded surface.

Every request passes the ``serve.request`` fault-injection site
(payload kinds mangle the raw request bytes, exercising the
bad-request path) and the whole pipeline is visible in
``repro report``'s serving section.
"""

from __future__ import annotations

import asyncio
import functools
import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro import faults, telemetry
from repro.sweep import planner
from repro.workloads.store import TraceStore

#: Concurrent replaying requests admitted before overload rejection
#: kicks in, when ``--queue-limit`` is not given.
DEFAULT_QUEUE_LIMIT = 4


class SweepServer:
    """One serving process: listener, planner, caches, admission."""

    def __init__(self, store: Optional[TraceStore] = None, *,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 max_requests: Optional[int] = None,
                 surface_cache: Optional[planner.SurfaceCache] = None
                 ) -> None:
        self.store = store if store is not None else TraceStore(None)
        self.queue_limit = max(0, queue_limit)
        self.max_requests = max_requests
        self.surface_cache = surface_cache \
            if surface_cache is not None \
            else planner.default_surface_cache()
        self.requests_served = 0
        self.rejected = 0
        self.errors = 0
        self._replaying = 0
        self._sequence = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._done = asyncio.Event()

    # -- lifecycle -------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> int:
        """Bind and listen; returns the actual port (0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._on_connect, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def run(self, host: str, port: int) -> int:
        """Start, announce, serve until done (``--max-requests``) or
        cancelled, then close.  Returns the bound port."""
        bound = await self.start(host, port)
        print(f"serving on {host}:{bound} "
              f"(queue limit {self.queue_limit}"
              + (f", exiting after {self.max_requests} request(s)"
                 if self.max_requests else "") + ")",
              flush=True)
        try:
            await self._done.wait()
        finally:
            await self.close()
        return bound

    def _request_finished(self) -> None:
        self.requests_served += 1
        if self.max_requests is not None \
                and self.requests_served >= self.max_requests:
            self._done.set()

    # -- connection handling ---------------------------------------------

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"POST", b"PUT",
                                           b"HEAD"):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_jsonl(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown (--max-requests reached, ^C) while this
            # connection sat in readline(): close the socket quietly.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_jsonl(self, first: bytes,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        line = first
        while line:
            if line.strip():
                response = await self._handle_line(line)
                writer.write(json.dumps(response, sort_keys=True,
                                        default=str).encode() + b"\n")
                await writer.drain()
                self._request_finished()
                if self._done.is_set():
                    return
            line = await reader.readline()

    async def _handle_http(self, request_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        method = request_line.split(b" ", 1)[0].decode("latin-1")
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        if method == "POST":
            body = await reader.readexactly(length) if length else b""
            response = await self._handle_line(body)
            status = "200 OK"
            if response.get("status") == "overloaded":
                status = "503 Service Unavailable"
            elif not response.get("ok", False):
                status = "400 Bad Request"
        else:  # health probe
            response = {"ok": True, "requests": self.requests_served,
                        "queue_depth": self._replaying,
                        "queue_limit": self.queue_limit}
            status = "200 OK"
        blob = json.dumps(response, sort_keys=True,
                          default=str).encode()
        writer.write(
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + blob)
        await writer.drain()
        if method == "POST":
            self._request_finished()

    # -- one request ------------------------------------------------------

    async def _handle_line(self, blob: bytes) -> dict:
        self._sequence += 1
        sequence = self._sequence
        telemetry.inc("serve.requests")
        with telemetry.span("serve.request", sequence=sequence):
            try:
                blob = faults.inject("serve.request", key=str(sequence),
                                     payload=blob)
                document = json.loads(blob.decode("utf-8"))
                if not isinstance(document, dict):
                    raise ValueError("request must be a JSON object")
            except Exception as error:
                self.errors += 1
                telemetry.inc("serve.errors")
                return {"ok": False, "status": "error",
                        "error": f"bad request: {error}"}
            try:
                return await self._answer(document)
            except Exception as error:
                self.errors += 1
                telemetry.inc("serve.errors")
                return {"id": document.get("id"), "ok": False,
                        "status": "error", "error": str(error)}

    async def _answer(self, document: dict) -> dict:
        request_id = document.get("id")
        raw_queries = document.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            return {"id": request_id, "ok": False, "status": "error",
                    "error": "request needs a non-empty 'queries' list"}
        results: List[Optional[dict]] = [None] * len(raw_queries)
        parsed: List[Tuple[int, planner.Query]] = []
        for slot, raw in enumerate(raw_queries):
            try:
                parsed.append((slot, planner.query_from_request(raw)))
            except (ValueError, TypeError) as error:
                results[slot] = {"ok": False, "error": str(error)}
        telemetry.inc("serve.queries", len(raw_queries))

        workload = document.get("workload", "paper")
        quick = bool(document.get("quick", False))
        scale = document.get("scale")
        params = document.get("params") or {}
        loop = asyncio.get_running_loop()
        events = self.store.peek(workload, quick=quick, scale=scale,
                                 **params)
        if events is None:
            events = await loop.run_in_executor(None, functools.partial(
                self.store.load, workload, quick=quick, scale=scale,
                **params))

        probe = planner.probe_batch([query for _, query in parsed],
                                    events,
                                    surface_cache=self.surface_cache)
        inline = not probe.pending
        if inline:
            telemetry.inc("serve.inline")
            batch = probe.result()
        else:
            if self._replaying >= self.queue_limit:
                self.rejected += 1
                telemetry.inc("serve.rejected")
                return {
                    "id": request_id, "ok": False,
                    "status": "overloaded",
                    "error": f"replay queue full "
                             f"({self._replaying} replaying, "
                             f"limit {self.queue_limit}); retry",
                }
            self._replaying += 1
            telemetry.gauge("serve.queue_depth", self._replaying)
            try:
                batch = await loop.run_in_executor(
                    None, functools.partial(planner.replay_batch, probe))
            finally:
                self._replaying -= 1
                telemetry.gauge("serve.queue_depth", self._replaying)
        for (slot, query), surface in zip(parsed, batch.surfaces):
            results[slot] = {"ok": True, "kind": query.kind,
                             "answer": query.answer(surface)}
        stats = batch.report.to_dict()
        stats["served_from_cache"] = (stats["cache_hits"]["memory"]
                                      + stats["cache_hits"]["disk"])
        stats["inline"] = inline
        return {"id": request_id, "ok": True, "workload": workload,
                "results": results, "stats": stats}


# -- CLI entry point -------------------------------------------------------

def serve_main(args) -> int:
    """The ``repro serve`` command (see cli.py for the parser)."""
    from repro.experiments.journal import default_root

    run_root = Path(args.run_dir) if args.run_dir else default_root()
    run_dir = run_root / "serve"
    if args.telemetry:
        telemetry.install(run_dir / "telemetry", fresh=True)
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "manifest.json").write_text(json.dumps(
            {"command": "serve", "host": args.host, "port": args.port,
             "queue_limit": args.queue_limit,
             "max_requests": args.max_requests,
             "trace_dir": args.trace_dir},
            indent=2, sort_keys=True) + "\n")
    server = SweepServer(TraceStore(args.trace_dir),
                         queue_limit=args.queue_limit,
                         max_requests=args.max_requests)
    try:
        asyncio.run(server.run(args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        if args.telemetry:
            telemetry.finalize()
            telemetry.install(None)
    print(f"served {server.requests_served} request(s), "
          f"{server.rejected} rejected, {server.errors} error(s)")
    return 0
