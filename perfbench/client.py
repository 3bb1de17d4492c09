"""Closed-loop JSON-lines client for ``repro serve``.

One asyncio loop in the benchmark process drives at most ``nproc``
connections; each sends its next request only after the previous
reply arrived.  Sockets are connected up front (no resolver thread),
so between blocks no thread but the main one is alive and
calibration may run.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time
from typing import Iterator, List, Tuple


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class ServeClient:
    """*connections* persistent connections to one server."""

    def __init__(self, port: int, connections: int,
                 host: str = "127.0.0.1") -> None:
        if not 1 <= connections <= nproc():
            raise ValueError(f"{connections} connections; the load "
                             f"generator opens 1..nproc ({nproc()})")
        self.loop = asyncio.new_event_loop()
        self.streams = []
        try:
            for _ in range(connections):
                sock = socket.create_connection((host, port), timeout=30)
                sock.setblocking(False)
                self.streams.append(self.loop.run_until_complete(
                    asyncio.open_connection(sock=sock)))
        except BaseException:
            self.close()
            raise

    def run(self, requests: List[dict]) -> List[Tuple[dict, dict, float]]:
        """Send every request, each connection taking the next one as
        soon as its previous reply arrived; returns ``(request, reply,
        latency seconds)`` per request, with nothing left in flight.
        Latency runs from the first byte sent to the whole reply read.
        """
        pending = iter(requests)
        done: List[Tuple[dict, dict, float]] = []

        async def all_connections():
            await asyncio.gather(*(
                self._connection(reader, writer, pending, done)
                for reader, writer in self.streams))
        self.loop.run_until_complete(all_connections())
        return done

    @staticmethod
    async def _connection(reader, writer, pending: Iterator[dict], done):
        for request in pending:
            line = json.dumps(request).encode() + b"\n"
            start = time.perf_counter()
            writer.write(line)
            await writer.drain()
            reply = await reader.readline()
            latency = time.perf_counter() - start
            if not reply:
                raise ConnectionError(
                    f"server closed the connection on {request['id']}")
            done.append((request, json.loads(reply), latency))

    def send(self, request: dict) -> dict:
        """One request on the first connection (setup warm-up)."""
        reader, writer = self.streams[0]

        async def exchange():
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            return await reader.readline()
        reply = self.loop.run_until_complete(exchange())
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        async def close_all():
            for _, writer in self.streams:
                writer.close()
            await asyncio.gather(*(writer.wait_closed()
                                   for _, writer in self.streams),
                                 return_exceptions=True)
        self.loop.run_until_complete(close_all())
        self.streams = []
        self.loop.close()
