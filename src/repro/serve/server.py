"""The asyncio TCP front-end: JSON-lines over a socket, one envelope per line.

The protocol is deliberately minimal - newline-delimited JSON envelopes,
so a client can be three lines of any language::

    {"kind": "query", "request": {"schema": "repro.serve/request@1",
                                  "op": "selection", "query_index": 3}}
    {"kind": "response", "response": {"schema": "repro.serve/response@1",
                                      "status": "ok", ...}}

Envelope kinds:

* ``query`` - execute the attached :class:`~repro.serve.schema.QueryRequest`;
* ``metrics`` - the service registry, both Prometheus text and the JSON
  snapshot, rendered from one read;
* ``health`` - readiness verdict, queue depth / inflight, per-op windowed
  latency and rates, SLO burn rates, firing alerts, worker heartbeats
  (:mod:`repro.serve.health`); always answerable, richest when the
  service runs with windowed health enabled;
* ``describe`` - the resident workload and service limits;
* ``ping`` - liveness (answers ``pong``);
* ``shutdown`` - acknowledge, then stop accepting connections.

The event loop parses, routes and takes each query's admission decision
at its arrival (:meth:`~repro.serve.service.QueryService.asubmit`, which
states the dispatch rule): a refusal is answered on the loop, a selection
the MBR filter settled on its last run executes there on a free engine,
and every other query runs on a thread pool sized to the service's
:attr:`~repro.serve.service.QueryService.capacity`.  So slow pipeline
work never blocks other connections' admission (which is how a shed
response can overtake a long-running query on the same socket server).
"""

from __future__ import annotations

import asyncio
import json
import socket
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from .schema import QueryRequest
from .service import QueryService

#: Envelope kinds the front-end answers.
KINDS = ("query", "metrics", "health", "describe", "ping", "shutdown")

#: Refuse single lines beyond this size (a malformed client, not a query).
MAX_LINE_BYTES = 1 << 20

#: Upper bound on the query offload threads (they are sized to the
#: service's capacity below it).
MAX_OFFLOAD_THREADS = 128


class ServeFrontend:
    """One TCP listener bound to one :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, min(service.capacity, MAX_OFFLOAD_THREADS)),
            thread_name_prefix="serve-exec",
        )
        self._shutdown = asyncio.Event()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve connections until a ``shutdown`` envelope arrives."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._shutdown.wait()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError:  # how readline() reports a line over its limit
                    await self._send(writer, _error("request line too long"))
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                reply = await self._dispatch(text)
                await self._send(writer, reply)
                if reply.get("kind") == "shutdown-ack":
                    self._shutdown.set()
                    break
        except ConnectionError:
            pass  # the client went away mid-read or mid-reply: nobody to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, text: str) -> Dict[str, Any]:
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            return _error(f"invalid JSON: {exc}")
        if not isinstance(envelope, dict):
            return _error("envelope must be a JSON object")
        kind = envelope.get("kind")
        if kind == "ping":
            return {"kind": "pong"}
        if kind == "describe":
            return {"kind": "describe", "info": self.service.describe()}
        if kind == "metrics":
            snapshot, text = self.service.registry.exposition()
            return {"kind": "metrics", "text": text, "snapshot": snapshot}
        if kind == "health":
            return {"kind": "health", "health": self.service.health()}
        if kind == "shutdown":
            return {"kind": "shutdown-ack"}
        if kind == "query":
            try:
                request = QueryRequest.from_dict(envelope.get("request", {}))
            except (ValueError, TypeError) as exc:
                return _error(f"bad request: {exc}")
            response = await self.service.asubmit(request, self._executor)
            return {"kind": "response", "response": response.to_dict()}
        return _error(f"unknown kind {kind!r}; expected one of {KINDS}")

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


def _error(message: str) -> Dict[str, Any]:
    return {"kind": "error", "error": message}


def run_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 8753
) -> None:
    """Blocking convenience runner for ``python -m repro.serve serve``."""

    async def _main() -> None:
        frontend = ServeFrontend(service, host=host, port=port)
        bound_host, bound_port = await frontend.start()
        print(f"repro.serve listening on {bound_host}:{bound_port}")
        try:
            await frontend.serve_until_shutdown()
        finally:
            await frontend.stop()

    asyncio.run(_main())


def send_envelope(
    host: str,
    port: int,
    envelope: Dict[str, Any],
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """Blocking one-shot client: send one envelope, read one reply.

    ``timeout`` bounds the connect and every socket read (``None`` =
    wait forever - the right choice against a server mid-way through a
    heavy join on a slow machine; the CLIs thread their ``--timeout``
    through here).  Used by tests, ``python -m repro.serve ping`` and
    ``python -m repro.serve top``; real clients should hold the
    connection open and pipeline envelopes.
    """
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(json.dumps(envelope).encode("utf-8") + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
    if not buf:
        raise ConnectionError("server closed the connection without replying")
    return json.loads(buf.decode("utf-8"))


__all__ = [
    "KINDS",
    "MAX_LINE_BYTES",
    "MAX_OFFLOAD_THREADS",
    "ServeFrontend",
    "run_server",
    "send_envelope",
]
