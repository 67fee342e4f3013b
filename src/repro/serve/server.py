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

Each connection is one :class:`asyncio.Protocol`, with no task and no
stream: ``data_received`` splits the bytes into lines, and the event loop
parses, routes and takes each query's admission decision at its arrival
(:meth:`~repro.serve.service.QueryService.dispatch`, which states the
dispatch rule).  A reply the loop can give - every non-query envelope, a
refusal, a selection whose last run computed nothing, on a free engine -
is decided, executed and written in that same callback.  Every other
query runs on a thread pool sized to the service's
:attr:`~repro.serve.service.QueryService.capacity`; its reply is written
from its future's done-callback, and the connection then answers the
lines that arrived behind it, so replies keep their per-connection order.
Slow pipeline work never blocks other connections' admission (which is
how a shed response can overtake a long-running query on the same socket
server).

A connection stops reading while its unwritten replies are above the
transport's high-water mark, and while it holds more than
``MAX_LINE_BYTES`` of lines waiting behind an offloaded query.  A line
over ``MAX_LINE_BYTES`` is answered with an error envelope, and the
connection is closed.  At end of input an unterminated last line is still
answered, then the connection closes once every reply is written.  A
client that goes away is dropped quietly: a reply owed to it is not
written.
"""

from __future__ import annotations

import asyncio
import json
import socket
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Deque, Dict, Optional, Tuple, Union

from .schema import QueryRequest, QueryResponse
from .service import QueryService

#: Envelope kinds the front-end answers.
KINDS = ("query", "metrics", "health", "describe", "ping", "shutdown")

#: Refuse single lines beyond this size (a malformed client, not a query).
MAX_LINE_BYTES = 1 << 20

#: Upper bound on the query offload threads (they are sized to the
#: service's capacity below it).
MAX_OFFLOAD_THREADS = 128


#: What :meth:`ServeFrontend._reply` gives for one line: no reply (a blank
#: line), an envelope to write now, or the future of an offloaded query.
_Reply = Union[None, Dict[str, Any], "asyncio.Future[QueryResponse]"]


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
        #: The open connections, closed by :meth:`stop` (a closed one
        #: drops out on its own).
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
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
            for connection in list(self._connections):
                connection._transport.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)

    # -- one line ---------------------------------------------------------

    def _reply(self, line: bytes) -> _Reply:
        """Route one line on the loop thread (see :data:`_Reply`)."""
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            return None
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
            self._shutdown.set()
            return {"kind": "shutdown-ack"}
        if kind == "query":
            try:
                request = QueryRequest.from_dict(envelope.get("request", {}))
            except (ValueError, TypeError) as exc:
                return _error(f"bad request: {exc}")
            placed = self.service.dispatch(request, self._executor)
            if isinstance(placed, QueryResponse):
                return _response(placed)
            return placed
        return _error(f"unknown kind {kind!r}; expected one of {KINDS}")


class _Connection(asyncio.Protocol):
    """One client connection: its lines answered in arrival order, one
    reply each, from the loop's callbacks."""

    def __init__(self, frontend: ServeFrontend) -> None:
        self._frontend = frontend
        self._transport: Any = None
        #: Received bytes after the last newline.
        self._partial = bytearray()
        #: Complete lines not answered yet; ``None`` stands for a line over
        #: ``MAX_LINE_BYTES``, after which nothing more is read.
        self._lines: Deque[Optional[bytes]] = deque()
        #: Bytes of the lines in ``_lines``.
        self._held = 0
        #: An offloaded query's reply is owed: the lines behind it wait.
        self._owed = False
        self._write_paused = False
        self._done_reading = False

    # -- transport callbacks ----------------------------------------------

    def connection_made(self, transport: Any) -> None:
        self._transport = transport
        self._frontend._connections.add(self)

    def data_received(self, data: bytes) -> None:
        if self._done_reading:
            return
        buf = self._partial
        seen = len(buf)
        buf += data
        start = 0
        end = buf.find(b"\n", seen)
        while end >= 0 and self._push(buf[start:end]):
            start = end + 1
            end = buf.find(b"\n", start)
        if not self._done_reading:
            del buf[:start]
            if len(buf) > MAX_LINE_BYTES:
                self._push(buf)
        self._answer()

    def eof_received(self) -> bool:
        # An unterminated last line is answered as if it were terminated.
        self.data_received(b"\n")
        self._done_reading = True
        self._answer()
        return True  # keep the transport: _answer closes it when all is written

    def pause_writing(self) -> None:
        self._write_paused = True
        self._pace()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._answer()

    # -- answering --------------------------------------------------------

    def _push(self, line: bytearray) -> bool:
        """Queue one line; False (and no more reading) when it is too long."""
        if len(line) > MAX_LINE_BYTES:
            self._lines.append(None)
            self._done_reading = True
            self._partial.clear()
            return False
        self._lines.append(bytes(line))
        self._held += len(line)
        return True

    def _answer(self) -> None:
        """Answer the waiting lines in order until one is offloaded, the
        replies back up or the connection closes; close it once the input
        has ended and every reply is written."""
        transport, lines = self._transport, self._lines
        while lines and not (self._owed or self._write_paused or transport.is_closing()):
            line = lines.popleft()
            if line is None:
                self._send(_error("request line too long"))
                transport.close()
                return
            self._held -= len(line)
            reply = self._frontend._reply(line)
            if isinstance(reply, asyncio.Future):
                self._owed = True
                reply.add_done_callback(self._offloaded)
            elif reply is not None:
                self._send(reply)
                if reply["kind"] == "shutdown-ack":
                    transport.close()
        if self._done_reading and not lines and not self._owed:
            transport.close()
        self._pace()

    def _offloaded(self, future: "asyncio.Future[QueryResponse]") -> None:
        """An offloaded query's done-callback: its reply, then the lines
        that arrived behind it."""
        self._owed = False
        try:
            reply = _response(future.result())
        except Exception as exc:  # the service failed, not the request
            reply = _error(f"{type(exc).__name__}: {exc}")
        if not self._transport.is_closing():  # the client may have gone
            self._send(reply)
        self._answer()

    def _send(self, payload: Dict[str, Any]) -> None:
        self._transport.write(json.dumps(payload).encode("utf-8") + b"\n")

    def _pace(self) -> None:
        """Read only while the replies are below the transport's
        high-water mark and the lines held behind an offloaded query are
        within ``MAX_LINE_BYTES``."""
        transport = self._transport
        if self._done_reading or transport.is_closing():
            return
        full = self._write_paused or self._held > MAX_LINE_BYTES
        if full and transport.is_reading():
            transport.pause_reading()
        elif not full and not transport.is_reading():
            transport.resume_reading()


def _response(response: QueryResponse) -> Dict[str, Any]:
    return {"kind": "response", "response": response.to_dict()}


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
