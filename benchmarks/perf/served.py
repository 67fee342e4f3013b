"""The ``serve-sel`` workload: a server child process and a closed loop.

The server is the shipped one, ``python -m repro.serve serve --scale
small --workers 2``, started as a subprocess on a free port.  The runner
is the only load generator: one process, two client threads, each with
one persistent TCP connection, each sending its next request only after
the previous reply arrived (closed loop: every connection is a caller
waiting for its answer; two clients = ``nproc``).  Runner and server are
pinned to one CPU (``_pin_to_one_cpu`` says why).

The server's resident data comes from its own presets, so the seed only
drives the request order: every segment sends the same multiset of
``query_index`` values (ten passes over the 31 resident queries), split
between the two clients in seeded order.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import IntersectionSelection, SoftwareEngine
from repro.bench.scales import get_scale
from repro.serve import QueryRequest

from spec import WORKLOADS, Workload

SCALE = "small"
CLIENTS = 2
SRC = Path(__file__).resolve().parents[2] / "src"

START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 10.0


class ServerProcess:
    """The server child: start, find its port, always stop it."""

    def __init__(self) -> None:
        self.port: Optional[int] = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "serve",
                "--scale", SCALE, "--workers", str(CLIENTS), "--port", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        """Parse ``... listening on host:port`` from the child's stdout.

        A watchdog kills a child that never prints it, which unblocks the
        ``readline`` with an empty string.
        """
        assert self.process.stdout is not None
        watchdog = threading.Timer(START_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start (printed {line!r})")
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """``shutdown`` envelope, then kill on timeout; waits for the exit."""
        process = self.process
        if process.poll() is None:
            if self.port is not None:
                try:
                    with Connection(self.port) as conn:
                        conn.call({"kind": "shutdown"})
                except (OSError, ValueError):
                    # Already going down; the wait below settles it.
                    pass
            else:
                process.kill()
            try:
                process.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


class Connection:
    """One persistent JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=REPLY_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(envelope).encode("utf-8") + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def selection_envelope(query_index: int) -> Dict[str, Any]:
    request = QueryRequest(op="selection", query_index=query_index)
    return {"kind": "query", "request": request.to_dict()}


def _pin_to_one_cpu() -> Optional[Set[int]]:
    """Pin this thread, and so every thread and child it starts from now
    on, to one CPU; the affinity to restore, or ``None`` if left alone.

    On this two-vCPU guest a wake-up that crosses vCPUs costs 0.5-1.5 ms
    and changes by the minute, so the unpinned median round trip read
    anywhere from 0.8 to 1.9 ms between adjacent segments; with runner and
    server on one CPU every hand-off is a context switch and it reads
    0.35-0.5 ms.  The server's workers share one GIL, so the second CPU
    was buying no throughput either.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class ServedInstance:
    """A running server plus the two client connections."""

    def __init__(self, workload: Workload, seed: Optional[int]) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.oracle: Optional[List[List[int]]] = None
        self.queries = 0
        self.connections: List[Connection] = []
        self.clients = ThreadPoolExecutor(
            max_workers=CLIENTS, thread_name_prefix="bench-client"
        )
        self._affinity = _pin_to_one_cpu()
        try:
            self.server = ServerProcess()
        except BaseException:
            self._restore_affinity()
            raise
        try:
            for _ in range(CLIENTS):
                self.connections.append(Connection(self.server.port))
            if self.connections[0].call({"kind": "ping"}).get("kind") != "pong":
                raise RuntimeError("server did not answer ping")
            info = self.connections[0].call({"kind": "describe"})["info"]
            self.queries = int(info["query_set"])
        except BaseException:
            self.close()
            raise
        if workload.ops_per_segment % self.queries:
            self.close()
            raise RuntimeError(
                f"{workload.ops_per_segment} ops per segment is not a whole "
                f"number of passes over {self.queries} resident queries"
            )

    def build_oracle(self) -> None:
        """A direct software selection on the server's own presets."""
        scale = get_scale(SCALE)
        data = scale.load("LANDC", role="selection")
        queries = scale.load("STATES50", role="selection").polygons
        pipeline = IntersectionSelection(data, SoftwareEngine())
        self.oracle = [pipeline.run(q).ids for q in queries]

    def _schedule(self, index: int) -> List[List[int]]:
        """Segment ``index``: the fixed multiset, seeded order, per client."""
        passes = self.workload.ops_per_segment // self.queries
        indices = list(range(self.queries)) * passes
        if self.seed is not None:
            random.Random(f"{self.seed}:{index}").shuffle(indices)
        return [indices[c::CLIENTS] for c in range(CLIENTS)]

    def _client(
        self, conn: Connection, indices: List[int]
    ) -> List[Tuple[int, float, float, Optional[Dict[str, Any]]]]:
        """One closed loop: ``(query_index, start, seconds, response)``."""
        out = []
        for query_index in indices:
            envelope = selection_envelope(query_index)
            start = time.perf_counter()
            try:
                reply = conn.call(envelope)
            except (OSError, ValueError):
                out.append((query_index, start, time.perf_counter() - start, None))
                continue
            out.append(
                (query_index, start, time.perf_counter() - start,
                 reply.get("response"))
            )
        return out

    def segment(self, index: int, tracer: Any = None) -> Tuple[List[float], float, dict]:
        """One closed-loop segment across both clients.

        With a tracer, one ``bench.op`` span per request is recorded after
        the segment from the client-side timings (a ``Tracer`` belongs to
        one control flow, so the client threads never touch it).
        """
        assert self.oracle is not None, "build_oracle() first"
        schedule = self._schedule(index)
        start = time.perf_counter()
        futures = [
            self.clients.submit(self._client, conn, indices)
            for conn, indices in zip(self.connections, schedule)
        ]
        rows = [row for future in futures for row in future.result()]
        wall_s = time.perf_counter() - start
        op_s: List[float] = []
        statuses: Dict[str, int] = {}
        server_splits: List[Tuple[float, float, float]] = []
        for query_index, began, seconds, response in rows:
            self.attempted += 1
            op_s.append(seconds)
            status = response.get("status") if response else "error"
            statuses[status] = statuses.get(status, 0) + 1
            if status != "ok" or response["results"] != self.oracle[query_index]:
                self.failed += 1
                continue
            server_splits.append(
                (seconds, float(response["exec_s"]), float(response["wait_s"]))
            )
            if tracer is not None:
                tracer.trace_id = f"{self.workload.name}:{self.attempted - 1}"
                tracer.record(
                    "bench.op",
                    seconds,
                    start_unix_s=time.time() - (time.perf_counter() - began),
                    workload=self.workload.name,
                    query_index=query_index,
                    exec_s=response["exec_s"],
                    wait_s=response["wait_s"],
                    worker=response.get("worker"),
                )
        return op_s, wall_s, {"statuses": statuses, "splits": server_splits}

    def _restore_affinity(self) -> None:
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    def close(self) -> None:
        """Close the connections and stop the server, whatever happened."""
        self.clients.shutdown(wait=True)
        for conn in self.connections:
            try:
                conn.close()
            except OSError:
                pass
        self.connections = []
        self.server.stop()
        self._restore_affinity()


def build(name: str, seed: Optional[int]) -> ServedInstance:
    """Nothing -> first-answer-ready: server up, ping answered, one query."""
    instance = ServedInstance(WORKLOADS[name], seed)
    try:
        reply = instance.connections[0].call(selection_envelope(0))
        if reply.get("response", {}).get("status") != "ok":
            raise RuntimeError(f"warm-up request failed: {reply!r}")
    except BaseException:
        instance.close()
        raise
    return instance
