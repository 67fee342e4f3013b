"""TCP JSON-lines front-end tests: protocol kinds, errors, shutdown."""

import asyncio
import json
import os
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.serve import AdmissionConfig, QueryService, ServeFrontend, send_envelope
from repro.serve.server import MAX_LINE_BYTES


def _with_frontend(service, client_fn, frontends=None):
    """Run the frontend in an event loop, the client in a thread.

    Whatever reaches the loop's exception handler (an exception raised in
    a connection's callback, say) is collected under ``"loop_errors"``.
    ``frontends``, when given, is a list the frontend is appended to
    before the client starts.  The client thread is always joined.  An
    exception other than ``KeyboardInterrupt`` that escapes the loop - a
    ``SystemExit`` from a callback, say - fails this test alone, and so
    does one the client raised.
    """
    results = {"loop_errors": []}
    clients, client_errors = [], []

    def client(host, port):
        try:
            results.update(client_fn(host, port))
        except BaseException as exc:  # re-raised on the test's thread
            client_errors.append(exc)

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: results["loop_errors"].append(context)
        )
        frontend = ServeFrontend(service)
        if frontends is not None:
            frontends.append(frontend)
        host, port = await frontend.start()
        thread = threading.Thread(target=client, args=(host, port))
        clients.append(thread)
        thread.start()
        try:
            await asyncio.wait_for(frontend.serve_until_shutdown(), timeout=60)
        finally:
            # Also when asyncio.run() cancels this task after an exception
            # escaped the loop: the client's connection closes.
            await frontend.stop()
        thread.join()
        # Let connection tasks end on their own: asyncio.run() would cancel
        # them, and a cancelled one lands in the exception handler too.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=30)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        for thread in clients:
            thread.join(timeout=60)
        alive = [thread for thread in clients if thread.is_alive()]
        pytest.fail(f"the event loop raised {exc!r}" + (" (client still running)" if alive else ""))
    if client_errors:
        raise client_errors[0]
    return results


def _raw_lines(host, port, *lines):
    """Send raw lines on one fresh connection; one parsed reply per line."""
    with socket.create_connection((host, port), timeout=30) as conn:
        reader = conn.makefile()
        replies = []
        for line in lines:
            conn.sendall(line)
            replies.append(json.loads(reader.readline()))
        return replies


def _raw_line(host, port, line):
    return _raw_lines(host, port, line)[0]


def _line(envelope):
    return json.dumps(envelope).encode() + b"\n"


def _settled(service):
    """The ``serve_requests{op,status}`` counters: one tick per settled arrival."""
    counters = service.metrics_snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("serve_requests{")}


def _served(service):
    return sum(row["requests_served"] for row in service.pool.worker_stats())


JOIN = {"kind": "query", "request": {"op": "join"}}


@pytest.fixture
def held_service(monkeypatch):
    """A one-engine service whose engine blocks in ``execute`` until released.

    Returns ``(service, entered, release)``: ``entered`` is set once a
    request holds the engine, ``release`` lets it go on.
    """
    services = []

    def build(**admission):
        svc = QueryService(workers=1, admission=AdmissionConfig(**admission))
        services.append(svc)
        engine = svc.pool.engines[0]
        execute, entered, release = engine.execute, threading.Event(), threading.Event()

        def held_execute(request):
            entered.set()
            release.wait(10.0)
            return execute(request)

        monkeypatch.setattr(engine, "execute", held_execute)
        return svc, entered, release

    yield build
    for svc in services:
        svc.close()


def _holding(host, port, out, entered):
    """Send a join from a thread and wait until it holds the engine."""
    holder = threading.Thread(
        target=lambda: out.update(held=send_envelope(host, port, JOIN))
    )
    holder.start()
    out["entered"] = entered.wait(10.0)
    return holder


#: Requests whose *types* are wrong, and what the refusal must name: each is
#: turned away at the door, before any engine is checked out.
MALFORMED_REQUESTS = {
    "non-object": ([1, 2], "JSON object"),
    "float-index": ({"op": "selection", "query_index": 1.5}, "query_index"),
    "bool-index": ({"op": "selection", "query_index": True}, "query_index"),
    "string-index": ({"op": "selection", "query_index": "3"}, "query_index"),
    "bool-distance": ({"op": "within_distance", "distance": True}, "distance"),
}


class TestProtocol:
    def test_full_conversation(self, service):
        def client(host, port):
            out = {}
            out["ping"] = send_envelope(host, port, {"kind": "ping"})
            out["describe"] = send_envelope(host, port, {"kind": "describe"})
            out["query"] = send_envelope(
                host,
                port,
                {
                    "kind": "query",
                    "request": {"op": "selection", "query_index": 1},
                },
            )
            out["metrics"] = send_envelope(host, port, {"kind": "metrics"})
            out["health"] = send_envelope(host, port, {"kind": "health"})
            out["no_timeout"] = send_envelope(
                host, port, {"kind": "ping"}, timeout=None
            )
            out["shutdown"] = send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client)
        assert res["ping"] == {"kind": "pong"}
        assert res["describe"]["info"]["workers"] == 2
        response = res["query"]["response"]
        assert response["status"] == "ok"
        assert response["schema"] == "repro.serve/response@1"
        assert "serve_requests" in res["metrics"]["text"]
        health = res["health"]["health"]
        assert health["schema"] == "repro.serve/health@1"
        assert health["verdict"] in ("ready", "degraded")
        assert health["windowed"] is False  # default service: no monitor
        assert len(health["workers"]) == 2
        # timeout=None (wait forever) must still complete a round trip.
        assert res["no_timeout"] == {"kind": "pong"}
        assert res["shutdown"] == {"kind": "shutdown-ack"}

    def test_response_matches_direct_submit(self, service):
        from repro.serve import QueryRequest, canonical_results

        direct = service.submit(QueryRequest(op="selection", query_index=2))

        def client(host, port):
            reply = send_envelope(
                host,
                port,
                {
                    "kind": "query",
                    "request": {"op": "selection", "query_index": 2},
                },
            )
            send_envelope(host, port, {"kind": "shutdown"})
            return {"reply": reply}

        res = _with_frontend(service, client)
        assert res["reply"]["response"]["results"] == canonical_results(
            direct.results
        )


class TestErrors:
    def test_bad_json_and_bad_request(self, service):
        def client(host, port):
            out = {}
            out["bad_json"] = _raw_line(host, port, b"this is not json\n")
            out["bad_kind"] = send_envelope(host, port, {"kind": "dance"})
            out["bad_request"] = send_envelope(
                host, port, {"kind": "query", "request": {"op": "nope"}}
            )
            out["not_object"] = send_envelope(host, port, [1, 2, 3])
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client)
        assert res["bad_json"]["kind"] == "error"
        assert "unknown kind" in res["bad_kind"]["error"]
        assert "bad request" in res["bad_request"]["error"]
        assert "JSON object" in res["not_object"]["error"]

    def test_execution_error_is_an_ok_envelope(self, service):
        # A failing query is a normal response envelope with
        # status="error", not a protocol-level error.
        def client(host, port):
            reply = send_envelope(
                host,
                port,
                {
                    "kind": "query",
                    "request": {"op": "selection", "query_index": 12345},
                },
            )
            send_envelope(host, port, {"kind": "shutdown"})
            return {"reply": reply}

        res = _with_frontend(service, client)
        assert res["reply"]["kind"] == "response"
        assert res["reply"]["response"]["status"] == "error"


class TestFrontEndFaults:
    """Front-end faults end in answers, not tracebacks."""

    def test_line_over_the_stream_default_is_served(self, service):
        # 70 000 bytes: over asyncio's 64 KiB default reader limit, a
        # fifteenth of what the server says it accepts.
        line = json.dumps({"kind": "ping", "pad": "x" * 70_000}).encode() + b"\n"

        def client(host, port):
            out = {"reply": _raw_line(host, port, line)}
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client)
        assert res["reply"] == {"kind": "pong"}
        assert res["loop_errors"] == []

    def test_line_over_the_limit_gets_the_error_envelope(self, service):
        def client(host, port):
            out = {}
            out["oversize"] = _raw_line(
                host, port, b"x" * (MAX_LINE_BYTES + 1) + b"\n"
            )
            out["after"] = send_envelope(host, port, {"kind": "ping"})
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client)
        assert res["oversize"]["kind"] == "error"
        assert "too long" in res["oversize"]["error"]
        assert res["after"] == {"kind": "pong"}
        assert res["loop_errors"] == []

    def test_client_reset_before_the_reply(self, service):
        before = _settled(service)
        query = {"kind": "query", "request": {"op": "within_distance", "distance": 1.0}}

        def client(host, port):
            conn = socket.create_connection((host, port), timeout=30)
            conn.sendall(json.dumps(query).encode() + b"\n")
            # SO_LINGER with a zero timeout: close() sends RST, not FIN.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.close()
            # The reset query holds an engine; this one queues behind it
            # or beside it, and either way is answered after the reset.
            out = {"after": send_envelope(host, port, query)}
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client)
        assert res["after"]["response"]["status"] == "ok"
        assert res["loop_errors"] == []
        # Both arrivals were settled exactly once, in a known status.
        moved = {
            key: value - before.get(key, 0)
            for key, value in _settled(service).items()
            if value != before.get(key, 0)
        }
        assert sum(moved.values()) == 2
        assert all(
            key.split("status=")[1].rstrip("}") in ("ok", "shed", "timeout", "error")
            for key in moved
        )
        assert service.health()["verdict"] == "ready"

    @pytest.mark.parametrize(
        "request_body, field", MALFORMED_REQUESTS.values(), ids=MALFORMED_REQUESTS
    )
    def test_mistyped_request_is_refused_at_the_door(
        self, service, request_body, field
    ):
        before, served = _settled(service), _served(service)
        good = {"kind": "query", "request": {"op": "selection", "query_index": 0}}

        def client(host, port):
            bad, after = _raw_lines(
                host,
                port,
                _line({"kind": "query", "request": request_body}),
                _line(good),  # the same connection stays usable
            )
            send_envelope(host, port, {"kind": "shutdown"})
            return {"bad": bad, "after": after}

        res = _with_frontend(service, client)
        assert res["bad"]["kind"] == "error"
        assert res["bad"]["error"].startswith("bad request: ")
        assert field in res["bad"]["error"]
        assert res["after"]["response"]["status"] == "ok"
        assert res["loop_errors"] == []
        # Two lines arrived, one was admitted: exactly that one checked out
        # an engine and was settled, as ok.
        assert _served(service) == served + 1
        ok_key = "serve_requests{op=selection,status=ok}"
        assert _settled(service) == {**before, ok_key: before.get(ok_key, 0) + 1}
        assert service.health()["verdict"] == "ready"

    def test_non_utf8_line_gets_the_error_envelope(self, service):
        before = _settled(service)

        def client(host, port):
            bad, after = _raw_lines(
                host, port, b'\xff\xfe{"kind": "ping"}\n', _line({"kind": "ping"})
            )
            send_envelope(host, port, {"kind": "shutdown"})
            return {"bad": bad, "after": after}

        res = _with_frontend(service, client)
        assert res["bad"]["kind"] == "error"
        assert "invalid JSON" in res["bad"]["error"]
        assert res["after"] == {"kind": "pong"}
        assert res["loop_errors"] == []
        assert _settled(service) == before
        assert service.health()["verdict"] == "ready"

    def test_truncated_line_then_half_close(self, service):
        before = _settled(service)

        def client(host, port):
            with socket.create_connection((host, port), timeout=30) as conn:
                conn.sendall(b'{"kind": "pi')
                conn.shutdown(socket.SHUT_WR)
                reader = conn.makefile()
                out = {"reply": json.loads(reader.readline()), "rest": reader.read()}
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client)
        assert res["reply"]["kind"] == "error"
        assert "invalid JSON" in res["reply"]["error"]
        assert res["rest"] == ""  # answered once, then closed quietly
        assert res["loop_errors"] == []
        assert _settled(service) == before
        assert service.health()["verdict"] == "ready"



class TestPipelining:
    """One connection, many envelopes in flight: one reply per line, in
    order, whichever thread each query executes on."""

    def test_pipelined_envelopes_are_answered_in_order(self, service):
        from repro.serve import QueryRequest, canonical_results

        counts = [
            service.submit(QueryRequest(op="selection", query_index=i)).attributes[
                "pairs_compared"
            ]
            for i in range(len(service.workload.queries))
        ]
        settled, dear = counts.index(0), counts.index(max(counts))

        def query(request_id, **request):
            return _line({"kind": "query", "request": {"request_id": request_id, **request}})

        lines = [
            _line({"kind": "ping"}),
            query("a", op="selection", query_index=settled),
            query("b", op="join"),  # offloaded: the lines behind it wait
            query("c", op="selection", query_index=dear),
            b"\n",  # a blank line gets no reply
            _line({"kind": "describe"}),
            b"not json\n",
            query("d", op="selection", query_index=settled),
            query("e", op="selection", query_index=10_000),
            _line({"kind": "ping"}),
        ]

        def client(host, port):
            with socket.create_connection((host, port), timeout=30) as conn:
                conn.sendall(b"".join(lines))
                conn.shutdown(socket.SHUT_WR)
                replies = [json.loads(line) for line in conn.makefile().readlines()]
            send_envelope(host, port, {"kind": "shutdown"})
            return {"replies": replies}

        res = _with_frontend(service, client)
        replies = res["replies"]
        assert [r["kind"] for r in replies] == [
            "pong", "response", "response", "response", "describe", "error",
            "response", "response", "pong",
        ]
        responses = [r["response"] for r in replies if r["kind"] == "response"]
        assert [r["request_id"] for r in responses] == ["a", "b", "c", "d", "e"]
        assert [r["status"] for r in responses] == ["ok"] * 4 + ["error"]
        direct = {
            index: canonical_results(
                service.submit(QueryRequest(op="selection", query_index=index)).results
            )
            for index in (settled, dear)
        }
        assert responses[0]["results"] == responses[3]["results"] == direct[settled]
        assert responses[2]["results"] == direct[dear]
        assert res["loop_errors"] == []

    def test_a_client_that_stops_reading_is_paused_and_others_are_answered(
        self, service
    ):
        from repro.serve import QueryRequest

        # Some traffic, so each metrics reply is several KiB: a thousand of
        # them outgrow the socket buffers and the transport's high-water mark.
        service.submit(QueryRequest(op="selection", query_index=1))
        sent = 1000
        frontends = []

        def paused(frontend, stalled_port):
            for connection in list(frontend._connections):
                transport = connection._transport
                peer = transport.get_extra_info("peername")
                if peer is not None and peer[1] == stalled_port:
                    return not transport.is_reading()
            return None

        def client(host, port):
            out = {}
            stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(30)
            stalled.connect((host, port))
            stalled_port = stalled.getsockname()[1]
            sender = threading.Thread(
                target=stalled.sendall,
                args=(_line({"kind": "metrics"}) * sent,),
                daemon=True,
            )
            sender.start()
            deadline = time.monotonic() + 30
            while not paused(frontends[0], stalled_port) and time.monotonic() < deadline:
                time.sleep(0.01)
            out["paused"] = paused(frontends[0], stalled_port)
            out["other"] = send_envelope(host, port, {"kind": "ping"})
            out["still_paused"] = paused(frontends[0], stalled_port)
            reader = stalled.makefile()
            out["kinds"] = [json.loads(reader.readline())["kind"] for _ in range(sent)]
            sender.join(30)
            out["resumed"] = paused(frontends[0], stalled_port) is False
            reader.close()
            stalled.close()
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(service, client, frontends)
        assert res["paused"] is True
        assert res["other"] == {"kind": "pong"}
        assert res["still_paused"] is True
        assert res["kinds"] == ["metrics"] * sent
        assert res["resumed"]
        assert res["loop_errors"] == []

class TestConcurrentConnections:
    def test_parallel_clients(self, service):
        def client(host, port):
            replies = [None] * 6

            def one(idx):
                replies[idx] = send_envelope(
                    host,
                    port,
                    {
                        "kind": "query",
                        "request": {"op": "selection", "query_index": idx},
                    },
                )

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            send_envelope(host, port, {"kind": "shutdown"})
            return {"replies": replies}

        res = _with_frontend(service, client)
        assert all(
            r["response"]["status"] == "ok" for r in res["replies"]
        )


class TestArrivalAdmission:
    """The front-end decides each query at its arrival on the loop, so
    shed, timeout, ``wait_s`` and ``total_s`` count from arrival."""

    def test_busy_engine_sheds_at_arrival(self, held_service):
        svc, entered, release = held_service(max_queue=0, timeout_s=0.2)

        def client(host, port):
            out = {}
            holder = _holding(host, port, out, entered)
            try:
                out["second"] = send_envelope(host, port, JOIN)
            finally:
                release.set()
                holder.join(10.0)
                send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(svc, client)
        assert res["entered"]
        assert res["held"]["response"]["status"] == "ok"
        second = res["second"]["response"]
        assert second["status"] == "shed"
        assert second["wait_s"] == 0.0
        assert _settled(svc) == {
            "serve_requests{op=join,status=ok}": 1,
            "serve_requests{op=join,status=shed}": 1,
        }
        assert res["loop_errors"] == []

    def test_waiter_times_out_at_arrival_plus_timeout(self, held_service):
        svc, entered, release = held_service(max_queue=1, timeout_s=0.2)

        def client(host, port):
            out = {}
            holder = _holding(host, port, out, entered)
            waiter = threading.Thread(
                target=lambda: out.update(second=send_envelope(host, port, JOIN))
            )
            try:
                waiter.start()
                deadline = time.monotonic() + 10.0
                while svc.pool.queue_depth == 0 and time.monotonic() < deadline:
                    time.sleep(0.001)
                out["third"] = send_envelope(host, port, JOIN)  # the slot is taken
                waiter.join(10.0)
            finally:
                release.set()
                holder.join(10.0)
                send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(svc, client)
        assert res["held"]["response"]["status"] == "ok"
        second = res["second"]["response"]
        assert second["status"] == "timeout"
        assert second["total_s"] >= second["wait_s"] >= 0.2
        assert res["third"]["response"]["status"] == "shed"
        assert _settled(svc) == {
            "serve_requests{op=join,status=ok}": 1,
            "serve_requests{op=join,status=timeout}": 1,
            "serve_requests{op=join,status=shed}": 1,
        }
        assert res["loop_errors"] == []

    def test_loop_answers_while_an_offloaded_query_holds_the_engine(
        self, held_service
    ):
        svc, entered, release = held_service()

        def client(host, port):
            out = {}
            holder = _holding(host, port, out, entered)
            try:
                for kind in ("ping", "health", "describe"):
                    out[kind] = send_envelope(host, port, {"kind": kind})
            finally:
                release.set()
                holder.join(10.0)
                send_envelope(host, port, {"kind": "shutdown"})
            return out

        res = _with_frontend(svc, client)
        assert res["ping"] == {"kind": "pong"}
        assert res["health"]["health"]["inflight"] == 1
        assert res["describe"]["info"]["workers"] == 1
        assert res["held"]["response"]["status"] == "ok"
        settled = _settled(svc)
        assert sum(settled.values()) == 1  # ok + shed + timeout + error == arrivals
        assert settled == {"serve_requests{op=join,status=ok}": 1}
        gauges = svc.metrics_snapshot()["gauges"]
        assert (gauges["serve_inflight"], gauges["serve_queue_depth"]) == (0, 0)
        assert res["loop_errors"] == []


def _dying(svc, monkeypatch, op, threads):
    """Make every engine of ``svc`` raise ``SystemExit`` on an ``op``
    request, appending to ``threads`` the thread each death happens on."""
    for engine in svc.pool.engines:

        def dying(request, execute=engine.execute):
            if request.op != op:
                return execute(request)
            threads.append(threading.get_ident())
            raise SystemExit("worker died")

        monkeypatch.setattr(engine, "execute", dying)


class TestWorkerDeath:
    """An engine worker that dies mid-request (``SystemExit``) fails that
    request: an ``error`` response, counted once, its engine released, and
    the server goes on answering."""

    @staticmethod
    def _survived(svc, res, settled):
        response = res["died"]["response"]
        assert (response["status"], response["error"]) == ("error", "SystemExit: worker died")
        assert res["after"] == {"kind": "pong"}
        assert res["loop_errors"] == []
        # ok + shed + timeout + error == arrivals.
        assert _settled(svc) == settled
        gauges = svc.metrics_snapshot()["gauges"]
        assert (gauges["serve_inflight"], gauges["serve_queue_depth"]) == (0, 0)
        assert svc.health()["verdict"] == "ready"

    @staticmethod
    def _client(*envelopes):
        def client(host, port):
            out = {"before": [send_envelope(host, port, e) for e in envelopes[:-1]]}
            out["died"] = send_envelope(host, port, envelopes[-1])
            out["after"] = send_envelope(host, port, {"kind": "ping"})
            send_envelope(host, port, {"kind": "shutdown"})
            return out

        return client

    def test_an_offloaded_join(self, monkeypatch):
        svc, threads = QueryService(workers=1), []
        try:
            _dying(svc, monkeypatch, "join", threads)
            res = _with_frontend(svc, self._client(JOIN))
            self._survived(svc, res, {"serve_requests{op=join,status=error}": 1})
        finally:
            svc.close()
        assert len(threads) == 1 and threads[0] != threading.get_ident()

    def test_a_selection_placed_on_the_loop(self, monkeypatch):
        svc, threads = QueryService(workers=1), []
        try:
            mbrs = svc.workload.selection_data.mbrs
            settled = next(
                k for k, query in enumerate(svc.workload.queries)
                if not any(query.mbr.intersects(mbr) for mbr in mbrs)
            )
            selection = {"kind": "query", "request": {"op": "selection", "query_index": settled}}

            def die_on_second_run(host, port):
                # The first run finds no candidate; the second is placed
                # on the loop and dies there.
                out = {"first": send_envelope(host, port, selection)}
                _dying(svc, monkeypatch, "selection", threads)
                out.update(self._client(selection)(host, port))
                return out

            res = _with_frontend(svc, die_on_second_run)
            self._survived(svc, res, {
                "serve_requests{op=selection,status=ok}": 1,
                "serve_requests{op=selection,status=error}": 1,
            })
        finally:
            svc.close()
        assert res["first"]["response"]["status"] == "ok"
        # asyncio.run() ran the loop on this thread.
        assert threads == [threading.get_ident()]


#: A session of its own for :func:`test_a_loop_side_exit_fails_one_test`:
#: a ``SystemExit`` raised in a connection's callback, then a test that
#: finds the client thread gone.
_LOOP_EXIT_SESSION = """
import threading

from repro.serve import QueryService, ServeFrontend, send_envelope
from tests.serve.test_server import _with_frontend


def test_loop_side_exit(monkeypatch):
    svc = QueryService(workers=1)
    try:
        def die(self, line):
            raise SystemExit("loop died")

        monkeypatch.setattr(ServeFrontend, "_reply", die)
        _with_frontend(svc, lambda host, port: {"reply": send_envelope(host, port, {"kind": "ping"})})
    finally:
        svc.close()


def test_the_session_goes_on():
    assert not [t for t in threading.enumerate() if t.name.endswith("(client)")]
"""


def test_a_loop_side_exit_fails_one_test(tmp_path):
    """``_with_frontend`` runs the loop on the test's own thread: a
    ``SystemExit`` escaping it fails that test alone, with the client
    thread joined and its error kept off the thread excepthook."""
    root = Path(__file__).resolve().parents[2]
    (tmp_path / "test_loop_exit.py").write_text(textwrap.dedent(_LOOP_EXIT_SESSION))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::pytest.PytestUnhandledThreadExceptionWarning", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "the event loop raised SystemExit('loop died')" in out
    assert "1 failed, 1 passed" in out


def test_max_line_bytes_constant_is_sane():
    assert MAX_LINE_BYTES >= 65536
