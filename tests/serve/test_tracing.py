"""Tests for per-request tracing through the serving stack.

The hazard these tests exist for: :class:`~repro.obs.trace.Tracer` is
single-control-flow, but the service executes requests on many threads.
Every submit must therefore run under its *own* scoped tracer (or a
scoped ``None``), never one shared with its caller - otherwise
concurrent requests interleave their spans through one parent stack.
"""

import contextvars
import string
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import Tracer, load_spans, use_tracer
from repro.serve import (
    AdmissionConfig,
    QueryRequest,
    QueryService,
    SlowLogConfig,
    canonical_results,
)


@pytest.fixture(scope="module")
def traced_service():
    svc = QueryService(
        workers=2,
        admission=AdmissionConfig(max_queue=10_000),
        trace=True,
    )
    yield svc
    svc.close()


def _is_trace_id(value):
    return (
        isinstance(value, str)
        and len(value) == 16
        and all(c in string.hexdigits for c in value)
    )


class TestTraceIds:
    def test_every_ok_response_carries_trace_id(self, traced_service):
        for request in (
            QueryRequest(op="selection", query_index=0),
            QueryRequest(op="join"),
        ):
            response = traced_service.submit(request)
            assert response.status == "ok"
            assert _is_trace_id(response.trace_id)
            assert response.to_dict()["trace_id"] == response.trace_id

    def test_client_supplied_trace_id_adopted(self, traced_service):
        response = traced_service.submit(
            QueryRequest(op="selection", query_index=0, trace_id="cafe0123")
        )
        assert response.trace_id == "cafe0123"
        last_trace = traced_service.traces.records()[-1]
        assert all(s["trace_id"] == "cafe0123" for s in last_trace)

    def test_error_response_carries_trace_id(self, traced_service):
        response = traced_service.submit(
            QueryRequest(op="selection", query_index=10**6)
        )
        assert response.status == "error"
        assert _is_trace_id(response.trace_id)

    def test_tracing_off_leaves_trace_id_unset(self, service):
        response = service.submit(QueryRequest(op="selection", query_index=0))
        assert response.status == "ok"
        assert response.trace_id is None
        assert "trace_id" not in response.to_dict()
        assert len(service.traces) == 0


class TestSpanTrees:
    def test_request_trace_is_one_rooted_tree(self, traced_service):
        response = traced_service.submit(
            QueryRequest(op="selection", query_index=1)
        )
        trace = traced_service.traces.records()[-1]
        assert all(s["trace_id"] == response.trace_id for s in trace)
        roots = [s for s in trace if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["request"]
        assert roots[0]["attributes"]["status"] == "ok"
        assert roots[0]["attributes"]["worker"] == response.worker
        names = {s["name"] for s in trace}
        assert {"request", "queue_wait", "execute", "mbr_filter"} <= names
        # Every parent link resolves within this request's own spans.
        ids = {s["span_id"] for s in trace}
        assert all(
            s["parent_id"] in ids for s in trace if s["parent_id"] is not None
        )


class TestConcurrencyHazard:
    def test_hammer_no_cross_request_span_leakage(self, traced_service):
        """Concurrent submits: each trace stays its own single-rooted tree.

        Every serving thread runs in a copy of a context that has an
        ambient tracer in scope, simulating a benchmark harness left
        running around the service (``asyncio.to_thread`` propagates the
        caller's context the same way); the scoped per-request tracers
        must shield every submit from it.
        """
        ambient = Tracer()
        requests = [
            QueryRequest(op="selection", query_index=i % 5, request_id=str(i))
            for i in range(24)
        ]
        with use_tracer(ambient):
            contexts = [contextvars.copy_context() for _ in requests]
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(
                pool.map(
                    lambda ctx, request: ctx.run(traced_service.submit, request),
                    contexts,
                    requests,
                )
            )

        assert all(r.status == "ok" for r in responses)
        # The ambient tracer saw nothing: no request leaked spans into it.
        assert ambient.spans == []
        # Every request got its own distinct trace.
        trace_ids = [r.trace_id for r in responses]
        assert len(set(trace_ids)) == len(trace_ids)
        # No span ever parented under another request's span: each stored
        # trace is homogeneous in trace_id and rooted exactly once.
        for trace in traced_service.traces.records():
            assert len({s["trace_id"] for s in trace}) == 1
            assert sum(1 for s in trace if s["parent_id"] is None) == 1
            ids = {s["span_id"] for s in trace}
            assert all(
                s["parent_id"] in ids for s in trace if s["parent_id"] is not None
            )


class TestObservationOnly:
    def test_results_bit_identical_tracing_on_vs_off(
        self, traced_service, service
    ):
        for request in (
            QueryRequest(op="selection", query_index=2),
            QueryRequest(op="join"),
        ):
            traced = traced_service.submit(request)
            untraced = service.submit(request)
            assert traced.status == untraced.status == "ok"
            assert canonical_results(traced.results) == canonical_results(
                untraced.results
            )


class TestLoadgen:
    def test_closed_loop_every_response_carries_trace_id(self, traced_service):
        """Four clients, each keeping one request outstanding: concurrent
        submits each come back with their own trace id."""

        def client(idx):
            request = QueryRequest(op="selection", query_index=idx % 3)
            return [traced_service.submit(request) for _ in range(2)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = [r for batch in pool.map(client, range(4)) for r in batch]
        assert len(responses) == 8
        assert all(_is_trace_id(r.trace_id) for r in responses)
        assert len({r.trace_id for r in responses}) == 8


class TestTraceStoreExport:
    def test_export_namespaces_span_ids_per_trace(self, traced_service, tmp_path):
        traced_service.submit(QueryRequest(op="selection", query_index=0))
        traced_service.submit(QueryRequest(op="selection", query_index=1))
        out = tmp_path / "spans.jsonl"
        count = traced_service.export_traces(str(out))
        assert count == sum(map(len, traced_service.traces.records()))
        from repro.obs.report import load_spans

        docs = load_spans(str(out))
        # Per-request tracers all number from 1; the flat export must not
        # collide ids across traces.
        ids = [d["span_id"] for d in docs]
        assert len(set(ids)) == len(ids)
        for doc in docs:
            assert doc["span_id"].startswith(doc["trace_id"] + ":")

    def test_exported_spans_form_whole_request_trees(self, traced_service, tmp_path):
        ran = traced_service.submit(QueryRequest(op="selection", query_index=0))
        # An unknown query is refused at arrival, before any engine.
        refused = traced_service.submit(QueryRequest(op="selection", query_index=10**6))
        assert ran.worker is not None and refused.worker is None
        out = tmp_path / "spans.jsonl"
        traced_service.export_traces(str(out))
        from repro.obs.report import build_tree, load_spans

        report = build_tree(load_spans(str(out)))
        assert report.orphans == 0
        # Every root is a request; one that ran carries its engine's
        # worker, one refused at arrival carries none.
        roots = {root.span["trace_id"]: root.span for root in report.roots}
        assert {span["name"] for span in roots.values()} == {"request"}
        assert roots[ran.trace_id]["attributes"]["worker"] == ran.worker
        assert "worker" not in roots[refused.trace_id]["attributes"]
        # The worker on a root is the one its execute span ran on.
        for root in report.roots:
            worker = root.span["attributes"].get("worker")
            executes = [c.span["attributes"]["worker"] for c in root.children if c.name == "execute"]
            assert executes == ([] if worker is None else [worker]), root.span


class TestDeadlineMarking:
    """A traced request's stage spans that finished past its admission
    deadline are marked ``over_deadline``, and its slow-query record lists
    them; without a deadline nothing is marked."""

    def served(self, timeout_s, tmp_path):
        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(timeout_s=timeout_s),
            trace=True,
            slowlog=SlowLogConfig(threshold_s=0.0),
        )
        try:
            # The engine is free, so the request runs at once - and with a
            # microsecond deadline every stage ends past it.
            response = svc.submit(QueryRequest(op="selection", query_index=0))
            out = tmp_path / "spans.jsonl"
            svc.export_traces(str(out))
            spans = load_spans(str(out))
            return response, spans, svc.slowlog.records()
        finally:
            svc.close()

    def test_stages_past_the_deadline_are_marked(self, tmp_path):
        response, spans, records = self.served(1e-6, tmp_path)
        assert response.status == "ok"
        stages = [s for s in spans if s["attributes"].get("kind") == "stage"]
        assert {s["name"] for s in stages} >= {"mbr_filter", "geometry"}
        assert all(s["attributes"].get("over_deadline") is True for s in stages)
        other = [s for s in spans if s["attributes"].get("kind") != "stage"]
        assert not any("over_deadline" in s["attributes"] for s in other)
        (record,) = records
        assert record["status"] == "ok"
        assert record["over_deadline_stages"] == sorted({s["name"] for s in stages})

    def test_stages_before_the_deadline_are_not_marked(self, tmp_path):
        response, spans, records = self.served(60.0, tmp_path)
        assert response.status == "ok"
        assert any(s["attributes"].get("kind") == "stage" for s in spans)
        assert not any("over_deadline" in s["attributes"] for s in spans)
        (record,) = records
        assert record["over_deadline_stages"] == []

    def test_no_deadline_marks_nothing(self, tmp_path):
        response, spans, records = self.served(None, tmp_path)
        assert response.status == "ok"
        assert any(s["attributes"].get("kind") == "stage" for s in spans)
        assert not any("over_deadline" in s["attributes"] for s in spans)
        (record,) = records
        assert record["over_deadline_stages"] == []
