"""Tests for the span tracer and its JSON-lines export."""

import io
import json
import time

from repro.obs import (
    Span,
    Tracer,
    current_scope,
    use_tracer,
)
from repro.query import CostBreakdown


class TestTracer:
    def test_nested_spans_parent_automatically(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert [s.name for s in t.spans] == ["inner", "outer"]  # finish order
        assert all(s.duration_s >= 0.0 for s in t.spans)

    def test_record_parents_to_open_span(self):
        t = Tracer()
        with t.span("geometry") as stage:
            batch = t.record("geometry.hw_batch", 0.25, op="intersect", pairs=100)
        assert batch.parent_id == stage.span_id
        assert batch.duration_s == 0.25
        assert batch.attributes == {"op": "intersect", "pairs": 100}

    def test_record_default_start_is_now_minus_duration(self):
        # A span recorded without an explicit start just *ended*: its start
        # must be backdated by its duration, not stamped at the end time.
        t = Tracer()
        before = time.time()
        span = t.record("geometry.hw_batch", 0.5)
        after = time.time()
        assert before - 0.5 <= span.start_unix_s <= after - 0.5
        assert span.start_unix_s + span.duration_s <= after

    def test_record_explicit_start_wins(self):
        t = Tracer()
        span = t.record("x", 0.25, start_unix_s=1000.0)
        assert span.start_unix_s == 1000.0

    def test_span_ids_unique(self):
        t = Tracer()
        for _ in range(5):
            with t.span("x"):
                pass
        ids = [s.span_id for s in t.spans]
        assert len(set(ids)) == len(ids)

    def test_find(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        assert [s.name for s in t.find("a")] == ["a"]


class TestSpanToDict:
    def test_attributes_exported_by_copy(self):
        # Regression: to_dict used to return the attributes dict by
        # reference, letting later mutation retroactively alter spans
        # already exported but not yet serialized.
        span = Span(
            span_id=1,
            parent_id=None,
            name="stage",
            start_unix_s=0.0,
            duration_s=0.1,
            attributes={"pairs": 5},
        )
        doc = span.to_dict()
        span.attributes["pairs"] = 999
        assert doc["attributes"] == {"pairs": 5}
        doc["attributes"]["other"] = 1
        assert "other" not in span.attributes

    def test_trace_id_only_present_when_set(self):
        kwargs = dict(
            span_id=1, parent_id=None, name="x", start_unix_s=0.0, duration_s=0.0
        )
        assert "trace_id" not in Span(**kwargs).to_dict()
        assert Span(**kwargs, trace_id="abc").to_dict()["trace_id"] == "abc"


class TestTraceId:
    def test_tracer_stamps_spans_and_records(self):
        t = Tracer(trace_id="deadbeef")
        with t.span("outer"):
            t.record("inner", 0.01)
        assert all(s.trace_id == "deadbeef" for s in t.spans)

    def test_default_tracer_leaves_trace_id_unset(self):
        t = Tracer()
        with t.span("outer"):
            pass
        assert t.spans[0].trace_id is None


class TestJsonLinesExport:
    def test_export_round_trips(self):
        t = Tracer()
        with t.span("mbr_filter", kind="stage"):
            t.record("geometry.hw_batch", 0.1, pairs=1)
        buf = io.StringIO()
        t.export(buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        decoded = [json.loads(line) for line in lines]
        for obj in decoded:
            assert set(obj) == {
                "span_id",
                "parent_id",
                "name",
                "start_unix_s",
                "duration_s",
                "attributes",
            }

    def test_exporter_to_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer()
        t.record("s", 1.0)
        assert t.export(str(path)) == 1
        assert json.loads(path.read_text())["name"] == "s"

    def test_fresh_exporter_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("stale line\n")
        t = Tracer()
        t.record("new", 1.0)
        t.export(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "new"


class TestGlobalTracer:
    def test_default_is_off(self):
        assert current_scope().tracer is None

    def test_use_tracer_installs_and_restores(self):
        t = Tracer()
        with use_tracer(t):
            assert current_scope().tracer is t
            nested = Tracer()
            with use_tracer(nested):
                assert current_scope().tracer is nested
            assert current_scope().tracer is t
        assert current_scope().tracer is None

    def test_time_stage_emits_spans_with_zero_call_site_changes(self):
        c = CostBreakdown()
        t = Tracer()
        with use_tracer(t):
            with c.time_stage("mbr_filter"):
                pass
            with c.time_stage("geometry"):
                pass
        assert [s.name for s in t.spans] == ["mbr_filter", "geometry"]
        assert all(s.attributes.get("kind") == "stage" for s in t.spans)

    def test_time_stage_without_tracer_untraced(self):
        c = CostBreakdown()
        with c.time_stage("geometry"):
            pass
        assert c.geometry_s >= 0.0


class TestExportTargets:
    """Tracer.export accepts a path or an open file, and writes the same."""

    def test_export_to_path_or_open_file_writes_the_same_lines(self, tmp_path):
        tracer = Tracer(trace_id="t1")
        with tracer.span("outer"):
            tracer.record("stage", 0.5, pairs=3)
        out = tmp_path / "spans.jsonl"
        assert tracer.export(str(out)) == 2
        buf = io.StringIO()
        assert tracer.export(buf) == 2
        assert out.read_text() == buf.getvalue()
        lines = buf.getvalue().splitlines()
        # One sorted-key JSON object per span, in finish order.
        assert lines == [json.dumps(s.to_dict(), sort_keys=True) for s in tracer.spans]
        assert [json.loads(line)["name"] for line in lines] == ["stage", "outer"]
