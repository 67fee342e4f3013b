"""Tests for the Chrome trace-event (catapult) timeline exporter."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    summarize_timeline,
    timeline_from_spans,
    write_timeline,
)


def span(span_id, name, start, duration, parent_id=None, trace_id=None, **attrs):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_unix_s": start,
        "duration_s": duration,
        "attributes": attrs,
        "trace_id": trace_id,
    }


REQUEST_TRACE = [
    span(1, "request", 100.0, 1.0, worker=1, op="join", trace_id="abc"),
    span(2, "execute", 100.1, 0.9, parent_id=1, trace_id="abc"),
    span(3, "geometry", 100.2, 0.7, parent_id=2, trace_id="abc"),
    span(4, "geometry.hw_batch", 100.2, 0.4, parent_id=3, trace_id="abc"),
    span(5, "gpu.tile_batch", 100.2, 0.3, parent_id=4, trace_id="abc"),
]


def events(doc, ph="X"):
    return [e for e in doc["traceEvents"] if e["ph"] == ph]


class TestLanes:
    def test_worker_root_becomes_process_lane(self):
        doc = timeline_from_spans(REQUEST_TRACE)
        names = {
            e["args"]["name"]
            for e in events(doc, ph="M")
            if e["name"] == "process_name"
        }
        assert names == {"engine worker 1"}
        assert {e["tid"] for e in events(doc)} == {0}

    def test_workerless_spans_share_main_lane(self):
        doc = timeline_from_spans([span(1, "query", 50.0, 0.5)])
        names = {
            e["args"]["name"]
            for e in events(doc, ph="M")
            if e["name"] == "process_name"
        }
        assert names == {"main"}

    def test_two_workers_two_lanes(self):
        spans = [
            span(1, "request", 100.0, 1.0, worker=0, trace_id="a"),
            span(1, "request", 100.0, 1.0, worker=1, trace_id="b"),
        ]
        # build_tree keys nodes by span_id, so distinct requests must use
        # namespaced ids (what QueryService.export_traces emits).
        spans[0]["span_id"] = "a:1"
        spans[1]["span_id"] = "b:1"
        doc = timeline_from_spans(spans)
        assert doc["metadata"]["processes"] == 2


class TestEvents:
    def test_timestamps_relative_microseconds(self):
        doc = timeline_from_spans(REQUEST_TRACE)
        root = next(e for e in events(doc) if e["name"] == "request")
        exec_e = next(e for e in events(doc) if e["name"] == "execute")
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(1e6)
        assert exec_e["ts"] == pytest.approx(0.1e6)
        assert doc["metadata"]["start_unix_s"] == 100.0

    def test_args_carry_attributes_and_trace_id(self):
        doc = timeline_from_spans(REQUEST_TRACE)
        root = next(e for e in events(doc) if e["name"] == "request")
        assert root["args"]["trace_id"] == "abc"
        assert root["args"]["op"] == "join"

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no spans"):
            timeline_from_spans([])

    def test_accepts_live_spans(self):
        tracer = Tracer(trace_id="xyz")
        with tracer.span("outer"):
            tracer.record("inner", 0.01)
        doc = timeline_from_spans([s.to_dict() for s in tracer.spans])
        assert {e["name"] for e in events(doc)} == {"outer", "inner"}

    def test_schema_tag(self):
        doc = timeline_from_spans(REQUEST_TRACE)
        assert doc["metadata"]["schema"] == TIMELINE_SCHEMA


class TestWriteAndSummary:
    def test_write_timeline_valid_json(self, tmp_path):
        out = tmp_path / "timeline.json"
        doc = write_timeline(str(out), REQUEST_TRACE)
        loaded = json.loads(out.read_text())
        assert loaded == doc
        assert loaded["displayTimeUnit"] == "ms"

    def test_write_timeline_from_span_file(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        tracer = Tracer()
        tracer.record("stage", 0.02)
        tracer.export(str(trace))
        doc = write_timeline(str(tmp_path / "t.json"), str(trace))
        assert doc["metadata"]["spans"] == 1

    def test_summary_line(self):
        text = summarize_timeline(timeline_from_spans(REQUEST_TRACE))
        assert "5 spans" in text
        assert "1 process lane(s)" in text


class TestCli:
    def test_timeline_command(self, tmp_path, capsys):
        trace = tmp_path / "spans.jsonl"
        tracer = Tracer()
        with tracer.span("request"):
            tracer.record("stage", 0.01)
        tracer.export(str(trace))
        out = tmp_path / "timeline.json"
        assert obs_main(["timeline", str(trace), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "timeline written to" in stdout
        doc = json.loads(out.read_text())
        assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == {
            "request",
            "stage",
        }

    def test_timeline_command_missing_file(self, tmp_path, capsys):
        assert obs_main(["timeline", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
