"""Tests for the trace-tree analyzer and its CLI."""

import io

import pytest

from repro.obs import JsonLinesExporter, Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    analyze,
    build_tree,
    load_spans,
    render_report,
    render_rollups,
    render_top_self,
)


def span(span_id, name, duration_s, parent_id=None, **attributes):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_unix_s": 1000.0,
        "duration_s": duration_s,
        "attributes": attributes,
    }


SAMPLE = [
    span(1, "query", 1.0),
    span(2, "mbr_filter", 0.2, parent_id=1),
    span(3, "geometry", 0.7, parent_id=1),
    span(4, "geometry.hw_batch", 0.4, parent_id=3),
    span(5, "geometry.hw_batch", 0.25, parent_id=3),
]


class TestLoadSpans:
    def test_reads_jsonl(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(JsonLinesExporter(str(path)))
        with tracer.span("outer"):
            tracer.record("inner", 0.01)
        spans = load_spans(str(path))
        assert [s["name"] for s in spans] == ["inner", "outer"]

    def test_skips_blank_lines(self):
        spans = load_spans(
            io.StringIO('{"span_id": 1, "name": "a", "duration_s": 0.1}\n\n')
        )
        assert len(spans) == 1

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="<stream>:1: not valid JSON"):
            load_spans(io.StringIO("not json\n"))

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            load_spans(io.StringIO('{"span_id": 1}\n'))


class TestTree:
    def test_parenting(self):
        report = build_tree(SAMPLE)
        assert len(report.roots) == 1
        root = report.roots[0]
        assert root.name == "query"
        assert [c.name for c in root.children] == ["mbr_filter", "geometry"]
        assert report.orphans == 0

    def test_self_vs_child_time(self):
        report = build_tree(SAMPLE)
        root = report.roots[0]
        assert root.child_s == pytest.approx(0.9)
        assert root.self_s == pytest.approx(0.1)

    def test_rollups_aggregate_by_name(self):
        report = build_tree(SAMPLE)
        rollup = {r.name: r for r in report.rollups}["geometry.hw_batch"]
        assert rollup.calls == 2
        assert rollup.total_s == pytest.approx(0.65)
        assert rollup.min_s == pytest.approx(0.25)
        assert rollup.max_s == pytest.approx(0.4)
        # Heaviest total first.
        assert report.rollups[0].name == "query"

    def test_critical_path_follows_heaviest_child(self):
        report = build_tree(SAMPLE)
        assert [n.name for n in report.critical_path] == [
            "query",
            "geometry",
            "geometry.hw_batch",
        ]
        assert report.critical_path[-1].duration_s == pytest.approx(0.4)

    def test_orphans_promoted_to_roots(self):
        report = build_tree([span(7, "stray", 0.1, parent_id=99)])
        assert report.orphans == 1
        assert [r.name for r in report.roots] == ["stray"]

    def test_analyze_accepts_live_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        report = analyze(tracer.spans)
        assert [r.name for r in report.roots] == ["outer"]
        assert report.roots[0].children[0].name == "inner"


class TestRendering:
    def test_report_sections(self):
        text = render_report(build_tree(SAMPLE), tree=True)
        assert "per-stage rollup" in text
        assert "critical path" in text
        assert "span tree" in text
        assert "geometry.hw_batch" in text

    def test_rollup_limit(self):
        text = render_rollups(build_tree(SAMPLE), limit=1)
        assert "query" in text
        assert "mbr_filter" not in text


class TestTopSelf:
    # Self times in SAMPLE: geometry.hw_batch 0.65, mbr_filter 0.2,
    # query 0.1 (1.0 - 0.9 of children), geometry 0.05 (0.7 - 0.65).
    def test_ranked_by_self_time_not_total(self):
        lines = render_top_self(build_tree(SAMPLE), 3).splitlines()
        assert lines[0].startswith("1. geometry.hw_batch")
        assert lines[1].startswith("2. mbr_filter")
        # "query" has the largest *total* but only 0.1 s of self time.
        assert lines[2].startswith("3. query")

    def test_truncates_to_n(self):
        assert len(render_top_self(build_tree(SAMPLE), 1).splitlines()) == 1

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            render_top_self(build_tree(SAMPLE), 0)

    def test_empty_report(self):
        assert render_top_self(build_tree([]), 5) == "(no spans)"

    def test_render_report_top_section(self):
        text = render_report(build_tree(SAMPLE), top=2)
        assert "== top 2 by self time ==" in text
        assert text.index("top 2 by self time") < text.index("per-stage rollup")


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        Tracer(JsonLinesExporter(str(path))).record("stage", 0.02)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "critical path" in out

    def test_report_command_missing_file(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_command_top(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(JsonLinesExporter(str(path)))
        tracer.record("fast", 0.01)
        tracer.record("slow", 0.5)
        assert obs_main(["report", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "== top 1 by self time ==" in out
        assert "1. slow" in out
