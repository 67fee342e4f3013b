"""Tests for the trace-tree analyzer and its CLI."""

import io

import pytest

from repro.obs import Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    analyze,
    build_tree,
    load_spans,
    render_report,
    render_rollups,
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
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record("inner", 0.01)
        tracer.export(str(path))
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
        assert "span tree" in text
        assert "geometry.hw_batch" in text

    def test_rollup_limit(self):
        text = render_rollups(build_tree(SAMPLE), limit=1)
        assert "query" in text
        assert "mbr_filter" not in text


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer()
        tracer.record("stage", 0.02)
        tracer.export(str(path))
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "== per-stage rollup ==" in out

    def test_report_command_missing_file(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_report_limit_must_be_positive(self, tmp_path, capsys, limit):
        # Passed to the slice, 0 would print every row and -1 drop the last.
        path = tmp_path / "spans.jsonl"
        tracer = Tracer()
        tracer.record("stage", 0.02)
        tracer.export(str(path))
        with pytest.raises(SystemExit) as exc:
            obs_main(["report", str(path), "--limit", limit])
        assert exc.value.code == 2
        assert "argument --limit: must be >= 1" in capsys.readouterr().err
