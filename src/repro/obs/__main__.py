"""Command-line entry points for the observability layer.

Examples::

    python -m repro.obs report trace.jsonl
    python -m repro.obs report trace.jsonl --tree --limit 20 --top 5
    python -m repro.obs timeline trace.jsonl --out timeline.json
    python -m repro.obs compare baseline.json current.json
    python -m repro.obs explain run-report.json --json explain.json
    python -m repro.obs replay capture.jsonl
"""

from __future__ import annotations

import argparse
import sys

from .cli import run_main
from .compare import compare_reports
from .explain import funnels_from_snapshot, render_funnels, write_explain
from .report import analyze, render_report
from .runreport import load_run_report


def _at_least(minimum: int):
    """An argparse type: an integer count no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        report = analyze(args.trace)
        rendered = render_report(
            report, tree=args.tree, limit=args.limit, top=args.top
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rendered)
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .timeline import summarize_timeline, write_timeline

    try:
        doc = write_timeline(args.out, args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_timeline(doc))
    print(f"timeline written to {args.out} (load in chrome://tracing)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        baseline = load_run_report(args.baseline)
        current = load_run_report(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comparison = compare_reports(baseline, current)
    print(comparison.format())
    return 0 if comparison.ok else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    try:
        report = load_run_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = report.get("experiments", [])
    if args.experiment is not None:
        known = [e.get("experiment_id") for e in entries]
        entries = [e for e in entries if e.get("experiment_id") == args.experiment]
        if not entries:
            print(
                f"error: no experiment {args.experiment!r} in report"
                f" (have: {known})",
                file=sys.stderr,
            )
            return 2
    funnels = funnels_from_snapshot(*(e.get("metrics", {}) for e in entries))
    print(render_funnels(funnels))
    if args.json is not None:
        doc = write_explain(args.json, funnels, source=args.report)
        print(f"explain JSON written to {args.json}")
    else:
        doc = {"ok": not [v for f in funnels.values() for v in f.check()]}
    if not funnels:
        return 2
    return 0 if doc["ok"] else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from .capture import replay_capture

    try:
        result = replay_capture(args.capture)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    for mismatch in result.mismatches[: args.limit]:
        print(f"  {mismatch}")
    if len(result.mismatches) > args.limit:
        print(f"  ... {len(result.mismatches) - args.limit} more")
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace-tree reports and RunReport regression gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="analyze a JSON-lines trace (rollups + critical path)"
    )
    report.add_argument("trace", help="span file written by --trace-out (JSONL)")
    report.add_argument(
        "--tree", action="store_true", help="also print the span tree"
    )
    report.add_argument(
        "--limit",
        type=_at_least(1),
        default=None,
        help="rollup rows to show (default all)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=None,
        help="also print the N heaviest span names by self time "
        "(keeps serve-scale rollups readable)",
    )
    report.set_defaults(func=_cmd_report)

    timeline = sub.add_parser(
        "timeline",
        help="export a span JSONL as chrome://tracing-loadable trace-event JSON",
    )
    timeline.add_argument(
        "trace", help="span file (JSONL) from --trace-out or serve --trace-out"
    )
    timeline.add_argument(
        "--out",
        default="timeline.json",
        help="output path for the catapult JSON (default: timeline.json)",
    )
    timeline.set_defaults(func=_cmd_timeline)

    compare = sub.add_parser(
        "compare", help="diff two RunReports; exit 1 on any deterministic drift"
    )
    compare.add_argument("baseline", help="baseline RunReport JSON")
    compare.add_argument("current", help="current RunReport JSON")
    compare.set_defaults(func=_cmd_compare)

    explain = sub.add_parser(
        "explain", help="EXPLAIN ANALYZE funnels from a RunReport"
    )
    explain.add_argument("report", help="RunReport JSON (--report-out)")
    explain.add_argument(
        "--experiment",
        default=None,
        help="explain one experiment's entry instead of every entry merged",
    )
    explain.add_argument(
        "--json", default=None, help="also write the explain document here"
    )
    explain.set_defaults(func=_cmd_explain)

    replay = sub.add_parser(
        "replay",
        help="replay a command-stream capture; exit 1 unless bit-identical",
    )
    replay.add_argument(
        "capture", help="JSONL capture written by --capture-out"
    )
    replay.add_argument(
        "--limit", type=_at_least(0), default=20, help="mismatch lines to print"
    )
    replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(run_main(main))
