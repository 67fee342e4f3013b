"""Command-line entry point for the serving layer.

Examples::

    python -m repro.serve serve --port 8753 --workers 2
    python -m repro.serve loadgen --rate 6 --duration 30 --report-out run.json
    python -m repro.serve loadgen --trace-out spans.jsonl --slowlog-out slow.jsonl
    python -m repro.serve slowlog slow.jsonl --top 5
    python -m repro.serve ping --port 8753 --timeout 5
    python -m repro.serve serve --windowed --alerts-out alerts.jsonl
    python -m repro.serve top --port 8753            # live dashboard
    python -m repro.serve top --once --json          # one machine-readable poll
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..bench.scales import DEFAULT_SCALE, SCALES
from ..cache import CacheConfig
from ..filters.intervals import DEFAULT_INTERVAL_LEVEL
from ..obs.runreport import write_run_report
from ..obs.slo import default_objectives
from .admission import AdmissionConfig
from .engine import WorkloadConfig
from .loadgen import LoadgenConfig, LoadResult, run_open_loop
from .health import HealthConfig
from .server import run_server, send_envelope
from .service import QueryService
from .slowlog import SlowLogConfig, load_slowlog, summarize_slowlog
from .top import run_top


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default=DEFAULT_SCALE,
        choices=sorted(SCALES),
        help=f"workload scale preset (default: {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--engine",
        default="hardware",
        choices=("hardware", "software"),
        help="refinement engine kind (default: hardware)",
    )
    parser.add_argument(
        "--resolution",
        type=int,
        default=8,
        help="hardware window resolution (default: 8)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="engine-pool width: persistent engines (default: 2)",
    )
    parser.add_argument(
        "--intervals",
        action="store_true",
        help="enable the raster-interval second filter on the selection "
        "and join pipelines (results are bit-identical either way)",
    )
    parser.add_argument(
        "--interval-level",
        type=int,
        default=DEFAULT_INTERVAL_LEVEL,
        help="interval-filter grid refinement: 2^level cells per side "
        f"(default: {DEFAULT_INTERVAL_LEVEL})",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the repro.cache memoization layers (default: off; "
        "note: cache hits depend on request-to-engine assignment, so "
        "reports are only counter-deterministic with caching off)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission queue bound; arrivals beyond it are shed (default: 64)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds a queued request may wait for an engine "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="prime every pool engine with one request before serving",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="per-request tracing: every request gets its own tracer and "
        "a trace_id echoed on the response (default: off)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="after the run, export retained request traces as span JSONL "
        "(implies --trace; analyze with 'python -m repro.obs report' or "
        "'python -m repro.obs timeline')",
    )
    parser.add_argument(
        "--slowlog-out",
        default=None,
        help="append slow-query forensics records (JSONL) here; "
        "summarize with 'python -m repro.serve slowlog'",
    )
    parser.add_argument(
        "--slow-threshold",
        type=float,
        default=0.25,
        help="seconds an ok request may take before it is slow-logged "
        "(shed/timeout/error are always logged; default: 0.25)",
    )
    parser.add_argument(
        "--windowed",
        action="store_true",
        help="windowed per-op telemetry + SLO burn-rate alerting: enables "
        "the rich 'health' envelope and 'python -m repro.serve top' "
        "(default: off; the hot path then pays one None check)",
    )
    parser.add_argument(
        "--window-width",
        type=float,
        default=10.0,
        help="seconds per windowed-telemetry bucket (default: 10)",
    )
    parser.add_argument(
        "--window-buckets",
        type=int,
        default=6,
        help="buckets in the windowed-telemetry ring (default: 6)",
    )
    parser.add_argument(
        "--slo-fast",
        type=float,
        default=60.0,
        help="fast burn-rate window span, seconds (default: 60)",
    )
    parser.add_argument(
        "--slo-slow",
        type=float,
        default=3600.0,
        help="slow burn-rate window span, seconds (default: 3600)",
    )
    parser.add_argument(
        "--slo-availability",
        type=float,
        default=0.99,
        help="availability SLO target fraction (default: 0.99)",
    )
    parser.add_argument(
        "--slo-latency",
        type=float,
        default=2.5,
        help="latency SLO 'fast enough' bound, seconds (default: 2.5)",
    )
    parser.add_argument(
        "--burn-threshold",
        type=float,
        default=2.0,
        help="burn rate both SLO windows must exceed to fire (default: 2.0)",
    )
    parser.add_argument(
        "--alerts-out",
        default=None,
        help="after the run, export SLO alert transitions as JSONL here "
        "(implies --windowed; schema repro.obs/alerts@1)",
    )


def _build_service(args: argparse.Namespace) -> QueryService:
    workload = WorkloadConfig(
        scale=args.scale,
        engine=args.engine,
        resolution=args.resolution,
        cache=CacheConfig() if args.cache else CacheConfig.disabled(),
        use_intervals=args.intervals,
        interval_level=args.interval_level,
    )
    admission = AdmissionConfig(max_queue=args.max_queue, timeout_s=args.timeout)
    slowlog = (
        SlowLogConfig(threshold_s=args.slow_threshold, path=args.slowlog_out)
        if args.slowlog_out is not None
        else None
    )
    health = None
    if args.windowed or args.alerts_out is not None:
        health = HealthConfig(
            window_width_s=args.window_width,
            window_buckets=args.window_buckets,
            slo_fast_s=args.slo_fast,
            slo_slow_s=args.slo_slow,
            burn_threshold=args.burn_threshold,
            objectives=default_objectives(
                availability_target=args.slo_availability,
                latency_threshold_s=args.slo_latency,
            ),
        )
    return QueryService(
        workload=workload,
        workers=args.workers,
        admission=admission,
        warm=args.warm,
        trace=args.trace or args.trace_out is not None,
        slowlog=slowlog,
        health=health,
    )


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--report-out",
        default=None,
        help="write a versioned RunReport JSON (gate with "
        "'python -m repro.obs compare')",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the service's metrics snapshot as JSON",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also append the formatted result table to this file",
    )


def _emit(load: LoadResult, args: argparse.Namespace) -> None:
    text = load.result.format()
    counts = load.status_counts
    text += (
        f"\nstatuses: ok={counts['ok']} shed={counts['shed']}"
        f" timeout={counts['timeout']} error={counts['error']}"
        f" (wall {load.wall_s:.1f} s)\n"
    )
    print(text)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(text + "\n")
    if args.report_out:
        write_run_report(args.report_out, load.run_report(scale=args.scale))
        print(f"run report written to {args.report_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            json.dump(load.metrics_snapshot, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"metrics snapshot written to {args.metrics_out}")


def _emit_forensics(service: QueryService, args: argparse.Namespace) -> None:
    """Export traces / report slowlog volume after a load run."""
    if getattr(args, "trace_out", None):
        count = service.export_traces(args.trace_out)
        print(
            f"{count} span(s) from {len(service.traces)} request trace(s)"
            f" written to {args.trace_out}"
        )
    if getattr(args, "slowlog_out", None) and service.slowlog is not None:
        print(
            f"{service.slowlog.added} slow-query record(s) appended to"
            f" {args.slowlog_out}"
        )
    if getattr(args, "alerts_out", None) and service.health_monitor is not None:
        count = service.export_alerts(args.alerts_out)
        print(f"{count} alert transition(s) written to {args.alerts_out}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent query service over the spatial engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the TCP JSONL front-end")
    _add_service_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8753)

    p_load = sub.add_parser(
        "loadgen", help="open-loop fixed-arrival-rate load run (in-process)"
    )
    _add_service_args(p_load)
    _add_output_args(p_load)
    p_load.add_argument(
        "--rate", type=float, default=8.0, help="arrivals per second"
    )
    p_load.add_argument(
        "--duration", type=float, default=10.0, help="schedule length, seconds"
    )
    p_load.add_argument(
        "--seed", type=int, default=2003, help="schedule RNG seed"
    )

    p_ping = sub.add_parser("ping", help="liveness-check a running server")
    p_ping.add_argument("--host", default="127.0.0.1")
    p_ping.add_argument("--port", type=int, default=8753)
    p_ping.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds; 0 = wait forever (default: 30)",
    )

    p_top = sub.add_parser(
        "top", help="live dashboard over a running server's health + metrics"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=8753)
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls in the live loop (default: 2)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (0 = ready, 1 = degraded)",
    )
    p_top.add_argument(
        "--json",
        action="store_true",
        help="with --once: print the raw health+metrics document instead",
    )
    p_top.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds; 0 = wait forever (default: 30)",
    )

    p_slow = sub.add_parser(
        "slowlog", help="summarize a slow-query forensics log (JSONL)"
    )
    p_slow.add_argument("log", help="file written by --slowlog-out")
    p_slow.add_argument(
        "--top", type=int, default=5, help="slowest requests to show (default: 5)"
    )

    args = parser.parse_args(argv)

    if args.command == "slowlog":
        try:
            records = load_slowlog(args.log)
            print(summarize_slowlog(records, top=args.top))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "ping":
        timeout = None if args.timeout == 0 else args.timeout
        reply = send_envelope(args.host, args.port, {"kind": "ping"}, timeout=timeout)
        print(json.dumps(reply))
        return 0 if reply.get("kind") == "pong" else 1

    if args.command == "top":
        timeout = None if args.timeout == 0 else args.timeout
        return run_top(
            args.host,
            args.port,
            interval_s=args.interval,
            once=args.once,
            as_json=args.json,
            timeout=timeout,
        )

    try:
        service = _build_service(args)
    except ValueError as exc:
        # An out-of-range service flag is a usage error, not a crash.
        (p_serve if args.command == "serve" else p_load).error(str(exc))

    if args.command == "serve":
        try:
            run_server(service, host=args.host, port=args.port)
        finally:
            service.close()
            _emit_forensics(service, args)
        return 0

    try:
        load = run_open_loop(
            service,
            LoadgenConfig(rate=args.rate, duration_s=args.duration, seed=args.seed),
        )
    finally:
        service.close()
    _emit(load, args)
    _emit_forensics(service, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
