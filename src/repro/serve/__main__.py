"""Command-line entry point for the serving layer.

Examples::

    python -m repro.serve serve --port 8753 --workers 2
    python -m repro.serve loadgen --rate 6 --duration 30 --report-out run.json
    python -m repro.serve loadgen --trace-out spans.jsonl --slowlog-out slow.jsonl
    python -m repro.serve ping --port 8753 --timeout 5
    python -m repro.serve serve --windowed --alerts-out alerts.jsonl
    python -m repro.serve top --port 8753    # one health + metrics poll, as JSON
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from ..bench.scales import DEFAULT_SCALE, SCALES
from ..obs.cli import run_main
from ..obs.runreport import write_run_report
from .engine import AdmissionConfig, WorkloadConfig
from .loadgen import LoadgenConfig, LoadResult, run_open_loop
from .health import HealthConfig
from .server import run_server, send_envelope
from .service import QueryService
from .slowlog import SlowLogConfig


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default=DEFAULT_SCALE,
        choices=sorted(SCALES),
        help=f"workload scale preset (default: {DEFAULT_SCALE})",
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
        "--max-queue",
        type=int,
        default=64,
        help="requests that may wait for an engine; arrivals beyond it are "
        "shed, and 0 means a request runs only on a free engine and never "
        "waits (default: 64)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds a queued request may wait for an engine "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="after the run, export retained request traces as span JSONL "
        "(turns per-request tracing on; analyze with 'python -m repro.obs "
        "report')",
    )
    parser.add_argument(
        "--slowlog-out",
        default=None,
        help="append slow-query forensics records (JSONL, schema "
        "repro.serve/slowlog@1) here",
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
        "the windowed and SLO sections of the 'health' envelope "
        "(default: off; the hot path then pays one None check)",
    )
    parser.add_argument(
        "--alerts-out",
        default=None,
        help="after the run, export SLO alert transitions as JSONL here "
        "(implies --windowed; schema repro.obs/alerts@1)",
    )


def _timeout_s(text: str) -> float:
    """An argparse type: a socket timeout, finite and >= 0 (0 = forever)."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0 (0 = wait forever), got {text}"
        )
    return value


def _build_service(args: argparse.Namespace) -> QueryService:
    workload = WorkloadConfig(
        scale=args.scale,
        use_intervals=args.intervals,
    )
    admission = AdmissionConfig(max_queue=args.max_queue, timeout_s=args.timeout)
    slowlog = (
        SlowLogConfig(threshold_s=args.slow_threshold, path=args.slowlog_out)
        if args.slowlog_out is not None
        else None
    )
    windowed = args.windowed or args.alerts_out is not None
    return QueryService(
        workload=workload,
        workers=args.workers,
        admission=admission,
        trace=args.trace_out is not None,
        slowlog=slowlog,
        health=HealthConfig() if windowed else None,
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
    if args.report_out:
        write_run_report(args.report_out, load.run_report(scale=args.scale))
        print(f"run report written to {args.report_out}")


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

    # The service commands take no abbreviations, so a removed flag such
    # as --trace is refused rather than read as a prefix of --trace-out.
    p_serve = sub.add_parser(
        "serve", help="run the TCP JSONL front-end", allow_abbrev=False
    )
    _add_service_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8753)

    p_load = sub.add_parser(
        "loadgen",
        help="open-loop fixed-arrival-rate load run (in-process)",
        allow_abbrev=False,
    )
    _add_service_args(p_load)
    p_load.add_argument(
        "--report-out",
        default=None,
        help="write a versioned RunReport JSON (gate with "
        "'python -m repro.obs compare')",
    )
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
        type=_timeout_s,
        default=30.0,
        help="socket timeout in seconds; 0 = wait forever (default: 30)",
    )

    p_top = sub.add_parser(
        "top",
        help="print a running server's health + metrics as one JSON document "
        "(exit 0 = ready, 1 = degraded, 2 = unreachable)",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=8753)
    p_top.add_argument(
        "--timeout",
        type=_timeout_s,
        default=30.0,
        help="socket timeout in seconds; 0 = wait forever (default: 30)",
    )

    args = parser.parse_args(argv)

    if args.command == "ping":
        timeout = None if args.timeout == 0 else args.timeout
        reply = send_envelope(args.host, args.port, {"kind": "ping"}, timeout=timeout)
        print(json.dumps(reply))
        return 0 if reply.get("kind") == "pong" else 1

    if args.command == "top":
        # One poll of the health and metrics envelopes.  A fetch error
        # goes to stderr, so stdout holds only the JSON document.
        timeout = None if args.timeout == 0 else args.timeout
        try:
            health = send_envelope(args.host, args.port, {"kind": "health"}, timeout=timeout)
            metrics = send_envelope(args.host, args.port, {"kind": "metrics"}, timeout=timeout)
            if health.get("kind") != "health":
                raise ValueError(f"unexpected reply to health poll: {health!r}")
            if metrics.get("kind") != "metrics":
                raise ValueError(f"unexpected reply to metrics poll: {metrics!r}")
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        doc = {"health": health["health"], "metrics": metrics["snapshot"]}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if doc["health"].get("ready") else 1

    load_config = None
    try:
        # An out-of-range load or service flag is a usage error, not a
        # crash; the load is checked first, before a service is built.
        if args.command == "loadgen":
            load_config = LoadgenConfig(
                rate=args.rate, duration_s=args.duration, seed=args.seed
            )
        service = _build_service(args)
    except ValueError as exc:
        (p_serve if args.command == "serve" else p_load).error(str(exc))

    if args.command == "serve":
        try:
            run_server(service, host=args.host, port=args.port)
        finally:
            service.close()
            _emit_forensics(service, args)
        return 0

    try:
        load = run_open_loop(service, load_config)
    finally:
        service.close()
    _emit(load, args)
    _emit_forensics(service, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(run_main(main))
