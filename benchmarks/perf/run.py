"""The repo benchmark: one command, five workloads, calibrated metrics.

Three ways to run it, one code path::

    # one workload, the driver's form: the last line printed is one JSON
    # object {"correct", "attempted", "failed", "metrics"}
    python3 benchmarks/perf/run.py --workload join-wp --seed 1 --seconds 10 --trace 0

    # every workload, each in its own process; writes bench-out/BENCH.json
    python3 benchmarks/perf/run.py [--trace] [--smoke] [--seed N] [--runs R] [--out PATH]

    # did B get worse than A
    python3 benchmarks/perf/run.py compare A.json B.json

See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SECONDS = 1.0
SCHEMA = "repro.perfbench/report@1"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", default=None,
        help="run this one workload in this process (default: all, one "
        "child process each)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="orders datasets and ops (default: none = catalog order)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="nominal measuring time; fixes the op count (default: 10)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: the traced per-layer run instead of the end-to-end run",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="with --trace: write the collected spans here as JSON lines "
        "(full run: one file per workload, the name inserted before the "
        "suffix)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the detailed report here (full run default: "
        "bench-out/BENCH.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="two segments per workload and one set-up repetition",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="full run only: run every workload this many times (seeds "
        "SEED, SEED+1, ...) and report each metric's median and its "
        "inter-quartile spread across the runs; what compare needs to "
        "tell a change from the host's weather",
    )
    return parser


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, here and in every child (the server too)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _write(path: str, payload: Dict[str, Any]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _print_report(report: Dict[str, Any]) -> None:
    print(
        f"{report['workload']}  seed={report['seed']}  "
        f"ops checked={report['attempted']}  failed={report['failed']}"
    )
    for name, entry in report["metrics"].items():
        extras = "  ".join(
            f"{key}={entry[key]:.6g}" if isinstance(entry[key], float)
            else f"{key}={entry[key]}"
            for key in ("raw", "samples", "spread")
            if key in entry
        )
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<10} {extras}")


def run_workload(args: argparse.Namespace) -> int:
    """Driver form: one workload, in this process."""
    _pin_threads()
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    from spec import DEFAULT_SECONDS, END_TO_END, SETUP_REPETITIONS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seconds = args.seconds if args.seconds is not None else DEFAULT_SECONDS
    if args.smoke:
        seconds = SMOKE_SECONDS
    if args.trace:
        report = measure.per_layer(
            args.workload, args.seed, seconds, trace_out=args.trace_out
        )
        shown = list(report["metrics"])
    else:
        report = measure.end_to_end(
            args.workload, args.seed, seconds,
            repetitions=1 if args.smoke else SETUP_REPETITIONS,
        )
        shown = [m.name for m in END_TO_END if m.in_driver]
    return emit(report, shown, args.out)


def emit(report: Dict[str, Any], shown: List[str], out: Optional[str]) -> int:
    """Print the report, then the driver's JSON line; the exit code."""
    _print_report(report)
    if out is not None:
        _write(out, report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {
                "value": report["metrics"][name]["value"],
                "unit": report["metrics"][name]["unit"],
            }
            for name in shown
        },
    }))
    return 0 if report["correct"] else 1


def _host() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def merge_runs(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Several runs of one workload as one report.

    A metric's value is the median over the runs and its ``spread`` their
    inter-quartile distance over that median (instead of one run's spread
    across segments); an exact metric (bound 0) takes its worst run, so one
    failed op or one moved count still shows.
    """
    from spec import E2E_BY_NAME
    from timing import spread

    if len(reports) == 1:
        return reports[0]
    merged = dict(reports[-1])
    merged["seed"] = [r["seed"] for r in reports]
    merged["attempted"] = sum(r["attempted"] for r in reports)
    merged["failed"] = sum(r["failed"] for r in reports)
    merged["correct"] = all(r["correct"] for r in reports)
    merged["metrics"] = {}
    for name in reports[0]["metrics"]:
        entries = [r["metrics"][name] for r in reports if name in r["metrics"]]
        values = [e["value"] for e in entries]
        entry = dict(entries[-1], runs=values)
        if name in E2E_BY_NAME and E2E_BY_NAME[name].bound == 0.0:
            entry["value"] = max(values)
        else:
            entry["value"] = statistics.median(values)
            entry["spread"] = spread(values)
        if "raw" in entry:
            entry["raw"] = statistics.median(e["raw"] for e in entries)
        merged["metrics"][name] = entry
    return merged


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh child so peak RSS is its own."""
    _pin_threads()
    from spec import DEFAULT_SECONDS, WORKLOADS

    out = args.out if args.out is not None else "bench-out/BENCH.json"
    out_dir = Path(out).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    status = 0
    # Run by run, not workload by workload: every workload's runs are
    # spread over the whole session's host weather.
    for run in range(args.runs):
        for name in WORKLOADS:
            part = out_dir / f"{Path(out).stem}.{name}.json"
            command: List[str] = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--trace", str(args.trace), "--out", str(part),
            ]
            if args.seed is not None:
                command += ["--seed", str(args.seed + run)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.trace_out is not None:
                spans = Path(args.trace_out)
                command += [
                    "--trace-out",
                    str(spans.with_name(f"{spans.stem}.{name}{spans.suffix}")),
                ]
            code = subprocess.run(command).returncode
            if code != 0:
                print(f"{name}: exited {code}", file=sys.stderr)
                status = 1
            if part.exists():
                runs[name].append(json.loads(part.read_text()))
                part.unlink()
    reports = {name: merge_runs(parts) for name, parts in runs.items() if parts}
    _write(out, {
        "schema": SCHEMA,
        "mode": "per_layer" if args.trace else "end_to_end",
        "seed": args.seed,
        "runs": args.runs,
        "seconds": (
            SMOKE_SECONDS if args.smoke
            else args.seconds if args.seconds is not None else DEFAULT_SECONDS
        ),
        "host": _host(),
        "workloads": reports,
    })
    print(f"wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        import compare

        return compare.main(argv[1], argv[2])
    parser = _parser()
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.workload is not None:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
