"""Command-line entry point for the experiment runner.

Examples::

    python -m repro.bench list
    python -m repro.bench table2
    python -m repro.bench fig12 --scale tiny
    python -m repro.bench batch-refine cache --scale tiny --report-out run.json
    python -m repro.bench cache --cache --scale tiny
    python -m repro.bench all --scale small --out results.txt
    python -m repro.bench table2 --scale tiny --report-out run.json
    python -m repro.bench table2 --scale tiny --capture-out cap.jsonl
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cache import CacheConfig
from ..obs.capture import CommandRecorder
from ..obs.cli import run_main
from ..obs.metrics import MetricsRegistry
from ..obs.runreport import (
    build_run_report,
    environment_fingerprint,
    experiment_entry,
    write_run_report,
)
from ..obs.scope import use_scope
from .runner import ALL_EXPERIMENTS, run_experiment
from .scales import DEFAULT_SCALE, SCALES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help="experiment id(s) (see 'list'), or 'list', or 'all'",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the repro.cache memoization layers for every engine "
        "this run constructs (answers are unchanged; redundant work is "
        "skipped)",
    )
    parser.add_argument(
        "--scale",
        default=DEFAULT_SCALE,
        choices=sorted(SCALES),
        help=f"workload scale preset (default: {DEFAULT_SCALE})",
    )
    parser.add_argument("--out", help="also append formatted results to this file")
    parser.add_argument(
        "--report-out",
        help="write a versioned RunReport JSON (rows + per-experiment metrics "
        "+ environment fingerprint; explain and gate it with repro.obs)",
    )
    parser.add_argument(
        "--capture-out",
        help="record the GPU command stream to this JSONL capture "
        "(replayable via 'python -m repro.obs replay')",
    )
    args = parser.parse_args(argv)

    if args.experiment == ["list"]:
        for name, declared in ALL_EXPERIMENTS.items():
            axes = ", ".join(f"{k}={v!r}" for k, v in declared.axes.items())
            print(f"{name}: {declared.title}\n    axes: {axes or '-'}")
        return 0

    if "all" in args.experiment:
        names = list(ALL_EXPERIMENTS)
    else:
        names = list(dict.fromkeys(args.experiment))  # keep order, dedupe
        unknown = [n for n in names if n not in ALL_EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
                f"choose from {', '.join(ALL_EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2

    # Metric collection is opt-in: with no report requested, no registry
    # is in scope and the instrumented layers stay on their zero-overhead
    # path.  Likewise capture: the flight recorder only exists (and only
    # costs anything) when --capture-out names a file.
    recorder = CommandRecorder(args.capture_out) if args.capture_out else None
    cache = CacheConfig() if args.cache else CacheConfig.disabled()
    entries = []

    outputs = []
    for name in names:
        # One fresh registry per experiment so each report entry carries
        # only its own metrics; a reader merges the entries for run totals.
        exp_registry = MetricsRegistry() if args.report_out else None
        start = time.perf_counter()
        with use_scope(registry=exp_registry, recorder=recorder):
            result = run_experiment(name, args.scale, cache=cache)
        elapsed = time.perf_counter() - start
        if exp_registry is not None:
            entries.append(experiment_entry(result, exp_registry.snapshot(), elapsed))
        text = result.format() + f"\n(driver wall time: {elapsed:.1f} s)\n"
        print(text)
        outputs.append(text)

    if recorder is not None:
        log = recorder.log
        print(
            f"capture written to {args.capture_out} ({log.added} event(s)"
            f" written, {log.added - log.evicted} kept in memory)"
        )

    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write("\n".join(outputs) + "\n")
    if args.report_out:
        report = build_run_report(
            entries,
            scale=args.scale,
            environment=environment_fingerprint(scale=args.scale),
        )
        write_run_report(args.report_out, report)
        print(f"run report written to {args.report_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_main(main))
