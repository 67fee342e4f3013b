"""In-process probe of the minor page faults a direct workload's op takes.

A fresh NumPy array that the allocator hands out from newly mapped pages
costs one minor fault per 4 KiB page on first touch; an op that allocates
its large intermediates afresh pays that on every call.  This probe runs
each direct workload of ``benchmarks/perf``, at seed 1, in the
benchmark's order - build (which runs op 0), the software oracle, a
warm-up of one op per distinct op (31 on ``sel-water``, one on each
join), so every query has run once - and then ``--ops`` ops, reading
``resource.getrusage`` around each.  It prints JSON, per workload:

* ``minflt_per_op`` - minor faults per op, the whole op;
* one entry per stage span of :data:`SPANS` - the faults taken inside the
  pipeline's ``mbr_filter`` and ``intermediate_filter`` stages and inside
  refinement's stage spans (``geometry.pip``, ``geometry.hw_batch``,
  ``geometry.sweep``, ``geometry.mindist``), read at span enter and exit
  by a stand-in tracer that keeps no span;
* ``gather`` / ``kernel`` - the part of ``geometry.hw_batch`` taken inside
  the atlas's edge gather (``repro.gpu.tiled._gather``) and its coverage
  kernel (the ``edges_coverage_masks_grouped`` the atlas calls);
* ``rest`` - everything else in the op (outside every span above).

Each workload runs in a process of its own (what one workload leaves in
the allocator changes the next one's count), and every measured process
runs with glibc's allocator pinned (``MALLOC_ENV``): the mmap threshold
fixed at 128 KiB, so each allocation that large is mapped afresh and a
large temporary the code takes per op is counted every op, and the trim
threshold at 1 GiB, so freed heap memory is not handed back and touched
again.  With the default, dynamic thresholds one tree read either 0 or
~300 faults per ``wd-ll`` op, depending on what the allocator had seen
before; with the mmap threshold alone, one ``wd-ll`` process in ten read
~1 240 instead of 0-60, all outside the atlas.  The probe starts its own
child when it is not already running under that setting; the setting is
the probe's, not the package's.  The split wraps those two module
attributes for the measured ops only.
``--max-faults N`` exits 1 when a workload's ``minflt_per_op`` is above
``N``.  Linux only (``ru_minflt``).  Run from the repository root::

    PYTHONPATH=src python benchmarks/fault_probe.py --workload join-wp
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf"))

import direct  # noqa: E402  (benchmarks/perf, on the path above)

import repro.gpu.tiled as tiled  # noqa: E402
from repro import use_tracer  # noqa: E402

#: The stage spans bracketed, in pipeline order; none nests in another.
SPANS = (
    "mbr_filter",
    "intermediate_filter",
    "geometry.pip",
    "geometry.hw_batch",
    "geometry.sweep",
    "geometry.mindist",
)

#: The wrapped callees: split name -> module attribute of repro.gpu.tiled.
SPLIT = {"gather": "_gather", "kernel": "edges_coverage_masks_grouped"}

#: glibc's allocator settings every measured process runs under (see above).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "1073741824"}


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counting(fn: Callable[..., Any], tally: Dict[str, int], name: str) -> Callable[..., Any]:
    """``fn``, adding the minor faults each call takes to ``tally[name]``."""

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        before = minflt()
        try:
            return fn(*args, **kwargs)
        finally:
            tally[name] += minflt() - before

    return wrapped


class FaultSpans:
    """A tracer stand-in: each span of :data:`SPANS` adds the minor faults
    taken inside it to ``tally[name]``; nothing is recorded."""

    def __init__(self, tally: Dict[str, int]) -> None:
        self.tally = tally

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[None]:
        before = minflt()
        try:
            yield None
        finally:
            if name in self.tally:
                self.tally[name] += minflt() - before

    def record(self, name: str, duration_s: float, **attributes: Any) -> None:
        """The atlas's ``gpu.tile_batch`` records: inside a bracketed span."""


def probe(name: str, ops: int) -> Dict[str, Any]:
    instance = direct.build(name, 1)
    instance.build_oracle()
    # A first pass faults as each query's batch first grows the arena;
    # the probe counts what a warm pipeline takes per op.
    warm = instance.distinct_ops()
    for k in range(1, 1 + warm):
        instance.run_op(k)
    spans = {span: 0 for span in SPANS}
    tally = {split: 0 for split in SPLIT}
    originals = {split: getattr(tiled, attr) for split, attr in SPLIT.items()}
    for split, attr in SPLIT.items():
        setattr(tiled, attr, counting(originals[split], tally, split))
    try:
        with use_tracer(FaultSpans(spans)):
            before = minflt()
            for k in range(1 + warm, 1 + warm + ops):
                result, _ = instance.run_op(k)
                if result != instance.expected(k):
                    raise RuntimeError(f"{name}: op {k} disagrees with the oracle")
            total = minflt() - before
    finally:
        for split, attr in SPLIT.items():
            setattr(tiled, attr, originals[split])
        instance.close()
    row = {"ops": ops, "minflt_per_op": round(total / ops, 1)}
    row.update({span: round(n / ops, 1) for span, n in spans.items()})
    row.update({split: round(n / ops, 1) for split, n in tally.items()})
    row["rest"] = round((total - sum(spans.values())) / ops, 1)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(direct._BUILDERS),
        help="a direct workload (repeatable; default: all four)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        help="measured ops (default: one segment of the workload, at least 3)",
    )
    parser.add_argument("--max-faults", type=float)
    args = parser.parse_args()
    names: List[str] = args.workload or sorted(direct._BUILDERS)
    measured_here = len(names) == 1 and all(
        os.environ.get(key) == value for key, value in MALLOC_ENV.items()
    )
    report = {}
    for name in names:
        ops = args.ops or max(3, direct.WORKLOADS[name].ops_per_segment)
        if measured_here:
            report[name] = probe(name, ops)
            continue
        # One process per workload, under the allocator setting: what an
        # earlier workload left in the allocator would hide a later one's
        # faults.
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--ops", str(ops)],
            check=True, capture_output=True, text=True,
            env={**os.environ, **MALLOC_ENV},
        )
        report.update(json.loads(child.stdout))
    print(json.dumps(report, indent=2))
    over = [
        name
        for name, row in report.items()
        if args.max_faults is not None and row["minflt_per_op"] > args.max_faults
    ]
    for name in over:
        print(
            f"{name}: {report[name]['minflt_per_op']} minor faults per op, "
            f"above {args.max_faults}",
            file=sys.stderr,
        )
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
