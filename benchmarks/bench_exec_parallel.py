"""Parallel batch refinement (repro.exec) vs the serial geometry stage.

Not a paper figure: this benchmark validates the scale-out layer.  The
experiment generates a >= 2k-candidate-pair intersection join, refines it
serially and across worker pools, and asserts parallel results identical
to serial; here we additionally check the speedup shape where the host
hardware can express it.

Run with ``--trace-out spans.jsonl`` to capture per-stage and per-shard
spans of every query executed.
"""

import os


def test_exec_parallel(run_recorded):
    rows = run_recorded("exec-parallel").records()
    # Workload floor: the executor must be measured on a real batch.
    assert all(r["candidates"] >= 2000 for r in rows), "candidate floor not met"
    # Serial reference rows exist for both engines.
    assert {r["engine"] for r in rows if r["mode"] == "serial"} == {
        "software",
        "hardware",
    }
    # The >= 1.5x speedup criterion is hardware-bound: only assert it where
    # the host actually has the CPUs to run 4 workers in parallel.
    if (os.cpu_count() or 1) >= 4:
        speedups = [
            r["speedup"] for r in rows if r["mode"] == "parallel" and r["workers"] == 4
        ]
        assert max(speedups) >= 1.5, f"expected >=1.5x with 4 workers: {rows}"
