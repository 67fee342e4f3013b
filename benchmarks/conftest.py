"""Shared configuration for the benchmark wrappers.

Each ``bench_*.py`` file regenerates one table or figure of the paper via
:func:`repro.bench.run_experiment`, with the experiment's registered default
axes - the table ``python -m repro.bench <id>`` prints - and then asserts
the paper's shape on it, reading cells by column name.  Benchmarks default
to the ``tiny`` scale so the whole suite finishes in a few minutes; set
``REPRO_BENCH_SCALE=small`` (or ``medium``) for closer-to-paper workloads.

The formatted experiment tables are printed at the end of the run and also
written to ``benchmarks/results/<experiment>.txt``.  ``--trace-out FILE``
runs the whole session under one tracer and writes its spans to ``FILE``
as JSON lines at teardown.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import get_scale, run_experiment
from repro.obs import Tracer, use_tracer

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out",
        action="store",
        default=None,
        help=(
            "write per-stage trace spans (JSON lines) of all benchmark "
            "queries to this file"
        ),
    )


@pytest.fixture(scope="session", autouse=True)
def trace_session(request):
    """Run the session under a tracer exported to ``--trace-out`` at teardown.

    Every :meth:`CostBreakdown.time_stage` call in every pipeline emits
    spans into it automatically (zero call-site changes); refinement adds
    its ``geometry.pip`` / ``geometry.hw_batch`` (with ``gpu.tile_batch``
    underneath) / ``geometry.sweep`` | ``geometry.mindist`` stage spans.
    No-op when the option is unset.
    """
    path = request.config.getoption("--trace-out")
    if not path:
        yield None
        return
    tracer = Tracer()
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        tracer.export(path)


@pytest.fixture(scope="session")
def bench_scale():
    """The workload scale preset for this benchmark session."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "tiny"))


@pytest.fixture
def run_recorded(bench_scale):
    """Run one experiment by id; write its table to benchmarks/results/."""

    def _run(experiment_id):
        result = run_experiment(experiment_id, bench_scale)
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.format()
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)
        return result

    return _run
