"""Benchmark harness: one runner for every table and figure of the paper.

Run from the command line::

    python -m repro.bench list
    python -m repro.bench fig12 --scale small
    python -m repro.bench all --scale tiny

or through the pytest wrappers (``pytest benchmarks/bench_*.py``), or from
code: ``run_experiment("fig12", "tiny", resolutions=(8,))``.
"""

from . import experiments  # noqa: F401  (declares every experiment)
from .result import ExperimentResult
from .runner import ALL_EXPERIMENTS, run_experiment
from .scales import DEFAULT_SCALE, SCALES, Scale, get_scale

__all__ = [
    "ALL_EXPERIMENTS",
    "DEFAULT_SCALE",
    "ExperimentResult",
    "SCALES",
    "Scale",
    "get_scale",
    "run_experiment",
]
