"""The RunReport artifact: one machine-readable JSON file per benchmark run.

The paper's argument is quantitative (Figures 10-16 are per-stage costs;
the hardware filter's value is a *rate*), so a run's evidence must be a
single versioned artifact a CI gate can diff - not a scatter of formatted
tables.  A RunReport captures, per experiment:

* the :class:`~repro.bench.result.ExperimentResult` rows (id, title,
  params, columns, rows) and which columns are *exact* - deterministic
  cells the regression gate compares bit for bit;
* the merged per-stage cost breakdown, refinement statistics and GPU
  primitive counters, reconstructed from the run's metric families
  (``stage_seconds``, ``cost_count``, ``refinement``, ``gpu``);
* the full :class:`~repro.obs.metrics.MetricsRegistry` snapshot of the
  experiment (distributions included);

plus a run-level merged metrics snapshot and an **environment
fingerprint** (python/numpy versions, platform, git sha, scale preset) so
two reports are comparable only when they should be.

``repro.obs.compare`` diffs two RunReports and exits nonzero on
regression; ``python -m repro.bench <exp> --report-out r.json`` produces
them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .metrics import parse_key

#: Version tag of the run-report schema (bump on incompatible change).
RUN_REPORT_SCHEMA = "repro.obs/run-report@1"

#: Metric families folded into the typed report sections.
STAGE_SECONDS_FAMILY = "stage_seconds"
COST_COUNT_FAMILY = "cost_count"
REFINEMENT_FAMILY = "refinement"
GPU_FAMILY = "gpu"


# -- environment fingerprint -------------------------------------------------


def _git_sha() -> Optional[str]:
    """The repository HEAD sha, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment_fingerprint(**extra: Any) -> Dict[str, Any]:
    """Versions, platform, and git sha identifying what produced a report."""
    import platform as platform_mod

    import numpy

    fingerprint: Dict[str, Any] = {
        "python": platform_mod.python_version(),
        "implementation": platform_mod.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform_mod.platform(),
        "git_sha": _git_sha(),
        "argv": list(sys.argv),
    }
    fingerprint.update(extra)
    return fingerprint


# -- snapshot -> typed sections ----------------------------------------------


def sections_from_snapshot(snapshot: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Rebuild the legacy stat containers from a metrics snapshot.

    Returns ``cost_breakdown`` (stage seconds as ``<stage>_s`` plus the
    candidate-count fields), ``refinement_stats``
    (:class:`~repro.core.stats.RefinementStats` fields) and
    ``gpu_counters`` (:class:`~repro.gpu.counters.CostCounters` fields),
    merged across every pipeline run of the snapshot.
    """
    cost: Dict[str, Any] = {}
    refinement: Dict[str, Any] = {}
    gpu: Dict[str, Any] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_key(key)
        d = dict(labels)
        if name == STAGE_SECONDS_FAMILY and "stage" in d:
            cost[d["stage"] + "_s"] = value
        elif name == COST_COUNT_FAMILY and "field" in d:
            cost[d["field"]] = value
        elif name == REFINEMENT_FAMILY and "field" in d:
            refinement[d["field"]] = value
        elif name == GPU_FAMILY and "counter" in d:
            gpu[d["counter"]] = value
    return {
        "cost_breakdown": cost,
        "refinement_stats": refinement,
        "gpu_counters": gpu,
    }


# -- report assembly ---------------------------------------------------------


def _to_jsonable(value: Any) -> Any:
    """Plain-JSON coercion (numpy scalars, tuples, nested containers)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        return item()  # numpy scalar
    return str(value)


def experiment_entry(
    result: Any,
    metrics_snapshot: Mapping[str, Any],
    wall_s: float,
) -> Dict[str, Any]:
    """One report entry for one experiment driver's output.

    ``result`` is duck-typed on the
    :class:`~repro.bench.result.ExperimentResult` fields so this module
    never imports the bench layer.
    """
    entry: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "params": _to_jsonable(result.params),
        "columns": list(result.columns),
        "exact_columns": list(result.exact_columns),
        "rows": _to_jsonable(result.rows),
        "row_count": len(result.rows),
        "wall_s": wall_s,
        "metrics": _to_jsonable(metrics_snapshot),
    }
    entry.update(sections_from_snapshot(metrics_snapshot))
    return entry


def build_run_report(
    entries: Sequence[Mapping[str, Any]],
    merged_metrics: Mapping[str, Any],
    scale: Optional[str] = None,
    environment: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned run-level artifact."""
    env = dict(environment) if environment is not None else environment_fingerprint()
    if scale is not None:
        env.setdefault("scale", scale)
    return {
        "schema": RUN_REPORT_SCHEMA,
        "created_unix_s": time.time(),
        "environment": _to_jsonable(env),
        "experiments": [dict(e) for e in entries],
        "metrics": _to_jsonable(merged_metrics),
    }


def write_run_report(path: str, report: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def load_run_report(path: str) -> Dict[str, Any]:
    """Load and schema-check a RunReport written by :func:`write_run_report`."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    schema = report.get("schema")
    if schema != RUN_REPORT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported run-report schema {schema!r};"
            f" expected {RUN_REPORT_SCHEMA!r}"
        )
    return report


__all__: List[str] = [
    "RUN_REPORT_SCHEMA",
    "build_run_report",
    "environment_fingerprint",
    "experiment_entry",
    "load_run_report",
    "sections_from_snapshot",
    "write_run_report",
]
