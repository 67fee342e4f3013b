"""RunReport regression gating: diff two run artifacts, fail on regression.

``python -m repro.obs compare baseline.json current.json --tolerance 0.25``
walks two :mod:`~repro.obs.runreport` artifacts and reports:

* **timing regressions** - any ``*_s`` cost-breakdown field or
  ``*_seconds`` metric whose current value exceeds
  ``baseline * (1 + tolerance) + floor``.  Timings only regress upward:
  getting faster never fails the gate;
* **counter mismatches** - candidate counts, refinement statistics, GPU
  primitive counters, and non-timing metric families are deterministic
  for a fixed workload, so they must match exactly (or within
  ``--counter-tolerance`` when comparing across library versions);
* **table mismatches** - every cell of a column the baseline lists in
  ``exact_columns`` (counts, modeled milliseconds, rates) must equal the
  baseline's bit for bit, whatever the tolerances; a baseline written
  before that key existed gates only the row count;
* **structural mismatches** - experiments or metric series missing from
  the current report.

Environment fingerprint differences are surfaced as warnings, never
failures - comparing across machines is exactly what the tolerance is
for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Tuple

from .metrics import parse_key

#: Cost-breakdown / metric suffixes that mark a value as a wall-clock
#: timing (tolerance-compared) rather than a deterministic counter.
_TIMING_COUNTER_SUFFIXES = ("_s", "_seconds")
_TIMING_HISTOGRAM_SUFFIXES = ("_duration_s", "_seconds")

#: Default slack added to every timing comparison so microsecond-scale
#: stages do not flap the gate.
DEFAULT_TIMING_FLOOR_S = 1e-4


@dataclass(frozen=True)
class Finding:
    """One comparison outcome worth reporting."""

    severity: str  # "regression" | "mismatch" | "warning"
    path: str
    baseline: Any
    current: Any
    detail: str = ""

    @property
    def fails(self) -> bool:
        return self.severity in ("regression", "mismatch")

    def format(self) -> str:
        return (
            f"[{self.severity}] {self.path}: baseline={self.baseline!r}"
            f" current={self.current!r}" + (f" ({self.detail})" if self.detail else "")
        )


@dataclass
class Comparison:
    """All findings from one report diff."""

    findings: List[Finding]
    experiments_compared: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.fails for f in self.findings)

    @property
    def failures(self) -> List[Finding]:
        return [f for f in self.findings if f.fails]

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {self.experiments_compared} experiment(s) compared,"
            f" {len(self.failures)} failure(s),"
            f" {sum(1 for f in self.findings if not f.fails)} warning(s)"
        )
        return "\n".join(lines)


def _is_timing_counter(name: str) -> bool:
    return name.endswith(_TIMING_COUNTER_SUFFIXES)


def _is_timing_histogram(name: str) -> bool:
    return name.endswith(_TIMING_HISTOGRAM_SUFFIXES)


class _Comparer:
    def __init__(
        self,
        tolerance: float,
        counter_tolerance: float,
        timing_floor_s: float,
    ) -> None:
        if tolerance < 0 or counter_tolerance < 0 or timing_floor_s < 0:
            raise ValueError("tolerances must be >= 0")
        self.tolerance = tolerance
        self.counter_tolerance = counter_tolerance
        self.timing_floor_s = timing_floor_s
        self.findings: List[Finding] = []

    # -- leaf comparisons -------------------------------------------------

    def timing(self, path: str, baseline: Any, current: Any) -> None:
        base = float(baseline)
        cur = float(current)
        limit = base * (1.0 + self.tolerance) + self.timing_floor_s
        if cur > limit:
            self.findings.append(
                Finding(
                    "regression",
                    path,
                    base,
                    cur,
                    f"exceeds baseline by {cur / base:.2f}x"
                    if base
                    else "baseline was zero",
                )
            )

    def counter(self, path: str, baseline: Any, current: Any) -> None:
        try:
            base = float(baseline)
            cur = float(current)
        except (TypeError, ValueError):
            if baseline != current:
                self.findings.append(
                    Finding("mismatch", path, baseline, current, "values differ")
                )
            return
        slack = abs(base) * self.counter_tolerance
        if abs(cur - base) > slack:
            self.findings.append(
                Finding(
                    "mismatch",
                    path,
                    baseline,
                    current,
                    "exact match required"
                    if self.counter_tolerance == 0
                    else f"outside {self.counter_tolerance:.0%} tolerance",
                )
            )

    def exact_cells(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        """The baseline's ``exact_columns``, cell by cell, with ``==``."""
        base_columns = baseline.get("columns", [])
        cur_columns = current.get("columns", [])
        for column in baseline.get("exact_columns", ()):
            if column not in cur_columns:
                self.findings.append(
                    Finding("mismatch", f"{path}.columns", column, None, "missing")
                )
                continue
            i, j = base_columns.index(column), cur_columns.index(column)
            for n, (base_row, cur_row) in enumerate(
                zip(baseline.get("rows", []), current.get("rows", []))
            ):
                if base_row[i] != cur_row[j]:
                    self.findings.append(
                        Finding(
                            "mismatch",
                            f"{path}.rows[{n}].{column}",
                            base_row[i],
                            cur_row[j],
                            "exact cell changed",
                        )
                    )

    # -- section comparisons ----------------------------------------------

    def _pairs(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> List[Tuple[str, Any, Any]]:
        """Keys present in the baseline, with missing-current reported."""
        out = []
        for key, base_value in baseline.items():
            if key not in current:
                self.findings.append(
                    Finding("mismatch", f"{path}.{key}", base_value, None, "missing")
                )
                continue
            out.append((key, base_value, current[key]))
        for key in current:
            if key not in baseline:
                self.findings.append(
                    Finding(
                        "warning",
                        f"{path}.{key}",
                        None,
                        current[key],
                        "not in baseline",
                    )
                )
        return out

    def numeric_section(
        self,
        path: str,
        baseline: Mapping[str, Any],
        current: Mapping[str, Any],
        timing_predicate,
    ) -> None:
        for key, base_value, cur_value in self._pairs(path, baseline, current):
            if timing_predicate(key):
                self.timing(f"{path}.{key}", base_value, cur_value)
            else:
                self.counter(f"{path}.{key}", base_value, cur_value)

    def histogram(
        self, path: str, name: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        self.counter(f"{path}.count", baseline.get("count"), current.get("count"))
        if _is_timing_histogram(name):
            return  # durations vary run to run; only the call count gates
        self.counter(f"{path}.zeros", baseline.get("zeros"), current.get("zeros"))
        self.counter(f"{path}.sum", baseline.get("sum"), current.get("sum"))
        for bucket, base_n, cur_n in self._pairs(
            f"{path}.buckets", baseline.get("buckets", {}), current.get("buckets", {})
        ):
            self.counter(f"{path}.buckets[{bucket}]", base_n, cur_n)

    def metrics_snapshot(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        self.numeric_section(
            f"{path}.counters",
            baseline.get("counters", {}),
            current.get("counters", {}),
            lambda key: _is_timing_counter(parse_key(key)[0]),
        )
        self.numeric_section(
            f"{path}.gauges",
            baseline.get("gauges", {}),
            current.get("gauges", {}),
            lambda key: False,
        )
        for key, base_h, cur_h in self._pairs(
            f"{path}.histograms",
            baseline.get("histograms", {}),
            current.get("histograms", {}),
        ):
            self.histogram(f"{path}.histograms[{key}]", parse_key(key)[0], base_h, cur_h)


def compare_reports(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerance: float = 0.25,
    counter_tolerance: float = 0.0,
    timing_floor_s: float = DEFAULT_TIMING_FLOOR_S,
) -> Comparison:
    """Diff two RunReports; regressions/mismatches make ``ok`` false."""
    cmp = _Comparer(tolerance, counter_tolerance, timing_floor_s)

    base_env = baseline.get("environment", {})
    cur_env = current.get("environment", {})
    for key in ("python", "numpy", "git_sha", "scale", "platform"):
        if base_env.get(key) != cur_env.get(key):
            cmp.findings.append(
                Finding(
                    "warning",
                    f"environment.{key}",
                    base_env.get(key),
                    cur_env.get(key),
                    "environments differ",
                )
            )

    base_experiments = {e["experiment_id"]: e for e in baseline.get("experiments", [])}
    cur_experiments = {e["experiment_id"]: e for e in current.get("experiments", [])}
    compared = 0
    for exp_id, base_exp in base_experiments.items():
        cur_exp = cur_experiments.get(exp_id)
        if cur_exp is None:
            cmp.findings.append(
                Finding(
                    "mismatch",
                    f"experiments[{exp_id}]",
                    "present",
                    None,
                    "experiment missing from current report",
                )
            )
            continue
        compared += 1
        prefix = f"experiments[{exp_id}]"
        cmp.counter(
            f"{prefix}.row_count",
            base_exp.get("row_count"),
            cur_exp.get("row_count"),
        )
        cmp.exact_cells(prefix, base_exp, cur_exp)
        cmp.numeric_section(
            f"{prefix}.cost_breakdown",
            base_exp.get("cost_breakdown", {}),
            cur_exp.get("cost_breakdown", {}),
            _is_timing_counter,
        )
        cmp.numeric_section(
            f"{prefix}.refinement_stats",
            base_exp.get("refinement_stats", {}),
            cur_exp.get("refinement_stats", {}),
            lambda key: False,
        )
        cmp.numeric_section(
            f"{prefix}.gpu_counters",
            base_exp.get("gpu_counters", {}),
            cur_exp.get("gpu_counters", {}),
            lambda key: False,
        )
        cmp.metrics_snapshot(
            f"{prefix}.metrics",
            base_exp.get("metrics", {}),
            cur_exp.get("metrics", {}),
        )
    for exp_id in cur_experiments:
        if exp_id not in base_experiments:
            cmp.findings.append(
                Finding(
                    "warning",
                    f"experiments[{exp_id}]",
                    None,
                    "present",
                    "not in baseline",
                )
            )

    cmp.metrics_snapshot(
        "metrics", baseline.get("metrics", {}), current.get("metrics", {})
    )
    return Comparison(findings=cmp.findings, experiments_compared=compared)


__all__: List[str] = [
    "Comparison",
    "DEFAULT_TIMING_FLOOR_S",
    "Finding",
    "compare_reports",
]
