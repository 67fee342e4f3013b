"""RunReport gating: diff two run artifacts, fail on any deterministic drift.

``python -m repro.obs compare baseline.json current.json`` walks two
:mod:`~repro.obs.runreport` artifacts entry by entry and reports:

* **value mismatches** - every entry's metric families (candidate counts,
  refinement statistics, GPU primitive counters, funnels, distributions)
  are deterministic for a fixed workload, so each must equal the
  baseline's (NaN matches NaN);
* **table mismatches** - the row count, and every cell of a column the
  baseline lists in ``exact_columns`` (counts, modeled milliseconds,
  rates), must equal the baseline's bit for bit; a baseline written
  before that key existed gates only the row count;
* **structural mismatches** - an experiment or key present in one report
  only, whichever one.

Wall-clock values - keys named ``*_s``, such as the ``*_duration_s``
histograms - are checked for presence only (a timing histogram also on
its sample count): host time is judged by the benchmark ledger, never
here.  There is nothing to set.  Environment fingerprint differences are
the only warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Tuple

#: Key-name suffix that marks a value as a wall-clock timing.
_TIMING_SUFFIX = "_s"


@dataclass(frozen=True)
class Finding:
    """One comparison outcome worth reporting."""

    severity: str  # "mismatch" | "warning"
    path: str
    baseline: Any
    current: Any
    detail: str = ""

    @property
    def fails(self) -> bool:
        return self.severity == "mismatch"

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


def _is_timing(key: str) -> bool:
    """True for a wall-clock key (a metric key's labels are ignored)."""
    return key.partition("{")[0].endswith(_TIMING_SUFFIX)


def _same(baseline: Any, current: Any) -> bool:
    """The exact rule: equal, or both NaN."""
    return baseline == current or (baseline != baseline and current != current)


class _Comparer:
    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def mismatch(self, path: str, baseline: Any, current: Any, detail: str) -> None:
        self.findings.append(Finding("mismatch", path, baseline, current, detail))

    # -- leaf comparisons -------------------------------------------------

    def value(self, path: str, baseline: Any, current: Any) -> None:
        if not _same(baseline, current):
            self.mismatch(path, baseline, current, "exact match required")

    def exact_cells(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        """The baseline's ``exact_columns``, cell by cell."""
        base_columns = baseline.get("columns", [])
        cur_columns = current.get("columns", [])
        for column in baseline.get("exact_columns", ()):
            if column not in cur_columns:
                self.mismatch(f"{path}.columns", column, None, "missing")
                continue
            i, j = base_columns.index(column), cur_columns.index(column)
            for n, (base_row, cur_row) in enumerate(
                zip(baseline.get("rows", []), current.get("rows", []))
            ):
                if not _same(base_row[i], cur_row[j]):
                    self.mismatch(
                        f"{path}.rows[{n}].{column}",
                        base_row[i],
                        cur_row[j],
                        "exact cell changed",
                    )

    # -- section comparisons ----------------------------------------------

    def _pairs(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> List[Tuple[str, Any, Any]]:
        """Keys present on both sides; a key on one side only mismatches."""
        out = []
        for key, base_value in baseline.items():
            if key in current:
                out.append((key, base_value, current[key]))
            else:
                self.mismatch(f"{path}.{key}", base_value, None, "missing")
        for key in current:
            if key not in baseline:
                self.mismatch(f"{path}.{key}", None, current[key], "not in baseline")
        return out

    def section(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        for key, base_value, cur_value in self._pairs(path, baseline, current):
            if not _is_timing(key):
                self.value(f"{path}.{key}", base_value, cur_value)

    def histogram(
        self, path: str, key: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        self.value(f"{path}.count", baseline.get("count"), current.get("count"))
        if _is_timing(key):
            return  # durations vary run to run; only the call count gates
        self.value(f"{path}.zeros", baseline.get("zeros"), current.get("zeros"))
        self.value(f"{path}.sum", baseline.get("sum"), current.get("sum"))
        for bucket, base_n, cur_n in self._pairs(
            f"{path}.buckets", baseline.get("buckets", {}), current.get("buckets", {})
        ):
            self.value(f"{path}.buckets[{bucket}]", base_n, cur_n)

    def metrics_snapshot(
        self, path: str, baseline: Mapping[str, Any], current: Mapping[str, Any]
    ) -> None:
        for family in ("counters", "gauges"):
            self.section(
                f"{path}.{family}", baseline.get(family, {}), current.get(family, {})
            )
        for key, base_h, cur_h in self._pairs(
            f"{path}.histograms",
            baseline.get("histograms", {}),
            current.get("histograms", {}),
        ):
            self.histogram(f"{path}.histograms[{key}]", key, base_h, cur_h)


def compare_reports(baseline: Mapping[str, Any], current: Mapping[str, Any]) -> Comparison:
    """Diff two RunReports; any mismatch makes ``ok`` false."""
    cmp = _Comparer()

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
    for exp_id, base_exp, cur_exp in cmp._pairs(
        "experiments", base_experiments, cur_experiments
    ):
        compared += 1
        prefix = f"experiments[{exp_id}]"
        cmp.value(
            f"{prefix}.len(rows)",
            len(base_exp.get("rows", [])),
            len(cur_exp.get("rows", [])),
        )
        cmp.exact_cells(prefix, base_exp, cur_exp)
        cmp.metrics_snapshot(
            f"{prefix}.metrics", base_exp.get("metrics", {}), cur_exp.get("metrics", {})
        )
    return Comparison(findings=cmp.findings, experiments_compared=compared)


__all__: List[str] = [
    "Comparison",
    "Finding",
    "compare_reports",
]
