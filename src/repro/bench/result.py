"""Experiment result container and text formatting.

Every experiment run returns an :class:`ExperimentResult`: an id tied to
the paper's table/figure, the parameters used (including dataset scale
factors, so reported numbers are reproducible), column names (and which of
them are exact, i.e. equal in every run), data rows, and the paper's
qualitative expectation for comparison in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


@dataclass
class ExperimentResult:
    """Structured output of one experiment run."""

    experiment_id: str
    title: str
    params: Dict[str, Any]
    columns: Sequence[str]
    rows: List[Tuple[Any, ...]]
    paper_expectation: str = ""
    notes: List[str] = field(default_factory=list)
    #: The columns whose cells are deterministic (the rest are timings).
    exact_columns: Sequence[str] = ()

    def records(self) -> List[Dict[str, Any]]:
        """The rows as ``{column: cell}`` mappings, for reads by name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def format(self) -> str:
        """Render the result as an aligned text table (paper-style rows)."""
        header = [str(c) for c in self.columns]
        body = [[_fmt(v) for v in row] for row in self.rows]
        widths = [max(map(len, cells)) for cells in zip(header, *body)]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "params: " + ", ".join(f"{k}={v}" for k, v in self.params.items()),
        ]
        for cells in (header, ["-" * w for w in widths], *body):
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if self.paper_expectation:
            lines.append(f"paper: {self.paper_expectation}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 100_000:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
