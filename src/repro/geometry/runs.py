"""Run expansion for CSR layouts: one member per row of every run.

The packed stores (:mod:`repro.geometry.edge_store`'s blocks and edges,
the slabs of :func:`~repro.geometry.point_in_polygon.edge_slabs`, the
interval filter's runs) describe many runs by where each starts and how
long it is; their batch kernels gather every member at once.  The module
imports nothing from the rest of :mod:`repro` but the workspace, which
imports nothing, so each of them may use it without an import cycle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .workspace import Workspace


def expand_runs(
    starts: np.ndarray, counts: np.ndarray, workspace: Optional[Workspace] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``i`` is ``starts[i] .. starts[i] + counts[i] - 1``: ``(run, index)``
    of every member, runs in order, taken from ``workspace`` (a fresh one
    when None) in its caller's frame.

    Both are running sums written in place: ``run`` steps at each
    non-empty run's first member, ``index`` steps by one and jumps there
    from the previous run's last member to the run's start.
    """
    ws = Workspace() if workspace is None else workspace
    ends = counts.cumsum()
    total = int(ends[-1]) if counts.size else 0
    run, index = ws.array((2, total), np.intp)
    if total:
        filled = counts.nonzero()[0]
        sizes = counts.take(filled)
        first = ends.take(filled)
        first -= sizes
        steps = filled.copy()
        steps[1:] -= filled[:-1]
        run.fill(0)
        run.put(first, steps)
        run.cumsum(out=run)
        jumps = starts.take(filled)
        jumps[1:] -= jumps[:-1] + sizes[:-1] - 1
        index.fill(1)
        index.put(first, jumps)
        index.cumsum(out=index)
    return run, index


__all__ = ["expand_runs"]
