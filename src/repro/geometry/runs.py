"""Run expansion for CSR layouts: one member per row of every run.

The packed stores (:mod:`repro.geometry.edge_store`'s blocks and edges,
the slabs of :func:`~repro.geometry.point_in_polygon.edge_slabs`, the
interval filter's runs) describe many runs by where each starts and how
long it is; their batch kernels gather every member at once.  The module
imports nothing from the rest of :mod:`repro`, so each of them may use it
without an import cycle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def expand_runs(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``i`` is ``starts[i] .. starts[i] + counts[i] - 1``: ``(run, index)``
    of every member, runs in order."""
    run = np.repeat(np.arange(counts.size), counts)
    # Member j of run i is j - (members before run i) past its start.
    index = np.arange(run.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return run, index


__all__ = ["expand_runs"]
