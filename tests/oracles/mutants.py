"""One source-mutant builder for the named mutants of the test suite."""

from __future__ import annotations

import inspect
import sys
import types
from typing import Tuple


def mutant(module: types.ModuleType, old: str, new: str, *more: Tuple[str, str]) -> types.ModuleType:
    """``module`` executed afresh from its source with the one occurrence of
    ``old`` replaced by ``new`` (and likewise each further ``(old, new)``
    pair of ``more``).

    The result is a new module of the same package (relative imports
    resolve to the real modules); ``module`` itself is untouched.  It is
    registered in ``sys.modules`` while it executes, because ``@dataclass``
    looks its class's module up there.
    """
    source = inspect.getsource(module)
    for old, new in ((old, new), *more):
        assert source.count(old) == 1, f"edit site not unique in {module.__name__}: {old!r}"
        source = source.replace(old, new)
    name = f"{module.__name__}__mutant"
    edited = types.ModuleType(name)
    edited.__package__ = module.__package__
    sys.modules[name] = edited
    try:
        exec(compile(source, name, "exec"), edited.__dict__)
    finally:
        del sys.modules[name]
    return edited


#: ``repro.gpu.pipeline.placed_rows`` reading a row as placed when any one of
#: its four ``isfinite`` flags is set (a non-zero word), not all four.
ANY_FLAG_PLACED = (
    "np.equal(finite.view(np.uint32).reshape(n), _ALL_FINITE,",
    "np.not_equal(finite.view(np.uint32).reshape(n), 0,",
)

#: ``repro.geometry.point_in_polygon.locate_xy`` deciding an edge's crossing
#: with ``<=``: an edge whose two products are equal (collinear) but whose
#: box misses the point counts as crossed.
LESS_EQUAL_CROSSING = (
    "np.less(rise_run, run_rise)",
    "np.less_equal(rise_run, run_rise)",
)
