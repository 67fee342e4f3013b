"""Suite-wide test configuration: one hypothesis profile for the repo.

* ``deadline=None`` - property tests here render into simulated frame
  buffers; on a cold, contended first run a single example can exceed
  hypothesis's default 200 ms deadline without anything being wrong (the
  flake seen in ``tests/filters/test_interior.py``).  Time is gated by the
  benchmarks, not by per-example deadlines.
* ``derandomize`` when ``CI`` is set - the gate runs the same examples on
  every push; local runs keep exploring.
* ``print_blob=True`` - a failure prints the ``@reproduce_failure`` blob, so
  a randomized local failure can be replayed exactly.
"""

import os

import pytest
from hypothesis import settings

from repro.geometry import hypot_order

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=bool(os.environ.get("CI")),
    print_blob=True,
)
settings.load_profile("repro")


@pytest.fixture
def no_slack(monkeypatch):
    """The mutant of the ``hypot_order`` exactness argument: rank by squares
    alone (``SLACK = 1.0``).  The literal inversion cases must fail under it."""
    monkeypatch.setattr(hypot_order, "SLACK", 1.0)
