"""Put the benchmark's modules and the package under test on the path.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests -q``;
the directory is deliberately outside the tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]

for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
