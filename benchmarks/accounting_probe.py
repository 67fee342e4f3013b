"""In-process probe of what a settled selection's accounting costs.

The selections the MBR filter settles (no candidate) do almost no
pipeline work, so their server time is the price of the request path and
its metric writes.  This probe builds the ``serve-sel`` server's presets
(``--scale small``, 2 workers) in process, no socket, and prints JSON:

* ``execute_us`` - ``ServingEngine.execute`` with no registry in scope;
* ``execute_registry_us`` - the same with the service's registry in scope;
* ``submit_us`` - ``QueryService.submit`` (admission, execution,
  accounting), minus nothing;
* ``finish_ns`` - one ok request's accounting (``QueryService._finish``,
  response included);
* ``fold_us`` - one ``registry.snapshot()`` taken after each pass of
  submits over the resident query set (the pass's records are pending);
* ``series`` - counter + gauge + histogram series in that snapshot.

Each timing is the best of ``--repeats`` loops of ``--submits`` calls
cycling over the settled queries, in µs (ns for ``finish_ns``) per call.
Run from the repository root::

    PYTHONPATH=src python benchmarks/accounting_probe.py
"""

from __future__ import annotations

import argparse
import json
import time

from repro.obs import use_scope
from repro.serve import QueryRequest, QueryService, WorkloadConfig


def best_per_call(fn, calls: int, repeats: int) -> float:
    """Best-of-``repeats`` seconds per call of ``fn(i)`` over ``calls`` i."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--submits", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    service = QueryService(WorkloadConfig(scale="small"), workers=2)
    engine = service.pool.engines[0]
    every = [
        QueryRequest(op="selection", query_index=i)
        for i in range(len(service.workload.queries))
    ]
    settled = [r for r in every if not engine.execute(r).cost.candidates_after_mbr]
    n = len(settled)

    def execute(i: int) -> None:
        engine.execute(settled[i % n])

    with use_scope(registry=None):
        execute_s = best_per_call(execute, args.submits, args.repeats)
    with use_scope(registry=service.registry):
        execute_registry_s = best_per_call(execute, args.submits, args.repeats)
    submit_s = best_per_call(
        lambda i: service.submit(settled[i % n]), args.submits, args.repeats
    )
    start = time.perf_counter()
    finish_s = best_per_call(
        lambda i: service._finish(settled[i % n], "ok", start, 1e-5, 1e-5),
        args.submits,
        args.repeats,
    )
    folds = []
    for _ in range(50):
        for request in every:
            service.submit(request)
        began = time.perf_counter()
        snapshot = service.registry.snapshot()
        folds.append(time.perf_counter() - began)
    service.close()
    print(json.dumps({
        "settled_queries": n,
        "submits": args.submits,
        "repeats": args.repeats,
        "execute_us": round(execute_s * 1e6, 2),
        "execute_registry_us": round(execute_registry_s * 1e6, 2),
        "submit_us": round(submit_s * 1e6, 2),
        "finish_ns": round(finish_s * 1e9),
        "fold_us": round(min(folds) * 1e6, 1),
        "series": sum(
            len(snapshot[k]) for k in ("counters", "gauges", "histograms")
        ),
    }, indent=2))


if __name__ == "__main__":
    main()
