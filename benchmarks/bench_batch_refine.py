"""Tiled batched hardware refinement vs the per-pair submission loop.

Not a paper figure: this benchmark validates the batching layer.  The
experiment refines the same >= 2k-candidate intersection join (and a
within-distance pass) with per-pair hardware submissions and with the
tiled atlas path, asserting identical results and statistics; here we
additionally enforce the throughput criterion the batching exists for.

Run with ``--trace-out spans.jsonl`` to capture the per-batch
``geometry.hw_batch`` / ``gpu.tile_batch`` spans alongside the stage spans.
"""


def test_batch_refine(run_recorded):
    rows = run_recorded("batch-refine").records()
    # Workload floor: amortization must be measured on a real batch.
    assert all(r["candidates"] >= 2000 for r in rows), "candidate floor not met"
    # Acceptance: >= 1.5x geometry-stage speedup at resolution 8.  Unlike
    # the multiprocess executor this is not hardware-bound - the speedup
    # comes from vectorized bulk rasterization and amortized submissions,
    # which a single CPU expresses just fine.
    res8 = [r for r in rows if r["resolution"] == 8 and r["mode"] == "batched"]
    assert res8, "resolution 8 must be part of the sweep"
    for row in res8:
        assert row["speedup"] >= 1.5, f"expected >=1.5x at resolution 8: {row}"
    # The batched rows really used the atlas; the per-pair rows never did.
    assert all(r["tile_batches"] > 0 for r in rows if r["mode"] == "batched")
    assert all(r["tile_batches"] == 0 for r in rows if r["mode"] == "per-pair")
    # Amortization is visible in the submission counts.
    for row in res8:
        per_pair = next(
            r
            for r in rows
            if r["resolution"] == 8 and r["op"] == row["op"] and r["mode"] == "per-pair"
        )
        assert row["draw_calls"] < per_pair["draw_calls"], (
            "batching must reduce draw calls"
        )
