"""Tiled batched hardware refinement vs the per-pair submission loop.

Not a paper figure: this benchmark validates the batching layer.  The
experiment refines the same >= 2k-candidate intersection join (and a
within-distance pass) with per-pair hardware submissions and with the
tiled atlas path; the runner raises unless results and statistics are
identical.  Here we assert what batching is for and what is exact - the
submission counts.  The geometry wall columns are reported, not gated:
their ratio depends on who else is on the host (EXPERIMENTS.md carries
the ranges).

Run with ``--trace-out spans.jsonl`` to capture refinement's stage spans
(``geometry.pip``, ``geometry.hw_batch`` with its ``gpu.tile_batch``
spans underneath, ``geometry.sweep``) under the pipeline stage spans.
"""

#: (op) -> (per-pair draw calls, batched draw calls, atlas batches) at the
#: default ``tiny`` scale, any resolution: the table's exact cells.
TINY_SUBMISSIONS = {
    "intersect": (4146, 18, 9),
    "within_distance": (6638, 26, 13),
}


def test_batch_refine(run_recorded, bench_scale):
    rows = run_recorded("batch-refine").records()
    # Workload floor: amortization must be measured on a real batch.
    assert all(r["candidates"] >= 2000 for r in rows), "candidate floor not met"
    batched = [r for r in rows if r["mode"] == "batched"]
    assert any(r["resolution"] == 8 for r in batched), "resolution 8 must be swept"
    for row in batched:
        per_pair = next(
            r
            for r in rows
            if (r["resolution"], r["op"], r["mode"])
            == (row["resolution"], row["op"], "per-pair")
        )
        # The batched rows really used the atlas; the per-pair rows never did.
        assert row["tile_batches"] > 0 and per_pair["tile_batches"] == 0
        # Amortization, exactly: two bulk draws per atlas submission
        # against two draws per hardware-tested pair.
        assert row["draw_calls"] == 2 * row["tile_batches"]
        assert row["draw_calls"] < per_pair["draw_calls"]
        if bench_scale.name == "tiny":
            assert (
                per_pair["draw_calls"], row["draw_calls"], row["tile_batches"]
            ) == TINY_SUBMISSIONS[row["op"]]
