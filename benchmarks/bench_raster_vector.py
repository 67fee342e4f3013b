"""Vectorization gate: the NumPy even-odd fill kernel vs its scanline oracle.

Not a paper figure: this benchmark gates the fill half of the mask-kernel
rewrite.  The even-odd polygon fill was a per-scanline Python loop - the
wrong cost shape for the interior/interval index builds, which rasterize
every object's footprint once.  The vectorized kernel must stay at least
``MIN_SPEEDUP`` x faster than the retained reference loop on a
representative workload, and (asserted here, not just in the property
suite) bit-identical on that same workload.

The workload mirrors where the kernel runs hot: the level-8
interval-index build windows.
"""

import time

import numpy as np

from repro.gpu import polygon_coverage_mask, polygon_fill_coverage_mask

#: Required wall-clock advantage of the vectorized kernel.  Measured
#: advantage is far larger (hundreds of x); 3x keeps the gate meaningful
#: yet immune to CI host noise.
MIN_SPEEDUP = 3.0

#: (buffer side, vertex count) of the fill draw calls - interior/interval
#: index builds rasterize polygon footprints this size and larger.
FILL_CASES = [(32, 24), (64, 48), (128, 64)]


def _fill_workload():
    rng = np.random.default_rng(13)
    cases = []
    for n, v in FILL_CASES:
        for _ in range(4):
            center = n / 2.0
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=v))
            radii = rng.uniform(0.2, 0.55, size=v) * n
            verts = np.stack(
                [
                    center + radii * np.cos(angles),
                    center + radii * np.sin(angles),
                ],
                axis=1,
            )
            cases.append(((n, n), verts))
    return cases


def _time(fn, cases, repeats=3):
    best = float("inf")
    masks = None
    for _ in range(repeats):
        out = []
        start = time.perf_counter()
        for shape, geom in cases:
            out.append(fn(shape, geom))
        best = min(best, time.perf_counter() - start)
        masks = out
    return best, masks


def _measure():
    fills = _fill_workload()
    vec_fill_s, vec_fill_masks = _time(polygon_fill_coverage_mask, fills)
    ref_fill_s, ref_fill_masks = _time(polygon_coverage_mask, fills)

    for got, want in zip(vec_fill_masks, ref_fill_masks):
        assert np.array_equal(got, want), "fill kernels diverged"
    return vec_fill_s, ref_fill_s


def test_raster_vector_speedup(benchmark):
    vec_fill_s, ref_fill_s = benchmark.pedantic(_measure, rounds=1, iterations=1)
    fill_speedup = ref_fill_s / vec_fill_s
    benchmark.extra_info["fill_speedup"] = round(fill_speedup, 2)
    assert fill_speedup >= MIN_SPEEDUP, (
        f"even-odd fill vectorization regressed: reference {ref_fill_s:.4f}s,"
        f" vector {vec_fill_s:.4f}s, speedup {fill_speedup:.1f}x"
        f" < required {MIN_SPEEDUP}x"
    )
