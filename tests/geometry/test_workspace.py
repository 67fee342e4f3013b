"""The batch kernels' arena: frames give memory back, live arrays never
share it, and a warm workspace hands out no fresh memory."""

import numpy as np

import pytest

from repro.geometry import workspace
from repro.geometry.workspace import Workspace, compress

#: ``(shape, dtype)`` requests of one batch-like frame, nested as the
#: kernel nests them.
OUTER = [((4, 100), np.float64), (37, np.intp), ((3, 5), bool)]
INNER = [((2, 8, 50), np.float64), (1, np.uint8), (200, np.intp)]


def take_batch(ws):
    """Every array of one outermost frame, filled, and whether each array
    alive at once kept its own bytes."""
    with ws.frame():
        outer = [ws.array(shape, dtype) for shape, dtype in OUTER]
        for a in outer:
            a.fill(1)
        with ws.frame():
            inner = [ws.array(shape, dtype) for shape, dtype in INNER]
            for a in inner:
                a.fill(0)
            live = outer + inner
            apart = not any(
                np.shares_memory(a, b) for i, a in enumerate(live) for b in live[i + 1 :]
            )
        intact = all((a == 1).all() for a in outer)
        again = ws.array(*INNER[0])  # the first inner array's place, given back
        reused = np.shares_memory(again, inner[0])
    return outer, apart and intact, reused


def test_live_arrays_never_share_memory_and_frames_give_it_back():
    ws = Workspace()
    for batch in range(3):
        arrays, apart, reused = take_batch(ws)
        assert apart
        for (shape, dtype), a in zip(OUTER, arrays):
            assert a.shape == (shape if isinstance(shape, tuple) else (shape,))
            assert a.dtype == dtype and a.flags.c_contiguous
        # The first batch's arrays are fresh; from the second on they are
        # the arena's, and a frame's end hands its space to the next take.
        assert reused == (batch > 0)


def test_a_warm_workspace_reuses_its_arena_and_grows_when_outgrown():
    ws = Workspace()
    first, _, _ = take_batch(ws)
    second, _, _ = take_batch(ws)
    third, _, _ = take_batch(ws)
    assert not any(np.shares_memory(a, b) for a, b in zip(first, second))
    assert all(np.shares_memory(a, b) for a, b in zip(second, third))
    with ws.frame():
        big = ws.array((1000, 1000))  # past the arena: a fresh array
        big.fill(1.0)
        assert not np.shares_memory(big, third[0])
    with ws.frame():
        again = ws.array((1000, 1000))  # the grown arena holds it now
    with ws.frame():
        assert np.shares_memory(ws.array((1000, 1000)), again)


def test_a_reserved_workspace_runs_its_first_batch_in_the_arena():
    ws = Workspace(reserve=1 << 20)
    first, apart, reused = take_batch(ws)
    second, _, _ = take_batch(ws)
    # No fresh arrays even once: the first batch's frames already give
    # their space back, and the second batch takes the same bytes.
    assert apart and reused
    assert all(np.shares_memory(a, b) for a, b in zip(first, second))
    with ws.frame():
        big = ws.array((1000, 1000))  # past the reservation: it still grows
    with ws.frame():
        again = ws.array((1000, 1000))  # the grown arena holds it now
    with ws.frame():
        assert np.shares_memory(ws.array((1000, 1000)), again)
    assert not np.shares_memory(big, again)


@pytest.mark.parametrize("density", [0.0, 0.03, 0.9, 1.0])
def test_compress_writes_what_numpy_compress_returns(density):
    # 20 011 mask entries: two full steps and a partial third.
    rng = np.random.default_rng(7)
    n = 2 * workspace._COMPRESS_STEP + 3627
    mask = rng.random(n) < density
    rows = rng.random((n, 4))
    ids = rng.integers(0, 1 << 40, n)
    outs = np.full((n + 5, 4), -1.0), np.full(n + 5, -1)
    k = compress(mask, (rows, ids), outs)
    assert k == np.count_nonzero(mask)
    assert np.array_equal(outs[0][:k], rows.compress(mask, axis=0))
    assert np.array_equal(outs[1][:k], ids.compress(mask))
    assert (outs[0][k:] == -1.0).all() and (outs[1][k:] == -1).all()
