"""Tests for the Voronoi tessellation generator."""

import random

import pytest

from repro.datasets.tessellation import (
    TessellationConfig,
    _BorderTable,
    _displaced_polyline,
    generate_tessellation,
)
from repro.geometry import Point, Rect

WORLD = Rect(0.0, 0.0, 100.0, 60.0)


def config(**overrides):
    base = dict(
        world=WORLD,
        cell_count=40,
        mean_vertices=30.0,
        roughness=0.15,
        cluster_count=6,
    )
    base.update(overrides)
    return TessellationConfig(**base)


class TestConfigValidation:
    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError):
            config(cell_count=0)

    def test_rejects_tiny_mean(self):
        with pytest.raises(ValueError):
            config(mean_vertices=3)

    def test_rejects_extreme_roughness(self):
        with pytest.raises(ValueError):
            config(roughness=0.6)


class TestStructure:
    def test_cell_count(self):
        layer = generate_tessellation(config(), seed=1)
        assert len(layer) == 40

    def test_single_cell_is_world(self):
        layer = generate_tessellation(config(cell_count=1), seed=1)
        assert len(layer) == 1
        assert layer[0].mbr == WORLD

    def test_cells_cover_world_area(self):
        """A tessellation partitions the world: areas sum to the world's."""
        layer = generate_tessellation(config(), seed=2)
        total = sum(p.area for p in layer)
        world_area = WORLD.width * WORLD.height
        assert total == pytest.approx(world_area, rel=0.12)

    def test_cells_stay_inside_world(self):
        layer = generate_tessellation(config(), seed=3)
        slack = 1e-6
        for poly in layer:
            mbr = poly.mbr
            assert mbr.xmin >= WORLD.xmin - slack
            assert mbr.ymax <= WORLD.ymax + slack

    def test_deterministic(self):
        a = generate_tessellation(config(), seed=7)
        b = generate_tessellation(config(), seed=7)
        assert a == b
        c = generate_tessellation(config(), seed=8)
        assert a != c

    def test_mean_vertices_near_target(self):
        layer = generate_tessellation(config(mean_vertices=50.0), seed=4)
        mean = sum(p.num_vertices for p in layer) / len(layer)
        assert 25.0 <= mean <= 90.0

    def test_zero_roughness_exact_partition(self):
        layer = generate_tessellation(config(roughness=0.0), seed=5)
        # Without displacement the cells partition the world exactly.
        total = sum(p.area for p in layer)
        assert total == pytest.approx(WORLD.width * WORLD.height, rel=1e-9)

    def test_cluster_tightness_creates_size_tail(self):
        uniform = generate_tessellation(config(cluster_tightness=1.0), seed=6)
        tight = generate_tessellation(config(cluster_tightness=0.2), seed=6)

        def size_spread(layer):
            areas = sorted(p.area for p in layer)
            return areas[-1] / max(areas[len(areas) // 2], 1e-12)

        assert size_spread(tight) > size_spread(uniform)


def border_table(p, q, layer_seed):
    """A border table over the two vertices ``p`` (id 0) and ``q`` (id 1)."""
    xy = {0: p, 1: q}
    keys = {v: (round(x, 9), round(y, 9)) for v, (x, y) in xy.items()}
    return _BorderTable(xy, keys, 0.5, 0.2, layer_seed)


class TestSharedBorders:
    def test_edge_rng_orientation_independent(self):
        """A border displaced from either end, each on a miss, is the same
        curve: its RNG is seeded from the undirected border."""
        p, q = (1.0, 2.0), (5.0, 3.0)
        fwd = border_table(p, q, layer_seed=42).trace(0, 1)
        bwd = border_table(p, q, layer_seed=42).trace(1, 0)
        assert fwd + [q] == list(reversed(bwd + [p]))

    def test_detail_polyline_reverses_exactly(self):
        p, q = (0.0, 0.0), (10.0, 4.0)
        table = border_table(p, q, layer_seed=9)
        fwd = table.trace(0, 1)
        bwd = table.trace(1, 0)
        # fwd runs p..q (q excluded); bwd runs q..p (p excluded).  Together
        # they must trace the same curve in opposite directions, and the
        # second cell reads the first's border instead of displacing anew.
        full_fwd = fwd + [q]
        full_bwd = bwd + [p]
        assert full_fwd == list(reversed(full_bwd))
        assert len(table.borders) == 1

    def test_different_layer_seeds_differ(self):
        p, q = (0.0, 0.0), (10.0, 4.0)
        a = border_table(p, q, layer_seed=1).trace(0, 1)
        b = border_table(p, q, layer_seed=2).trace(0, 1)
        assert a != b

    def test_tessellation_is_gap_free(self):
        """Neighbor cells share their fractal borders exactly: no point of
        the world is covered 0 or 2 times (up to sampling)."""
        from repro.geometry import locate_point, PointLocation

        layer = generate_tessellation(config(cell_count=12), seed=11)
        rng = random.Random(0)
        for _ in range(150):
            p = Point(
                rng.uniform(WORLD.xmin + 1, WORLD.xmax - 1),
                rng.uniform(WORLD.ymin + 1, WORLD.ymax - 1),
            )
            containing = sum(
                1
                for poly in layer
                if poly.mbr.contains_point(p)
                and locate_point(p, poly.vertices) is PointLocation.INSIDE
            )
            on_boundary = any(
                poly.mbr.contains_point(p)
                and locate_point(p, poly.vertices) is PointLocation.BOUNDARY
                for poly in layer
            )
            assert containing == 1 or on_boundary, f"{p} covered {containing}x"


class TestDisplacedPolyline:
    def test_short_edge_not_subdivided(self):
        rng = random.Random(1)
        pts = _displaced_polyline((0, 0), (1, 0), detail_len=2.0, roughness=0.2, rng=rng)
        assert pts == [(0, 0)]

    def test_subdivision_density(self):
        rng = random.Random(2)
        pts = _displaced_polyline((0, 0), (16, 0), detail_len=1.0, roughness=0.0, rng=rng)
        # With zero roughness the chord is split evenly: 16 segments.
        assert len(pts) == 16

    def test_displacement_bounded(self):
        rng = random.Random(3)
        pts = _displaced_polyline((0, 0), (10, 0), detail_len=0.5, roughness=0.3, rng=rng)
        # The recursion clamps each offset to 35% of its chord, so total
        # wander stays within a modest band around the base segment.
        assert all(abs(y) < 6.0 for _, y in pts)
