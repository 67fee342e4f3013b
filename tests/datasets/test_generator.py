"""Tests for the synthetic polygon generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    GeneratorConfig,
    VertexCountModel,
    generate_layer,
    star_polygon,
)
from repro.geometry import Point, Rect
from tests.geometry.test_simplicity import simple_by_definition


class TestVertexCountModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            VertexCountModel(vmin=2, vmax=10, mean=5)
        with pytest.raises(ValueError):
            VertexCountModel(vmin=10, vmax=5, mean=7)
        with pytest.raises(ValueError):
            VertexCountModel(vmin=5, vmax=10, mean=4)

    def test_samples_respect_bounds(self):
        model = VertexCountModel(vmin=3, vmax=200, mean=20)
        rng = random.Random(1)
        samples = [model.sample(rng) for _ in range(2000)]
        assert min(samples) >= 3
        assert max(samples) <= 200

    def test_body_mean_approximately_matched(self):
        # Without the explicit tail, the lognormal body matches the mean.
        model = VertexCountModel(vmin=3, vmax=100_000, mean=50, tail_fraction=0.0)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(8000)]
        mean = sum(samples) / len(samples)
        assert 35 <= mean <= 65  # lognormal sampling noise + rounding

    def test_heavy_tail_present(self):
        model = VertexCountModel(vmin=3, vmax=100_000, mean=50)
        rng = random.Random(3)
        samples = [model.sample(rng) for _ in range(8000)]
        assert max(samples) > 10 * 50  # far beyond the mean, like Table 2

    def test_tail_fraction_controls_giants(self):
        rng = random.Random(4)
        with_tail = VertexCountModel(vmin=3, vmax=50_000, mean=50, tail_fraction=0.05)
        giants = sum(
            1 for _ in range(4000) if with_tail.sample(rng) > 5 * 50
        )
        # ~5% tail draws plus the lognormal's own tail.
        assert 100 <= giants <= 600

    def test_tail_fraction_validation(self):
        with pytest.raises(ValueError):
            VertexCountModel(vmin=3, vmax=100, mean=10, tail_fraction=1.5)


class TestStarPolygon:
    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            star_polygon(rng, Point(0, 0), 1.0, 2)
        with pytest.raises(ValueError):
            star_polygon(rng, Point(0, 0), 0.0, 5)

    @settings(max_examples=60)
    @given(st.integers(0, 10_000), st.integers(3, 120))
    def test_simple_and_correct_size(self, seed, n):
        rng = random.Random(seed)
        poly = star_polygon(rng, Point(5, 5), 2.0, n)
        assert poly.num_vertices == n
        assert simple_by_definition(poly)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_star_shaped_center_inside(self, seed):
        rng = random.Random(seed)
        center = Point(3, -2)
        poly = star_polygon(rng, center, 1.5, 24)
        assert poly.contains_point(center)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_radius_bounds_mbr(self, seed):
        rng = random.Random(seed)
        r = 2.0
        poly = star_polygon(rng, Point(0, 0), r, 16, roughness=0.4)
        mbr = poly.mbr
        # Radial function is clamped to [0.15, ~1.4+] * r; allow slack.
        assert max(abs(mbr.xmin), abs(mbr.xmax), abs(mbr.ymin), abs(mbr.ymax)) <= 2.5 * r


class TestGenerateLayer:
    def _config(self, count=30):
        return GeneratorConfig(
            world=Rect(0, 0, 50, 50),
            count=count,
            vertex_model=VertexCountModel(vmin=3, vmax=64, mean=10),
            coverage=1.0,
            cluster_count=4,
        )

    def test_count(self):
        layer = generate_layer(self._config(count=25), seed=1)
        assert len(layer) == 25

    def test_deterministic_per_seed(self):
        a = generate_layer(self._config(), seed=5)
        b = generate_layer(self._config(), seed=5)
        assert a == b
        c = generate_layer(self._config(), seed=6)
        assert a != c

    def test_centers_near_world(self):
        config = self._config(count=60)
        layer = generate_layer(config, seed=2)
        world = config.world
        slack = min(world.width, world.height) * 0.6
        grown = Rect(
            world.xmin - slack, world.ymin - slack,
            world.xmax + slack, world.ymax + slack,
        )
        for poly in layer:
            assert grown.intersects(poly.mbr)

    def test_density_preserved_across_scales(self):
        """The coverage knob: halving the count should roughly preserve
        total polygon area (radius grows to compensate)."""
        big = generate_layer(self._config(count=200), seed=4)
        small = generate_layer(self._config(count=50), seed=4)
        area_big = sum(p.area for p in big)
        area_small = sum(p.area for p in small)
        assert 0.2 <= area_small / area_big <= 5.0
