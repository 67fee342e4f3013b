"""Tests for the Table-2 dataset catalog."""

import pytest

from repro.datasets import CATALOG, CONUS, WYOMING, load


class TestCatalogContents:
    def test_five_datasets(self):
        assert list(CATALOG) == ["LANDC", "LANDO", "STATES50", "PRISM", "WATER"]

    def test_table2_statistics_recorded(self):
        """The catalog must carry the paper's Table 2 numbers verbatim."""
        t2 = {
            "LANDC": (14_731, 3, 4_397, 192.0),
            "LANDO": (33_860, 3, 8_807, 20.0),
            "STATES50": (31, 4, 10_744, 138.0),
            "PRISM": (6_243, 3, 29_556, 68.0),
            "WATER": (21_866, 3, 39_360, 91.0),
        }
        for name, (n, vmin, vmax, vmean) in t2.items():
            e = CATALOG[name]
            assert (e.count, e.vmin, e.vmax, e.vmean) == (n, vmin, vmax, vmean)

    def test_worlds(self):
        assert CATALOG["LANDC"].world == WYOMING
        assert CATALOG["LANDO"].world == WYOMING
        for name in ("STATES50", "PRISM", "WATER"):
            assert CATALOG[name].world == CONUS


class TestLoad:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load("OCEANS")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            load("LANDC", n_scale=0.0)
        with pytest.raises(ValueError):
            load("LANDC", n_scale=1.5)
        with pytest.raises(ValueError):
            load("LANDC", v_scale=-0.1)

    def test_scaled_count(self):
        ds = load("PRISM", n_scale=0.01, v_scale=0.2)
        assert len(ds) == round(6_243 * 0.01)

    def test_name_records_scale(self):
        ds = load("WATER", n_scale=0.01, v_scale=0.5)
        assert ds.name == "WATER@n0.01v0.5"

    def test_deterministic_default_seed(self):
        a = load("LANDO", n_scale=0.005, v_scale=0.3)
        b = load("LANDO", n_scale=0.005, v_scale=0.3)
        assert a.polygons == b.polygons

    def test_custom_seed_changes_data(self):
        a = load("LANDO", n_scale=0.005, v_scale=0.3)
        b = load("LANDO", n_scale=0.005, v_scale=0.3, seed=999)
        assert a.polygons != b.polygons

    def test_vertex_stats_track_targets(self):
        ds = load("LANDC", n_scale=0.03, v_scale=0.25)
        stats = ds.stats()
        target_mean = 192.0 * 0.25
        assert stats.min_vertices >= 3
        assert stats.max_vertices <= round(4_397 * 0.25)
        # Lognormal sampling with a few hundred objects: generous tolerance.
        assert 0.4 * target_mean <= stats.mean_vertices <= 2.2 * target_mean

    def test_relative_complexity_ordering_preserved(self):
        """LANDC polygons are complex (mean 192), LANDO simple (mean 20):
        the scaled stand-ins must keep that relationship."""
        landc = load("LANDC", n_scale=0.01, v_scale=0.3)
        lando = load("LANDO", n_scale=0.01, v_scale=0.3)
        assert landc.stats().mean_vertices > 2 * lando.stats().mean_vertices

    def test_world_preserved(self):
        ds = load("LANDC", n_scale=0.005, v_scale=0.2)
        assert ds.world == WYOMING

    def test_join_partners_overlap(self):
        """LANDC and LANDO stand-ins must actually produce join work."""
        from repro.index import plane_sweep_mbr_join

        landc = load("LANDC", n_scale=0.004, v_scale=0.2)
        lando = load("LANDO", n_scale=0.004, v_scale=0.2)
        pairs = plane_sweep_mbr_join(landc.mbrs, lando.mbrs)
        assert len(pairs) > len(landc) // 2
