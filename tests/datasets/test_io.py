"""Tests for dataset text serialization."""

import pytest

from repro.datasets import SpatialDataset, load, load_dataset, save_dataset
from repro.geometry import Polygon, Rect


@pytest.fixture
def tiny(tmp_path):
    ds = SpatialDataset(
        "tiny",
        [
            Polygon.from_coords([(0, 0), (1, 0), (0.5, 1.25)]),
            Polygon.from_coords([(2, 2), (3, 2), (3, 3), (2, 3)]),
        ],
        world=Rect(-1, -1, 5, 5),
    )
    path = tmp_path / "tiny.ds"
    return ds, path


class TestRoundTrip:
    def test_polygons_exact(self, tiny):
        ds, path = tiny
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.polygons == ds.polygons
        assert back.name == "tiny"
        assert back.world == ds.world

    def test_generated_dataset_roundtrip(self, tmp_path):
        ds = load("LANDO", n_scale=0.002, v_scale=0.2)
        path = tmp_path / "lando.ds"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.polygons == ds.polygons
        assert back.world == ds.world

    def test_float_precision_preserved(self, tmp_path):
        """repr-based serialization must round-trip doubles exactly."""
        ugly = Polygon.from_coords(
            [(0.1, 0.2), (1 / 3, 2 / 7), (0.30000000000000004, 1e-17)]
        )
        ds = SpatialDataset("f", [ugly])
        path = tmp_path / "f.ds"
        save_dataset(ds, path)
        assert load_dataset(path).polygons[0] == ugly


class TestErrors:
    def test_wrong_header(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_text("not a dataset\n")
        with pytest.raises(ValueError, match="not a repro-dataset"):
            load_dataset(p)

    def test_malformed_world(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_text("# repro-dataset v1\nworld 1 2 3\n")
        with pytest.raises(ValueError, match="malformed world"):
            load_dataset(p)

    def test_wrong_coordinate_count(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_text("# repro-dataset v1\npoly 3 0 0 1 1\n")
        with pytest.raises(ValueError, match="expected 6 coordinates"):
            load_dataset(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_line_and_vertex(self, tmp_path, bad):
        p = tmp_path / "bad.ds"
        p.write_text(
            f"# repro-dataset v1\npoly 3 0 0 1 0 0 1\npoly 3 0 0 1 {bad} 0 1\n"
        )
        with pytest.raises(ValueError, match=r"bad\.ds:3: .*vertex 1 .*non-finite"):
            load_dataset(p)

    def test_unparsable_or_short_polygon_reports_line(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_text("# repro-dataset v1\npoly 3 0 0 1 zero 0 1\n")
        with pytest.raises(ValueError, match=r"bad\.ds:2: "):
            load_dataset(p)
        p.write_text("# repro-dataset v1\npoly 2 0 0 1 1\n")
        with pytest.raises(ValueError, match=r"bad\.ds:2: .*at least 3 vertices"):
            load_dataset(p)

    def test_unknown_record(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_text("# repro-dataset v1\nblob 1 2\n")
        with pytest.raises(ValueError, match="unknown record"):
            load_dataset(p)

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_text("# repro-dataset v1\nname x\n")
        with pytest.raises(ValueError, match="no polygons"):
            load_dataset(p)

    def test_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "ok.ds"
        p.write_text("# repro-dataset v1\n\npoly 3 0 0 1 0 0 1\n\n")
        assert len(load_dataset(p)) == 1


class TestWkt:
    def test_polygon_roundtrip(self):
        from repro.datasets import polygon_from_wkt, polygon_to_wkt

        poly = Polygon.from_coords([(0.5, 0.25), (4, 0), (2, 3.75)])
        assert polygon_from_wkt(polygon_to_wkt(poly)) == poly

    def test_wkt_is_closed_ring(self):
        from repro.datasets import polygon_to_wkt

        poly = Polygon.from_coords([(0, 0), (1, 0), (0, 1)])
        text = polygon_to_wkt(poly)
        assert text.startswith("POLYGON ((")
        first = text.index("((") + 2
        coords = text[first:-2].split(",")
        assert coords[0].strip() == coords[-1].strip()

    def test_parse_tolerates_case_and_spacing(self):
        from repro.datasets import polygon_from_wkt

        poly = polygon_from_wkt("polygon (( 0 0, 2 0 , 1 2, 0 0 ))")
        assert poly.num_vertices == 3

    def test_rejects_non_polygon(self):
        from repro.datasets import polygon_from_wkt

        with pytest.raises(ValueError, match="not a WKT POLYGON"):
            polygon_from_wkt("LINESTRING (0 0, 1 1)")

    def test_rejects_holes(self):
        from repro.datasets import polygon_from_wkt

        with pytest.raises(ValueError, match="holes"):
            polygon_from_wkt(
                "POLYGON ((0 0, 9 0, 9 9, 0 9, 0 0), (2 2, 3 2, 3 3, 2 2))"
            )

    def test_rejects_tiny_ring(self):
        from repro.datasets import polygon_from_wkt

        with pytest.raises(ValueError, match="fewer than 3"):
            polygon_from_wkt("POLYGON ((0 0, 1 1, 0 0))")

    def test_dataset_roundtrip(self, tmp_path):
        from repro.datasets import load, load_dataset_wkt, save_dataset_wkt

        ds = load("LANDO", n_scale=0.001, v_scale=0.2)
        path = tmp_path / "lando.wkt"
        save_dataset_wkt(ds, path)
        back = load_dataset_wkt(path, name="lando")
        assert back.polygons == ds.polygons
        assert back.name == "lando"

    def test_empty_file_rejected(self, tmp_path):
        from repro.datasets import load_dataset_wkt

        p = tmp_path / "empty.wkt"
        p.write_text("\n\n")
        with pytest.raises(ValueError, match="no polygons"):
            load_dataset_wkt(p)

    def test_error_reports_line_number(self, tmp_path):
        from repro.datasets import load_dataset_wkt

        p = tmp_path / "bad.wkt"
        p.write_text("POLYGON ((0 0, 1 0, 0 1, 0 0))\nPOLYGON ((oops))\n")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset_wkt(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_line_and_vertex(self, tmp_path, bad):
        from repro.datasets import load_dataset_wkt

        p = tmp_path / "bad.wkt"
        p.write_text(
            f"POLYGON ((0 0, 1 0, 0 1, 0 0))\nPOLYGON ((0 0, 1 0, 1 1, {bad} 1, 0 0))\n"
        )
        with pytest.raises(ValueError, match=r"bad\.wkt:2: .*vertex 3 .*non-finite"):
            load_dataset_wkt(p)
