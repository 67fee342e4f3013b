"""Dataset serialization: a native text format plus WKT interop.

The native format is line-oriented and trivial to parse, so generated
datasets can be cached on disk and inspected:

    # repro-dataset v1
    name <dataset name>
    world <xmin> <ymin> <xmax> <ymax>
    poly <k> <x0> <y0> <x1> <y1> ... <xk-1> <yk-1>
    ...

WKT (Well-Known Text) ``POLYGON`` readers/writers are provided for
exchanging geometry with GIS tools - single exterior rings only, matching
this library's polygon model (the paper's datasets are simple rings too).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..geometry.polygon import Polygon
from ..geometry.rect import Rect
from .dataset import SpatialDataset

_HEADER = "# repro-dataset v1"


def save_dataset(dataset: SpatialDataset, path: Union[str, Path]) -> None:
    """Write ``dataset`` to ``path`` in the v1 text format."""
    path = Path(path)
    with path.open("w", encoding="ascii") as f:
        f.write(_HEADER + "\n")
        f.write(f"name {dataset.name}\n")
        w = dataset.world
        f.write(f"world {w.xmin!r} {w.ymin!r} {w.xmax!r} {w.ymax!r}\n")
        for poly in dataset.polygons:
            coords = " ".join(f"{x!r} {y!r}" for x, y in poly.coords())
            f.write(f"poly {poly.num_vertices} {coords}\n")


def polygon_to_wkt(polygon: Polygon) -> str:
    """The polygon as a WKT ``POLYGON`` with one (closed) exterior ring."""
    coords = polygon.coords()
    ring = ", ".join(f"{x!r} {y!r}" for x, y in coords + coords[:1])
    return f"POLYGON (({ring}))"


def polygon_from_wkt(text: str) -> Polygon:
    """Parse a WKT ``POLYGON`` with a single exterior ring.

    The closing coordinate (WKT rings repeat the first point) is dropped;
    holes (additional rings) are rejected, as the polygon model has none.
    """
    body = text.strip()
    upper = body.upper()
    if not upper.startswith("POLYGON"):
        raise ValueError(f"not a WKT POLYGON: {body[:40]!r}...")
    inner = body[len("POLYGON"):].strip()
    if not (inner.startswith("((") and inner.endswith("))")):
        raise ValueError("malformed WKT POLYGON parentheses")
    rings = inner[2:-2].split("),")
    if len(rings) != 1:
        raise ValueError(
            f"POLYGON has {len(rings)} rings; holes are not supported"
        )
    pts = []
    for token in rings[0].split(","):
        parts = token.split()
        if len(parts) != 2:
            raise ValueError(f"malformed WKT coordinate {token.strip()!r}")
        pts.append((float(parts[0]), float(parts[1])))
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        raise ValueError("WKT ring has fewer than 3 distinct points")
    return Polygon.from_coords(pts)


def save_dataset_wkt(dataset: SpatialDataset, path: Union[str, Path]) -> None:
    """Write the dataset as one WKT POLYGON per line."""
    path = Path(path)
    with path.open("w", encoding="ascii") as f:
        for poly in dataset.polygons:
            f.write(polygon_to_wkt(poly) + "\n")


def load_dataset_wkt(
    path: Union[str, Path], name: Optional[str] = None
) -> SpatialDataset:
    """Read a dataset from one-WKT-POLYGON-per-line text."""
    path = Path(path)
    polygons: List[Polygon] = []
    with path.open("r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                polygons.append(polygon_from_wkt(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not polygons:
        raise ValueError(f"{path}: no polygons")
    return SpatialDataset(name if name is not None else path.stem, polygons)


def load_dataset(path: Union[str, Path]) -> SpatialDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    path = Path(path)
    name = path.stem
    world: Rect | None = None
    polygons: List[Polygon] = []
    with path.open("r", encoding="ascii") as f:
        first = f.readline().rstrip("\n")
        if first != _HEADER:
            raise ValueError(f"{path}: not a repro-dataset v1 file (got {first!r})")
        for lineno, line in enumerate(f, start=2):
            parts = line.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "name":
                name = parts[1] if len(parts) > 1 else name
            elif tag == "world":
                if len(parts) != 5:
                    raise ValueError(f"{path}:{lineno}: malformed world line")
                world = Rect(*(float(v) for v in parts[1:]))
            elif tag == "poly":
                k = int(parts[1])
                values = parts[2:]
                if len(values) != 2 * k:
                    raise ValueError(
                        f"{path}:{lineno}: expected {2 * k} coordinates, "
                        f"got {len(values)}"
                    )
                try:
                    coords = np.array([float(v) for v in values]).reshape(k, 2)
                    polygons.append(Polygon(coords))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
            else:
                raise ValueError(f"{path}:{lineno}: unknown record {tag!r}")
    if not polygons:
        raise ValueError(f"{path}: dataset contains no polygons")
    return SpatialDataset(name, polygons, world=world)
