"""Traffic audit of ``src/repro``, checked on the syntax tree.

A public top-level ``def``/``class`` is *reached* when it is named in another
``src/repro`` module that is not a package ``__init__.py`` (a re-export is not
a caller), in ``benchmarks/**/*.py``, ``examples/*.py`` or a ``python`` block
of README.md, elsewhere in its own module outside its own body, or by a
registering decorator (``@experiment``).  Methods are not audited: an attribute
name says nothing about its class.  What nothing reaches stays only with a
reason in ``KEPT``, of two kinds: "oracle for <what>" (tests compare other
code against it) and "outside-data door" (it carries or validates data that
crosses the program's edge).  A ``KEPT`` entry that has become reached, or
names nothing, fails too.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

KEPT = {
    "boundaries_intersect_brute_force": "oracle for the red-blue boundary sweep",
    "polygons_within_distance_brute_force": "oracle for minDist's within-distance test",
    "point_in_polygon": "oracle for hull containment (convex_hull, ConvexHullFilter)",
    "nested_loop_mbr_join": "oracle for the plane-sweep MBR join",
    "linear_nearest": "oracle for the R-tree best-first nearest-neighbour search",
    "rasterize_line_aa_conservative": "oracle for the bulk and vector coverage kernels",
    "load_dataset": "outside-data door",
    "save_dataset": "outside-data door",
    "load_dataset_wkt": "outside-data door",
    "save_dataset_wkt": "outside-data door",
    "load_alert_log": "outside-data door",
}


def _names(tree, skip=None):
    """Identifiers ``tree`` mentions: names, attributes, imported names."""
    for node in ast.iter_child_nodes(tree):
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        yield from _names(node, skip)


@functools.cache
def _unreached():
    """Public top-level definitions under ``src/repro`` no traffic reaches."""
    paths = [
        *SRC.rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
        *(ROOT / "examples").glob("*.py"),
    ]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    callers = {p: set(_names(t)) for p, t in trees.items() if p.name != "__init__.py"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    callers[ROOT / "README.md"] = {n for b in blocks for n in _names(ast.parse(b))}
    return frozenset(
        node.name
        for path, tree in trees.items()
        if SRC in path.parents
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and "experiment" not in _names(ast.Module(node.decorator_list, []))
        and node.name not in _names(tree, skip=node)
        and not any(node.name in used for p, used in callers.items() if p != path)
    )


def _audit(kept):
    unreached = _unreached()
    return sorted(unreached - set(kept)), sorted(set(kept) - unreached)


def test_every_public_definition_is_reached_or_kept_with_a_reason():
    unexplained, stale = _audit(KEPT)
    assert not unexplained, f"no traffic reaches, and KEPT does not explain: {unexplained}"
    assert not stale, f"KEPT entries that are reached or no longer defined: {stale}"
    assert all(r.startswith("oracle for ") or r == "outside-data door" for r in KEPT.values())


def test_a_reached_or_missing_name_in_kept_is_reported_stale():
    assert _audit({**KEPT, "Polygon": "", "no_such_definition": ""})[1] == [
        "Polygon",
        "no_such_definition",
    ]
