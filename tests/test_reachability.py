"""Traffic audit of ``src/repro``, checked on the syntax tree.

A public top-level ``def``/``class`` is *reached* when it is named in another
``src/repro`` module that is not a package ``__init__.py`` (a re-export is not
a caller), in ``benchmarks/**/*.py``, ``examples/*.py`` or a ``python`` block
of README.md, elsewhere in its own module outside its own body, or by a
registering decorator (``@experiment``).  Class members are audited the same
way: every public method, property and annotated field of every class, keyed
``Class.member``, is reached when its name occurs - as attribute, keyword,
name, import or identifier-shaped string - in that traffic outside its own
body.  (Name-level: an attribute name says nothing about its class, so a
member no traffic *issues* can still pass by sharing a name; the hook spy in
``tests/obs/test_capture.py`` is the dynamic check.)  What nothing reaches
stays only with a reason in ``KEPT``, of two kinds: "outside-data door" (it
carries or validates data that crosses the program's edge) and "read by tests
of <what>" (an inspection aid tests of other code look through).  A reference
implementation that tests compare other code against is not kept here: it
lives in ``tests/oracles/``.  A ``KEPT`` entry that has become reached, or
names nothing, fails too.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

KEPT = {
    "load_dataset": "outside-data door",
    "save_dataset": "outside-data door",
    "load_dataset_wkt": "outside-data door",
    "save_dataset_wkt": "outside-data door",
    "load_alert_log": "outside-data door",
    "RefinementEngine.contains_properly": "read by tests of the containment stage's per-pair protocol",
    "_StagedEngine.contains_properly": "read by tests of the containment stage's per-pair protocol",
    "IntervalApproximation.cell_ids": "read by tests of the interval lists against cell sets",
    "IntervalApproximation.full_cell_ids": "read by tests of the interval lists against cell sets",
    "IntervalApproximation.full_cell_count": "read by tests of the interval lists against cell sets",
    "IntervalIndex.classify_batch": "read by tests of the rows kernel on polygon pairs and of the certificate mutants",
    "IntervalGrid.cell_rect": "read by tests of FULL cells against polygon containment",
    "Point.midpoint": "read by tests of adversarial rings (tests/strategies.py)",
    "segments_intersect": "read by tests of the segment predicate on Points and by the oracles",
    "on_segment": "read by tests of point-on-segment and by the oracles' Point-form predicate",
    "Polygon.centroid": "read by tests of nearest-neighbour queries",
    "Polygon.is_ccw": "read by tests of convex-hull orientation",
    "Polygon.translated": "read by tests of nearby polygon pairs (tests/strategies.py)",
    "Rect.max_distance": "read by tests of the 0-Object upper bound",
    "Rect.corners": "read by tests of the 0/1-Object bounds (their side-pair and vertex loops)",
    "TiledPipeline.tile_image": "read by tests of atlas tiles against per-pair renders",
    "RTree.check_invariants": "read by tests of STR packing and tree search",
    "CommandRecorder.snapshot_framebuffer": "read by tests of end-of-capture replay identity",
    "MetricsRegistry.gauge": "read by tests of the engine pool's gauge source",
    "_Connection.connection_made": "outside-data door",
    "_Connection.eof_received": "outside-data door",
    "_Connection.pause_writing": "outside-data door",
    "_Connection.resume_writing": "outside-data door",
}


def _names(tree, skip=None):
    """Identifiers ``tree`` mentions: names, attributes, imported names, keywords
    and identifier-shaped strings (``__all__`` lists apart: a re-export)."""
    for node in ast.iter_child_nodes(tree):
        if node is skip or "__all__" in (getattr(t, "id", "") for t in getattr(node, "targets", ())):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value
        yield from _names(node, skip)


def _definitions(tree):
    """``(key, name, node)`` of the public top-level definitions and, for every
    class, its public methods, properties and annotated fields."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            if "experiment" not in _names(ast.Module(node.decorator_list, [])):
                yield node.name, node.name, node
    for cls in ast.walk(tree):
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(node, FUNCTIONS):
                yield f"{cls.name}.{node.name}", node.name, node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield f"{cls.name}.{node.target.id}", node.target.id, node


@functools.cache
def _unreached():
    """Public definitions and class members under ``src/repro`` no traffic reaches."""
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
        key
        for path, tree in trees.items()
        if SRC in path.parents
        for key, name, node in _definitions(tree)
        if not name.startswith("_")
        and name not in _names(tree, skip=node)
        and not any(name in used for p, used in callers.items() if p != path)
    )


def _audit(kept):
    unreached = _unreached()
    return sorted(unreached - set(kept)), sorted(set(kept) - unreached)


def test_every_public_definition_is_reached_or_kept_with_a_reason():
    unexplained, stale = _audit(KEPT)
    assert not unexplained, f"no traffic reaches, and KEPT does not explain: {unexplained}"
    assert not stale, f"KEPT entries that are reached or no longer defined: {stale}"
    reasons = ("outside-data door", "read by tests of ")
    assert all(r == reasons[0] or (r.startswith(reasons[1]) and r != reasons[1]) for r in KEPT.values())
    assert sum("." in key for key in KEPT) <= 22


def test_a_reached_or_missing_name_in_kept_is_reported_stale():
    stale = {"Polygon": "", "no_such_definition": "", "Polygon.mbr": "", "Polygon.no_such": ""}
    assert _audit({**KEPT, **stale})[1] == sorted(stale)
