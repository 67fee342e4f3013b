"""The code references of DESIGN.md and README.md resolve.

Every backticked dotted reference (``module.name``, ``Class.member``,
``repro.pkg.module.name``, an optional trailing ``()``) whose head is a
module or package under ``src/repro`` - by its dotted path or any dotted
suffix of it, ``raster_bulk`` or ``gpu.pipeline`` - or a class defined
there must name a definition that exists:

* after a module: a top-level definition, assignment or import of it, or a
  member of a class it defines (``engine.refine``);
* after a class: a method, class attribute, annotated field, ``__slots__``
  entry or ``self.`` attribute of it or of a base class it names;
* or the whole reference is a string ``src`` emits - a span or metric
  name such as ``gpu.tile_batch``.

File names (``timeline.json``) and references with any other head
(``np.add``) are not code references of this package and are skipped.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOCS = ("DESIGN.md", "README.md")
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
#: A reference ending in one of these is a file name (``timeline.json``).
FILE_SUFFIXES = {"json", "jsonl", "py", "md", "txt", "yml", "yaml", "toml", "csv", "svg", "png"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"))
    return modules


MODULES = _modules()
CLASSES = {}
for _tree in MODULES.values():
    for _node in ast.walk(_tree):
        if isinstance(_node, ast.ClassDef):
            CLASSES.setdefault(_node.name, []).append(_node)
STRINGS = {
    node.value
    for tree in MODULES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.Constant) and isinstance(node.value, str)
}


def _bound_names(body):
    for node in body:
        if isinstance(node, DEFINITIONS):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
                    if target.id == "__slots__" and isinstance(node.value, (ast.Tuple, ast.List)):
                        yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)


def _members(cls, seen=()):
    names = set(_bound_names(cls.body))
    names |= {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == "self"
    }
    for base in cls.bases:
        for parent in CLASSES.get(getattr(base, "id", getattr(base, "attr", None)), []):
            if parent not in seen:
                names |= _members(parent, (*seen, cls))
    return names


def _in_module(tree, rest):
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    if len(rest) == 1:
        return rest[0] in set(_bound_names(tree.body)) or any(
            rest[0] in _members(c) for c in classes
        )
    return len(rest) == 2 and any(rest[1] in _members(c) for c in CLASSES.get(rest[0], []))


def resolves(reference):
    """True, False, or None when the head is not this package's."""
    parts = reference.split(".")
    if parts[-1] in FILE_SUFFIXES:
        return None
    if reference in STRINGS:
        return True
    if parts[0] in CLASSES:
        return len(parts) == 2 and any(parts[1] in _members(c) for c in CLASSES[parts[0]])
    for k in range(len(parts), 0, -1):
        prefix = ".".join(parts[:k])
        trees = [t for m, t in MODULES.items() if m == prefix or m.endswith("." + prefix)]
        if trees:
            return k == len(parts) or any(_in_module(t, parts[k:]) for t in trees)
    return None


def _references():
    for doc in DOCS:
        for match in REFERENCE.finditer((ROOT / doc).read_text(encoding="utf-8")):
            yield doc, match.group(1)


def test_every_code_reference_in_the_docs_resolves():
    checked = [(doc, ref) for doc, ref in _references() if resolves(ref) is not None]
    missing = sorted({f"{doc}: {ref}" for doc, ref in checked if not resolves(ref)})
    assert not missing, f"documented names that do not exist: {missing}"
    assert len(checked) > 100


def test_a_missing_name_is_reported():
    assert resolves("raster_bulk._footprint_bits")
    assert resolves("Polygon.coords_array")
    assert resolves("gpu.tile_batch")
    assert resolves("timeline.json") is None
    assert not resolves("raster_bulk._chunk_hits")
    assert not resolves("Polygon.no_such_member")
    assert not resolves("repro.gpu.raster_line")
