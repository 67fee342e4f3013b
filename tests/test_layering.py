"""Import-layering rules of ``src/repro``, checked on the syntax tree.

* the paper's own layers - geometry, gpu, core, filters, index, cache -
  never import the serving layer (``repro.serve``) above them;
* the simulated card (``repro.gpu``) knows nothing about memoization
  (``repro.cache``);
* the ambient scope, the tracer, the metrics registry and the record
  writer import nothing from the rest of ``repro`` at run time but each
  other (the tracer writes its JSONL through the record writer), so every
  layer may import them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER_LAYERS = ("geometry", "gpu", "core", "filters", "index", "cache")
LEAF_MODULES = ("obs/scope.py", "obs/trace.py", "obs/metrics.py", "obs/records.py")
LEAF_NAMES = tuple("repro." + leaf[: -len(".py")].replace("/", ".") for leaf in LEAF_MODULES)


def _is_type_checking_block(node):
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def _runtime_nodes(node):
    """``node``'s descendants, skipping ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking_block(child):
            continue
        yield child
        yield from _runtime_nodes(child)


def _imported(path, node):
    """Absolute dotted names a run-time import statement under ``node`` names."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for child in _runtime_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            base = package[: len(package) - child.level + 1] if child.level else ()
            module = ".".join((*base, *filter(None, [child.module])))
            yield module
            yield from (f"{module}.{alias.name}" for alias in child.names)


def _modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _within(name, package):
    return name == package or name.startswith(package + ".")


def test_lower_layers_do_not_import_exec_or_serve():
    offenders = [
        f"{path.relative_to(SRC)} imports {name}"
        for path, tree in _modules()
        if path.relative_to(SRC / "repro").parts[0] in LOWER_LAYERS
        for name in _imported(path, tree)
        if _within(name, "repro.serve")
    ]
    assert not offenders, offenders


def test_gpu_does_not_import_cache():
    offenders = [
        f"{path.relative_to(SRC)} imports {name}"
        for path, tree in _modules()
        if path.relative_to(SRC / "repro").parts[0] == "gpu"
        for name in _imported(path, tree)
        if _within(name, "repro.cache")
    ]
    assert not offenders, offenders


def test_scope_trace_and_metrics_are_leaves():
    offenders = [
        f"{leaf} imports {name}"
        for leaf in LEAF_MODULES
        for name in _imported(
            SRC / "repro" / leaf,
            ast.parse((SRC / "repro" / leaf).read_text(encoding="utf-8")),
        )
        if _within(name, "repro") and not any(_within(name, ok) for ok in LEAF_NAMES)
    ]
    assert not offenders, offenders
