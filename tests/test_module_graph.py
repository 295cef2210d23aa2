"""The package's modules import one another without a cycle, at their tops.

Every module under ``src/spindual`` is parsed with ``ast``.  Its imports of
the package's own modules, wherever they stand, are the edges of the import
graph, which must be acyclic: no module needs another to be half-imported.
And no module imports after its first ``def`` or ``class``, so each
module's dependencies are read in one place, before anything is defined.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spindual"
PACKAGE = "spindual"
MODULES = sorted(SRC.glob("*.py"))


def package_imports(tree: ast.Module, modules: set) -> set:
    """The modules of the package that a module imports; a name of the
    package that is no module stands for the package's ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base == "." or base == PACKAGE:
                found.update(alias.name if alias.name in modules else "__init__"
                             for alias in node.names)
            elif node.level == 1 or base.startswith(PACKAGE + "."):
                found.add(base.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] if "." in alias.name else "__init__"
                         for alias in node.names if alias.name.split(".")[0] == PACKAGE)
    return found


def cycle(graph: dict) -> list:
    """One cycle of the graph as its nodes, the first one repeated at the
    end, or [] when there is none."""
    done = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        for succ in sorted(graph.get(node, ())):
            if found := visit(succ, path + [node]):
                return found
        done.add(node)
        return []

    for node in sorted(graph):
        if found := visit(node, []):
            return found
    return []


def late_imports(tree: ast.Module) -> list:
    """The line of each top-level import that follows the first def or class."""
    lines, defined = [], False
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = True
        elif defined and isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.append(node.lineno)
    return lines


def test_the_import_graph_is_acyclic():
    modules = {path.stem for path in MODULES}
    graph = {path.stem: package_imports(ast.parse(path.read_text(encoding="utf-8")), modules)
             for path in MODULES}
    assert cycle(graph) == []
    # the parse sees the imports that the classifier's pipeline calls through
    assert graph["spinclass"] >= {"rewriter", "orbits"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_after_its_definitions(path):
    assert late_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_checks_find_a_cycle_and_a_late_import():
    modules = {"a", "b", "c"}
    graph = {"a": package_imports(ast.parse("from .b import f"), modules),
             "b": package_imports(ast.parse("from spindual import c"), modules),
             "c": package_imports(ast.parse("def g():\n    import spindual.a"), modules)}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    assert cycle(graph) == ["a", "b", "c", "a"]
    assert cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert package_imports(ast.parse("from . import VERSION\nimport spindual"), modules) \
        == {"__init__"}
    assert late_imports(ast.parse("import os\nclass A: pass\nfrom . import b")) == [3]
    assert late_imports(ast.parse("import os\nx = 1\nimport sys\ndef f(): pass")) == []
