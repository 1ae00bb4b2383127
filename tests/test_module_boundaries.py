"""Private names stay inside their module, and package imports run one way.

Every ``src/netsde/*.py`` module is parsed with ``ast``: no module imports
another netsde module's private (underscore) name, and only ``assembly.py``
imports SciPy's private ``_sparsetools``, through ``assembly.bind_matvec``.
Every relative import is a module-level statement, and the graph of
``from .module import ...`` edges has no cycle.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "netsde").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imports(path: Path):
    """``(module, name)`` for every ``from module import name`` and
    ``(module, None)`` for every ``import module`` in the file; a relative
    module keeps its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def _relative_imports(path: Path):
    """``(name, nested)`` for every relative import in the file: ``from .mesh
    import x`` and ``from . import mesh`` both give ``mesh`` (so ``from .
    import __version__`` gives a name that is no module), and ``nested`` is
    true unless the import is a module-level statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            for name in names:
                yield name, id(node) not in top


def _import_cycle(paths):
    """The first cycle of the package's import graph as ``a -> b -> a``, or None."""
    modules = {p.stem for p in paths}
    graph = {p.stem: sorted({m for m, _ in _relative_imports(p) if m in modules}) for p in paths}
    done, stack = set(), []

    def visit(module):
        if module in stack:
            return stack[stack.index(module):] + [module]
        if module in done:
            return None
        stack.append(module)
        for imported in graph[module]:
            cycle = visit(imported)
            if cycle:
                return cycle
        done.add(stack.pop())
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return " -> ".join(cycle)
    return None


def _is_netsde(module: str) -> bool:
    return module.startswith(".") or module == "netsde" or module.startswith("netsde.")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_of_another_module(path):
    leaks = [f"{module}.{name}" for module, name in _imports(path)
             if _is_netsde(module) and name is not None and _private(name)]
    assert not leaks, f"{path.name} imports private names of other modules: {leaks}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "assembly.py"],
                         ids=lambda p: p.name)
def test_sparsetools_only_in_assembly(path):
    uses = [(module, name) for module, name in _imports(path)
            if "_sparsetools" in module.split(".") or name == "_sparsetools"]
    assert not uses, f"{path.name} imports SciPy's private _sparsetools: {uses}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_are_module_level(path):
    nested = [name for name, inside in _relative_imports(path) if inside]
    assert not nested, f"{path.name} imports from the package inside a block: {nested}"


def test_package_imports_are_acyclic():
    cycle = _import_cycle(SOURCES)
    assert cycle is None, f"the package imports run in a cycle: {cycle}"


def test_the_import_rules_catch_a_planted_cycle(tmp_path):
    planted = {"a": "from .b import f\nfrom . import __version__\n",
               "b": "def f():\n    from .a import g\n    return g\n",
               "c": "from .a import f\n"}
    for name, source in planted.items():
        (tmp_path / f"{name}.py").write_text(source)
    paths = sorted(tmp_path.glob("*.py"))
    assert [list(_relative_imports(p)) for p in paths] == [
        [("b", False), ("__version__", False)], [("a", True)], [("a", False)]]
    assert _import_cycle(paths) == "a -> b -> a"
    assert _import_cycle(paths[:1] + paths[2:]) is None


def test_the_rules_catch_a_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .mesh import _GAUSS_XI\nfrom scipy.sparse import _sparsetools\n"
                   "from . import __version__\n")
    imports = list(_imports(bad))
    assert [name for module, name in imports if _is_netsde(module) and _private(name)] == [
        "_GAUSS_XI"]
    assert ("scipy.sparse", "_sparsetools") in imports
