"""Private names stay inside their module, and package imports run one way.

Every ``src/netsde/*.py`` module is parsed with ``ast``: no module imports
another netsde module's private (underscore) name, and only ``assembly.py``
imports SciPy's private ``_sparsetools``, through ``assembly.bind_matvec``.
Every relative import is a module-level statement, and the graph of
``from .module import ...`` edges has no cycle.  Every public name a module
defines (a top-level function, class or assigned name, or a method or
property of a top-level class), exports included, has a reader: a module,
its own included, reads it outside its own definition, the README names it,
or an acceptance test reads it.  Every name a module other than
``__init__.py`` (whose imports are the exports) binds by an import is read
in that module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "netsde").glob("*.py"))


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


def _public_names(path: Path):
    """The public names the file defines, in order: its top-level functions,
    classes and assigned names, and the methods and properties of its
    top-level classes."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def _reads(path: Path) -> set:
    """The names the file reads, as a bare name or an attribute, outside the
    function or class (at any depth) that defines the same name; an import or
    an assignment alone reads nothing."""
    reads = set()

    def visit(node, defining):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and \
                node.id not in defining:
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and \
                node.attr not in defining:
            reads.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return reads


def _unread_public_names(modules, readme: str, acceptance: Path):
    """``module.name`` for every public name of ``modules`` that none of
    ``modules``, the ``readme`` text and the ``acceptance`` tests reads."""
    readers = _reads(acceptance).union(*map(_reads, modules))
    return [f"{path.stem}.{name}" for path in modules for name in _public_names(path)
            if name not in readers and not re.search(rf"\b{re.escape(name)}\b", readme)]


def _unread_imports(path: Path):
    """The names the file's imports bind and the file never reads as a bare
    name, in import order; ``import a.b`` binds ``a``, and a ``__future__``
    import binds nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


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


def test_every_export_has_a_reader():
    unread = _unread_public_names(SOURCES, (ROOT / "README.md").read_text(encoding="utf-8"),
                                  ROOT / "tests" / "test_acceptance.py")
    assert not unread, f"public names no module, README line or acceptance test reads: {unread}"


def test_the_export_rule_catches_a_planted_orphan(tmp_path):
    planted = {
        "__init__.py": "from .a import documented, orphan, recursive, used\n"
                       "from .b import accepted\n",
        "a.py": "LIMIT = 3\nUNUSED: int = 4\n\n\ndef used():\n    return LIMIT\n\n\n"
                "def orphan():\n    return 2\n\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                "def documented():\n    return 3\n\n\n"
                "class Box:\n    def size(self):\n        return self.size() + self.width\n\n"
                "    @property\n    def width(self):\n        return 1\n\n"
                "    def _hidden(self):\n        return 0\n",
        "b.py": "from .a import Box, orphan, used\n\nVALUE = used()\nBox.stale = None\n\n\n"
                "def accepted():\n    return 4\n",
        "test_acceptance.py": "import pkg\n\npkg.accepted()\n",
    }
    for name, source in planted.items():
        (tmp_path / name).write_text(source)
    modules = [tmp_path / name for name in ("__init__.py", "a.py", "b.py")]
    unread = _unread_public_names(modules, "Call `documented()`.", tmp_path / "test_acceptance.py")
    # an import or an assignment alone is no read, and neither is a call
    # inside the definition; a method read only by itself is unread as well
    assert unread == ["a.UNUSED", "a.orphan", "a.recursive", "a.size", "b.VALUE"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    unread = _unread_imports(path)
    assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_the_import_rule_catches_a_planted_unread_import(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("from __future__ import annotations\n\nimport os\nimport numpy as np\n"
                       "import scipy.sparse\nfrom .a import f, g as h, k\n\n"
                       "os = None\nnp.zeros(1)\nscipy.sparse.eye(2)\n\n\n"
                       "def f2(x):\n    return h(x.k)\n")
    # a name that is only assigned to is no read, and neither is an attribute
    assert _unread_imports(planted) == ["os", "f", "k"]
