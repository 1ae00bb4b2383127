"""Private names stay inside their module.

Every ``src/netsde/*.py`` module is parsed with ``ast``: no module imports
another netsde module's private (underscore) name, and only ``assembly.py``
imports SciPy's private ``_sparsetools``, through ``assembly.bind_matvec``.
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


def test_the_rules_catch_a_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .mesh import _GAUSS_XI\nfrom scipy.sparse import _sparsetools\n"
                   "from . import __version__\n")
    imports = list(_imports(bad))
    assert [name for module, name in imports if _is_netsde(module) and _private(name)] == [
        "_GAUSS_XI"]
    assert ("scipy.sparse", "_sparsetools") in imports
