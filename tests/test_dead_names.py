"""No dead names in the package.

Each dehnkit module is parsed.  The test fails on an import that its module
never reads and does not re-export through `__all__`, and on a module-level
private name (a function, class or constant whose name starts with one
underscore) that no module of the package reads.  A read is a load of the
name, an attribute of that name, or an import of it by name; tests do not
count, so a helper kept only for them is dead too.

The engine modules that make curves (overlay, reduction, twisting) lay
every point out on int keys, so they import no `fractions`: positions are
made only where a curve is born from its keys, in `surface`.  Presets and
the JSON loader keep their input Fractions.
"""

import ast
from pathlib import Path

import pytest

import dehnkit

PACKAGE = Path(dehnkit.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reads(tree: ast.AST) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def _name_reads(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> list:
    """(line, bound name) of every import in the module, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(node.lineno, a.asname or a.name) for a in node.names]
    return found


def _module_privates(tree: ast.Module) -> list:
    """(line, name) of every private function, class and constant at top level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, n) for n in names if _private(n)]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read_or_exported(module):
    tree = _tree(module)
    used = _name_reads(tree) | _exported(tree)
    assert [(line, n) for line, n in _imported(tree) if n not in used] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_module_name_is_read_somewhere(module):
    read = set().union(*(_reads(_tree(m)) for m in MODULES))
    assert [(line, n) for line, n in _module_privates(_tree(module)) if n not in read] == []


def _imported_modules(tree: ast.Module) -> set:
    """The top-level packages of every absolute import in the module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_engine_modules_import_no_fractions():
    assert [m for m in ("overlay", "reduction", "twisting")
            if "fractions" in _imported_modules(_tree(m))] == []
    assert "fractions" in _imported_modules(ast.parse("from fractions import Fraction"))


def test_the_guard_sees_a_dead_import_and_a_dead_private_name():
    tree = ast.parse("import math\nfrom .x import y, _z\n_CACHE = {}\n"
                     "def _helper():\n    return y\n__all__ = ['_z']\n")
    used = _name_reads(tree) | _exported(tree)
    assert [n for _, n in _imported(tree) if n not in used] == ["math"]
    assert [n for _, n in _module_privates(tree) if n not in _reads(tree)] == [
        "_CACHE", "_helper"]
