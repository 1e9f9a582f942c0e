"""Only overlay reads the internals of an arrangement.

Every other dehnkit module reaches a JointSystem through its public names
(`slot`, `crossings_on`, `arc`, `beside_keys`, ...) and a minimal-position pair
through `overlay.isotopic_in`.  Each module other than overlay is parsed,
and the test fails on any read of a private attribute that a JointSystem
has, on the class or on a built instance whose darts and regions have run,
on any private name imported from overlay, and on any private attribute
read off the overlay module itself.  Dunder names are not private.

Likewise only surface bears, checks and hands topology to a curve: no
other module reads `_validate`, `_share_topology` or `_made`, and each
new curve is born, validated and given its source's topology in one call
to EmbeddedCurve._from_keys.
"""

import ast
from pathlib import Path

import pytest

import dehnkit
from dehnkit.overlay import JointSystem
from dehnkit.presets import build_preset

PACKAGE = Path(dehnkit.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "overlay")
BIRTH_NAMES = {"_validate", "_share_topology", "_made"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _arrangement_internals() -> set:
    g = build_preset("genus2_closed").curves
    system = JointSystem(g["a1"].surface, (g["a1"], g["t1"]))
    system.regions  # runs the darts and regions phases, which set the rest
    names = {n for n in dir(JointSystem) if _private(n)}
    names |= {n for n in vars(system) if _private(n)}
    return names


def _overlay_import(node: ast.ImportFrom) -> bool:
    return (node.level == 1 and node.module == "overlay"
            or node.level == 0 and node.module == "dehnkit.overlay")


def _violations(tree: ast.AST, internals: set) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in internals
                or isinstance(node.value, ast.Name) and node.value.id == "overlay"
                and _private(node.attr)):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and _overlay_import(node):
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
    return found


def test_the_internals_are_collected():
    internals = _arrangement_internals()
    # one name of each kind: a method, a slot table, a cell table, a
    # cached property
    assert {"_slots", "_stops", "_labels", "_disc_runs"} <= internals
    assert "slot" not in internals and "__init__" not in internals


@pytest.mark.parametrize("module", MODULES)
def test_only_overlay_reads_arrangement_internals(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert _violations(tree, _arrangement_internals()) == []


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem != "surface"))
def test_only_surface_validates_a_curve_or_hands_on_its_topology(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in BIRTH_NAMES]
    assert found == []
