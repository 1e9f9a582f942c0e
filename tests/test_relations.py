"""Mapping-class-group relations as end-to-end oracles.

A relation between twist words holds for mathematical reasons, so checking
that both sides move curves alike tests `apply_twist` and `curves_isotopic`
without trusting the engine's own counts.  Two words act alike when they
send every curve of a filling family to isotopic oriented images: by the
Alexander method (Farb-Margalit, *A Primer on Mapping Class Groups*,
Prop. 2.8) they are then the same mapping class, up to twists along the
boundary, which curves taken up to isotopy do not see.

The families are the torus's x and y, and elsewhere the essential curves
of the pants system's filling family.  Boundary-parallel curves stay out:
`apply_twist` does not yet accept a peripheral curve to move.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit.factorization import _filling_family
from dehnkit.overlay import (
    curves_isotopic,
    geometric_intersection_number,
    is_boundary_parallel,
)
from dehnkit.presets import build_preset
from dehnkit.twisting import TwistWord, apply_word


def _family(name):
    ps = build_preset(name)
    if ps.pants is None:
        curves = (ps.curve("x"), ps.curve("y"))
    else:
        curves = [c for c in _filling_family(ps.pants) if not is_boundary_parallel(c)]
    return tuple(c.with_orientation(True) for c in curves)


def acts_alike(w1, w2, curves) -> bool:
    """Whether w1 and w2 send each oriented curve to isotopic images."""
    return all(curves_isotopic(apply_word(w1, c), apply_word(w2, c)) for c in curves)


def _word(preset, *letters):
    return TwistWord(tuple((preset.curve(n), k) for n, k in letters))


IDENTITY = TwistWord(())

# pairs of curves crossing once, by preset
BRAID_PAIRS = [
    ("torus", "x", "y"),
    ("one_holed_torus", "a1", "dual1"),
    ("genus2_closed", "a1", "t1"),
    ("genus2_closed", "a2", "t1"),
    ("genus2_closed", "a2", "t2"),
    ("genus2_closed", "a3", "t2"),
]

# disjoint pairs of genus-2 curves
COMMUTING_PAIRS = [("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("a1", "t2")]


@pytest.mark.parametrize("name, a, b", BRAID_PAIRS)
@pytest.mark.parametrize("k", (1, -1))
def test_braid_relation(name, a, b, k):
    # Primer Prop. 3.11: T_a T_b T_a = T_b T_a T_b when i(a, b) = 1
    ps = build_preset(name)
    assert geometric_intersection_number(ps.curve(a), ps.curve(b)) == 1
    aba = _word(ps, (a, k), (b, k), (a, k))
    bab = _word(ps, (b, k), (a, k), (b, k))
    assert acts_alike(aba, bab, _family(name))


@pytest.mark.parametrize("a, b", COMMUTING_PAIRS)
@pytest.mark.parametrize("k", (1, -1))
def test_disjoint_twists_commute(a, b, k):
    ps = build_preset("genus2_closed")
    assert geometric_intersection_number(ps.curve(a), ps.curve(b)) == 0
    assert acts_alike(_word(ps, (a, k), (b, k)), _word(ps, (b, k), (a, k)),
                      _family("genus2_closed"))


@pytest.mark.parametrize("name, a, b", BRAID_PAIRS)
def test_twists_on_crossing_curves_do_not_commute(name, a, b):
    # the oracle tells apart words that are different mapping classes
    ps = build_preset(name)
    assert not acts_alike(_word(ps, (a, 1), (b, 1)), _word(ps, (b, 1), (a, 1)),
                          _family(name))


def test_the_torus_chain_relation():
    # Primer Prop. 4.12: (T_x T_y)^6 = 1, and its cube is the elliptic
    # involution, which reverses every oriented curve
    ps = build_preset("torus")
    curves = _family("torus")
    assert acts_alike(_word(ps, *(("x", 1), ("y", 1)) * 6), IDENTITY, curves)
    cube = _word(ps, *(("x", 1), ("y", 1)) * 3)
    for c in curves:
        assert curves_isotopic(apply_word(cube, c), c.reverse())
    assert not acts_alike(cube, IDENTITY, curves)


def test_the_one_holed_torus_chain_relation():
    # (T_a T_b)^6 is the boundary twist, which no curve taken up to
    # isotopy sees
    ps = build_preset("one_holed_torus")
    word = _word(ps, *(("a1", 1), ("dual1", 1)) * 6)
    assert acts_alike(word, IDENTITY, _family("one_holed_torus"))


GENUS2_LETTERS = ("a1", "a2", "a3", "t1", "t2")


def _relators(ps):
    braid = _word(ps, ("a1", 1), ("t1", 1), ("a1", 1),
                  ("t1", -1), ("a1", -1), ("t1", -1))
    commutator = _word(ps, ("a1", 1), ("a2", 1), ("a1", -1), ("a2", -1))
    return braid, commutator


@given(letters=st.lists(st.tuples(st.sampled_from(GENUS2_LETTERS),
                                  st.sampled_from((1, -1))),
                        min_size=1, max_size=4),
       which=st.sampled_from((0, 1)))
@settings(max_examples=30, deadline=None)
def test_conjugated_relators_act_trivially(letters, which):
    ps = build_preset("genus2_closed")
    w = _word(ps, *letters)
    conjugate = w + _relators(ps)[which] + w.inverse()
    assert acts_alike(conjugate, IDENTITY, _family("genus2_closed"))
