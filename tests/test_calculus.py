"""Intersection calculus on the presets.

Slope pairs on the square torus double as an independent oracle: two lines of
slopes (p,q), (r,s) cross |ps - qr| times, all with the same sign.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dehnkit.calculus import (
    PairClass,
    algebraic_intersection,
    classify_pair,
    is_essential,
)
from dehnkit.errors import PreconditionError
from dehnkit.overlay import (
    curves_isotopic,
    geometric_intersection_number,
    minimal_position,
)
from dehnkit.presets import build_preset, torus_curve
from dehnkit.surface import EmbeddedCurve

F = Fraction

slope_ints = st.integers(min_value=-6, max_value=6)


def primitive(p, q):
    return math.gcd(abs(p), abs(q)) == 1


@st.composite
def slopes(draw):
    p = draw(slope_ints)
    q = draw(slope_ints)
    if not primitive(p, q):
        p, q = 1, 0
    return p, q


class TestMinimalPosition:
    def test_returns_pair_and_is_idempotent(self):
        t = build_preset("torus").surface
        a, b = torus_curve(t, 1, 0), torus_curve(t, 0, 1)
        a2, b2 = minimal_position(a, b).curves
        a3, b3 = minimal_position(a2, b2).curves
        assert (a3.canonical_key, b3.canonical_key) == (
            a2.canonical_key,
            b2.canonical_key,
        )

    def test_self_pushed_off(self):
        g2 = build_preset("genus2_closed")
        a = g2.curves["a1"]
        assert geometric_intersection_number(a, a) == 0

    def test_rejects_trivial_circle(self):
        t = build_preset("torus").surface
        circle = EmbeddedCurve(t, (("v", 1, F(1, 3)), ("v", -1, F(2, 3))))
        with pytest.raises(PreconditionError):
            classify_pair(circle, torus_curve(t, 1, 0))

    def test_essential_predicate(self):
        oh = build_preset("one_holed_torus")
        assert is_essential(oh.curves["a1"])
        assert not is_essential(oh.curves["bp1"])


class TestCounts:
    @given(slopes(), slopes())
    def test_torus_oracle_and_symmetry(self, ab, cd):
        p, q = ab
        r, s = cd
        t = build_preset("torus").surface
        a, b = torus_curve(t, p, q), torus_curve(t, r, s)
        k = geometric_intersection_number(a, b)
        assert k == abs(p * s - q * r)
        assert geometric_intersection_number(b, a) == k

    @given(slopes(), slopes())
    def test_algebraic_vs_geometric(self, ab, cd):
        t = build_preset("torus").surface
        a = torus_curve(t, *ab)
        b = torus_curve(t, *cd)
        alg = algebraic_intersection(a, b)
        geo = geometric_intersection_number(a, b)
        assert abs(alg) <= geo
        assert (alg - geo) % 2 == 0
        assert algebraic_intersection(b, a) == -alg

    def test_pinned_signs(self):
        t = build_preset("torus").surface
        a, b = torus_curve(t, 1, 0), torus_curve(t, 0, 1)
        assert algebraic_intersection(a, b) == 1
        assert algebraic_intersection(b, a) == -1

    def test_separating_curve_pairs_to_zero(self):
        g2 = build_preset("genus2_closed")
        w = g2.curves["waist"].with_orientation(True)
        t1 = g2.curves["t1"].with_orientation(True)
        assert geometric_intersection_number(t1, w) == 2
        assert algebraic_intersection(t1, w) == 0

    def test_unoriented_rejected(self):
        g2 = build_preset("genus2_closed")
        with pytest.raises(PreconditionError):
            algebraic_intersection(g2.curves["a1"], g2.curves["t1"])


def _pattern(a, b):
    """The crossings of a minimal-position pair along a and along b.

    Crossings are numbered in order along a, so the first list is always
    ((0, s0), (1, s1), ...) and the second carries the same numbers in b's
    order, each with its sign.
    """
    system = minimal_position(a, b)
    order_a = system.crossing_order_along(0)
    ids = {x: i for i, x in enumerate(order_a)}
    along_a = tuple((i, x.sign) for i, x in enumerate(order_a))
    along_b = tuple((ids[x], x.sign) for x in system.crossing_order_along(1))
    return along_a, along_b


class TestPattern:
    def test_empty_for_disjoint(self):
        g2 = build_preset("genus2_closed")
        assert _pattern(g2.curves["a1"], g2.curves["a2"]) == ((), ())

    def test_single_point(self):
        t = build_preset("torus").surface
        along_a, along_b = _pattern(torus_curve(t, 1, 0), torus_curve(t, 0, 1))
        assert along_a == ((0, 1),)
        assert along_b == ((0, 1),)

    def test_orders_can_differ(self):
        # slope 2/3 meets the horizontal loop in an arithmetic progression of
        # step 2 mod 3, so the b-order is a genuine reshuffle of the a-order
        t = build_preset("torus").surface
        along_a, along_b = _pattern(torus_curve(t, 1, 0), torus_curve(t, 2, 3))
        assert along_a == ((0, 1), (1, 1), (2, 1))
        assert along_b == ((0, 1), (2, 1), (1, 1))

    def test_two_zero_pattern_alternates(self):
        g2 = build_preset("genus2_closed")
        along_a, _ = _pattern(g2.curves["dual1"], g2.curves["a1"])
        assert along_a == ((0, 1), (1, -1))

    def test_point_multisets_agree(self):
        t = build_preset("torus").surface
        a, b = torus_curve(t, 1, 0), torus_curve(t, 3, 5)
        along_a, along_b = _pattern(a, b)
        assert sorted(along_a) == sorted(along_b)
        assert sum(s for _, s in along_a) == algebraic_intersection(a, b)


class TestClassify:
    def test_all_four_tags(self):
        t = build_preset("torus").surface
        g2 = build_preset("genus2_closed")
        assert classify_pair(g2.curves["a1"], g2.curves["a2"]) == PairClass(
            "disjoint", 0
        )
        assert classify_pair(
            torus_curve(t, 1, 0), torus_curve(t, 0, 1)
        ) == PairClass("one_point", 1)
        assert classify_pair(g2.curves["dual1"], g2.curves["a1"]) == PairClass(
            "two_zero", 2
        )
        assert classify_pair(
            torus_curve(t, 1, 1), torus_curve(t, 1, -1)
        ) == PairClass("other", 2)

    def test_other_for_higher_counts(self):
        t = build_preset("torus").surface
        pc = classify_pair(torus_curve(t, 1, 0), torus_curve(t, 1, 3))
        assert pc == PairClass("other", 3)

    def test_isotopy_consistency(self):
        g2 = build_preset("genus2_closed")
        a = g2.curves["a1"]
        assert classify_pair(a, a).tag == "disjoint"
        assert curves_isotopic(a, a)
