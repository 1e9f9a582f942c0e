"""Arrangement, region and bigon-removal tests on the square torus.

Every expected value below (crossing counts, signs, region shapes, rerouted
event lists) was derived by drawing the curves in the flat square picture.
"""

from fractions import Fraction

import pytest

from dehnkit.errors import PreconditionError
from dehnkit.overlay import (
    JointSystem,
    curves_isotopic,
    geometric_intersection_number,
    is_boundary_parallel,
    is_null_homotopic,
    is_separating,
    minimal_position,
)
from dehnkit.surface import CellSurface, EmbeddedCurve

F = Fraction

SQUARE_TORUS = ((("h", 1), ("v", 1), ("h", -1), ("v", -1)),)
# the mirror image: the face reversed, every slot sign negated
MIRRORED_TORUS = ((("v", 1), ("h", 1), ("v", -1), ("h", -1)),)


def torus():
    return CellSurface(SQUARE_TORUS)


def line(s, p, q):
    """Hand-rolled (p,q) torus curves for the few slopes used here."""
    table = {
        (1, 0): (("v", 1, F(1, 2)),),
        (0, 1): (("h", -1, F(1, 2)),),
        (1, 1): (("v", 1, F(1, 2)), ("h", 1, F(1, 2))),
        (1, -1): (("v", 1, F(1, 2)), ("h", -1, F(1, 2))),
    }
    return EmbeddedCurve(s, table[(p, q)])


def trivial_circle(s):
    return EmbeddedCurve(s, (("v", 1, F(1, 3)), ("v", -1, F(2, 3))))


class TestArrangement:
    def test_transverse_pair_crossing_and_sign(self):
        s = torus()
        sysm = JointSystem(s, (line(s, 1, 0), line(s, 0, 1)))
        assert len(sysm.crossings) == 1
        assert [c.sign for c in sysm.crossings] == [1]

    def test_chirality_flips_crossing_sign(self):
        s = CellSurface(MIRRORED_TORUS)
        sysm = JointSystem(s, (line(s, 1, 0), line(s, 0, 1)))
        assert [c.sign for c in sysm.crossings] == [-1]

    def test_diagonal_pair(self):
        s = torus()
        sysm = JointSystem(s, (line(s, 1, 1), line(s, 1, -1)))
        assert len(sysm.crossings) == 2
        # algebraically -2 against the standard pairing, and both crossings
        # carry one sign since the pair is in minimal position
        assert sorted(c.sign for c in sysm.crossings) == [1, 1]

    def test_complement_of_one_curve_is_annulus(self):
        s = torus()
        sysm = JointSystem(s, (line(s, 1, 0),))
        assert len(sysm.regions) == 1
        reg = sysm.regions[0]
        assert reg.chi == 0
        assert len(reg.circuits) == 2

    def test_complement_of_filling_pair_is_disc(self):
        s = torus()
        sysm = JointSystem(s, (line(s, 1, 0), line(s, 0, 1)))
        assert len(sysm.regions) == 1
        assert sysm.regions[0].chi == 1
        assert len(sysm.regions[0].circuits) == 1

    def test_a_region_that_is_no_bigon_has_no_bigon_stack(self):
        # the one region of the filling pair is a disc whose circuit runs
        # along curves 0 and 1 twice each: a rectangle, not a bigon
        s = torus()
        sysm = JointSystem(s, (line(s, 1, 0), line(s, 0, 1)))
        (reg,) = sysm.regions
        runs = sysm.circuit_curve_runs(reg.circuits[0])
        assert sorted(c for c, _ in runs) == [0, 0, 1, 1]
        assert sysm.find_bigons() == []
        with pytest.raises(PreconditionError, match="not a bigon of curves 0 and 1"):
            sysm.bigon_stack(reg)


class TestPredicates:
    def test_trivial_circle(self):
        s = torus()
        c = trivial_circle(s)
        assert is_null_homotopic(c)
        assert is_separating(c)

    def test_essential_curve(self):
        s = torus()
        a = line(s, 1, 0)
        assert not is_null_homotopic(a)
        assert not is_separating(a)

    def test_boundary_parallel_on_cylinder(self):
        cyl = CellSurface(((("m", 1), ("t", 1), ("m", -1), ("b", 1)),))
        assert (cyl.genus, cyl.num_boundary) == (0, 2)
        core = EmbeddedCurve(cyl, (("m", 1, F(1, 2)),))
        assert is_boundary_parallel(core)
        assert not is_null_homotopic(core)

    def test_isotopy_same_slope(self):
        s = torus()
        a = line(s, 1, 0)
        assert curves_isotopic(a, EmbeddedCurve(s, (("v", 1, F(1, 7)),)))
        assert not curves_isotopic(a, line(s, 0, 1))

    def test_isotopy_sees_orientation(self):
        s = torus()
        a = line(s, 1, 0)
        assert not curves_isotopic(a, a.reverse())
        assert curves_isotopic(
            a.with_orientation(False), a.reverse().with_orientation(False)
        )

    def test_isotopy_across_detour(self):
        s = torus()
        a = line(s, 1, 0)
        detour = EmbeddedCurve(
            s, (("v", 1, F(1, 2)), ("h", -1, F(1, 3)), ("h", 1, F(2, 3)))
        )
        assert curves_isotopic(a, detour)
        assert not curves_isotopic(a.reverse(), detour)


class TestMinimalPosition:
    def test_already_minimal(self):
        s = torus()
        a, b = line(s, 1, 0), line(s, 0, 1)
        sysm = minimal_position(a, b)
        a2, b2 = sysm.curves
        assert (a2, b2) == (a, b)
        assert len(sysm.crossings) == 1

    def test_trivial_circle_pulls_off(self):
        s = torus()
        a, c = line(s, 1, 0), trivial_circle(s)
        # the reroute across the bigon, on the pair as placed
        sysm = JointSystem(s, (a, c))
        assert len(sysm.crossings) == 2
        (a2, c2), cleared = sysm.reroute_through_bigons(sysm.find_bigons())
        assert cleared == 1
        assert c2.events == (("v", 1, F(1, 4)), ("v", -1, F(1, 2)))
        assert is_null_homotopic(c2)
        assert len(JointSystem(s, (a2, c2)).crossings) == 0
        # minimal position slides both points of c below a's first, which
        # leaves no crossing and no bigon to reroute
        sysm = minimal_position(a, c)
        assert len(sysm.crossings) == 0
        assert curves_isotopic(sysm.curves[1], c)
        assert is_null_homotopic(sysm.curves[1])

    def test_finger_pulls_back(self):
        s = torus()
        a = line(s, 1, 0)
        # (1,0) copy with a finger poked across the v wall around a's point
        b = EmbeddedCurve(s, (("v", 1, F(1, 4)), ("v", 1, F(3, 5)), ("v", -1, F(2, 5))))
        assert len(JointSystem(s, (a, b)).crossings) == 2
        sysm = minimal_position(a, b)
        a2, b2 = sysm.curves
        assert len(sysm.crossings) == 0
        assert curves_isotopic(b2, a)
        assert not curves_isotopic(b2, a.reverse())

    def test_run_swallowing_whole_curve(self):
        s = torus()
        # same finger pair with roles swapped: the moved curve is the
        # one-event line, whose single event sits inside the bigon run
        b = EmbeddedCurve(
            s, (("v", 1, F(1, 5)), ("v", 1, F(8, 15)), ("v", -1, F(2, 5)))
        )
        a = line(s, 1, 0)
        # the reroute across the bigon, on the pair as placed
        sysm = JointSystem(s, (b, a))
        (b2, a2), cleared = sysm.reroute_through_bigons(sysm.find_bigons())
        assert cleared == 1
        assert a2.events == (("v", 1, F(4, 5)),)
        assert curves_isotopic(a2, a)
        assert len(JointSystem(s, (b2, a2)).crossings) == 0
        # minimal position slides the line first; the finger turns back
        # through the slot it entered by, where counting slots cannot tell
        # its side, so the bigon stays and is rerouted after the slide
        sysm = minimal_position(b, a)
        assert len(sysm.crossings) == 0
        assert curves_isotopic(sysm.curves[1], a)

    def test_intersection_numbers(self):
        s = torus()
        assert geometric_intersection_number(line(s, 1, 0), line(s, 0, 1)) == 1
        assert geometric_intersection_number(line(s, 1, 1), line(s, 1, -1)) == 2
        assert geometric_intersection_number(line(s, 1, 0), trivial_circle(s)) == 0
        assert geometric_intersection_number(line(s, 1, 0), line(s, 1, 0)) == 0

