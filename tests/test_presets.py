"""Preset surfaces: build invariants, homology coordinates, slope oracle.

Expected homology vectors and event tuples were derived by hand in the
polygon pictures and cross-checked with the flow pairings.
"""

import math
from fractions import Fraction

import pytest

from dehnkit.errors import ComputationError, PreconditionError
from dehnkit.overlay import (
    JointSystem,
    curves_isotopic,
    geometric_intersection_number,
    is_boundary_parallel,
    is_separating,
    minimal_position,
)
from dehnkit.presets import (
    PRESET_NAMES,
    boundary_parallel_curve,
    build_preset,
    homology_class,
    subgraph_link,
    torus_curve,
)
from dehnkit.surface import CellSurface, EmbeddedCurve
from parabola import ParabolaSystem

F = Fraction

gin = geometric_intersection_number


def _fills(surface, curves):
    """The complement of the non-peripheral curves is discs and collars of
    the boundary, in the reference arrangement (see parabola.py)."""
    kept = [c for c in curves if not is_boundary_parallel(c)]
    system = ParabolaSystem(surface, kept)
    boundary = surface.boundary_edges
    return all(
        region.is_disc
        or region.is_annulus and any(
            system.dart_label(d)[0] == "B" and system.dart_label(d)[1] in boundary
            for circuit in region.circuits for d in circuit)
        for region in system.regions
    )


def _incidence(pants):
    """For each pants curve, the complement pieces of the interior curves
    whose boundary runs along it (a boundary curve by its circuit's edges)."""
    surface, n_in = pants.surface, pants.interior_count
    system = JointSystem(surface, pants.interior_curves)
    circuit_of = {e: k for k, circ in enumerate(surface.boundary_circuits)
                  for e, _s in circ}
    touched = [set() for _ in pants.pants_curves]
    for ri, region in enumerate(system.regions):
        for circuit in region.circuits:
            for d in circuit:
                label = system.dart_label(d)
                if label[0] == "C":
                    touched[label[1]].add(ri)
                elif label[1] in circuit_of:
                    touched[n_in + circuit_of[label[1]]].add(ri)
    return tuple(map(frozenset, touched))


def coprime_pairs(bound):
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if math.gcd(abs(p), abs(q)) == 1:
                yield p, q


class TestBuild:
    def test_all_presets_build(self):
        shapes = {
            "torus": (1, 0, 0),
            "one_holed_torus": (1, 1, 1),
            "four_holed_sphere": (0, 4, 1),
            "genus2_closed": (2, 0, 3),
        }
        for name in PRESET_NAMES:
            ps = build_preset(name)
            s = ps.surface
            assert (s.genus, s.num_boundary, s.norm) == shapes[name]

    def test_unknown_name(self):
        with pytest.raises(PreconditionError):
            build_preset("genus3_closed")

    def test_build_is_cached(self):
        assert build_preset("torus") is build_preset("torus")

    def test_pants_curve_counts(self):
        for name in PRESET_NAMES:
            ps = build_preset(name)
            if ps.pants is None:
                assert name == "torus"
                continue
            s = ps.surface
            assert ps.pants.interior_count == s.norm
            assert len(ps.pants.pants_curves) == s.norm + s.num_boundary
            assert len(ps.pants.dual_curves) == s.norm

    def test_boundary_entries_come_last_and_are_parallel(self):
        for name in ("one_holed_torus", "four_holed_sphere"):
            pants = build_preset(name).pants
            for c in pants.boundary_curves:
                assert is_boundary_parallel(c)
            for c in pants.interior_curves:
                assert not is_boundary_parallel(c)


class TestPantsInvariants:
    @pytest.mark.parametrize(
        "name", ["one_holed_torus", "four_holed_sphere", "genus2_closed"]
    )
    def test_pants_curves_pairwise_disjoint(self, name):
        curves = build_preset(name).pants.pants_curves
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                assert gin(curves[i], curves[j]) == 0

    @pytest.mark.parametrize(
        "name", ["one_holed_torus", "four_holed_sphere", "genus2_closed"]
    )
    def test_dual_crossing_pattern(self, name):
        pants = build_preset(name).pants
        for i, d in enumerate(pants.dual_curves):
            for j, a in enumerate(pants.pants_curves):
                k = gin(d, a)
                if j == i:
                    assert k in (1, 2)
                    if k == 2:
                        system = minimal_position(d, a)
                        signs = sorted(c.sign for c in system.crossings)
                        assert signs == [-1, 1]
                else:
                    assert k == 0

    @pytest.mark.parametrize(
        "name", ["one_holed_torus", "four_holed_sphere", "genus2_closed"]
    )
    def test_complement_pieces_are_pants(self, name):
        ps = build_preset(name)
        system = JointSystem(ps.surface, ps.pants.interior_curves)
        for region in system.regions:
            assert region.chi == -1
            assert len(region.circuits) == 3

    def test_genus2_interior_curves_nonseparating_duals_separating(self):
        g2 = build_preset("genus2_closed")
        for nm in ("a1", "a2", "a3"):
            assert not is_separating(g2.curves[nm])
        for nm in ("dual1", "dual2", "dual3"):
            assert is_separating(g2.curves[nm])

    def test_genus2_incidence_both_pieces_touch_every_curve(self):
        pants = build_preset("genus2_closed").pants
        assert _incidence(pants) == (frozenset({0, 1}),) * 3

    def test_four_holed_incidence_splits_boundaries(self):
        incidence = _incidence(build_preset("four_holed_sphere").pants)
        # a1 touches both pieces; d1, d2 live on one side, d3, d4 on the other
        assert incidence[0] == frozenset({0, 1})
        assert incidence[1] == incidence[2]
        assert incidence[3] == incidence[4]
        assert incidence[1] != incidence[3]

    def test_partner_crosses_once(self):
        for name in ("one_holed_torus", "genus2_closed"):
            pants = build_preset(name).pants
            for i, partner in pants.partners.items():
                assert gin(partner, pants.pants_curves[i]) == 1

    def test_genus2_full_system_fills(self):
        # factorize certifies on a filling family; three of these curves
        # cross pairwise in one face, which only the reference places
        g2 = build_preset("genus2_closed")
        pants = g2.pants
        assert _fills(g2.surface, pants.pants_curves + pants.dual_curves)

    def test_one_holed_torus_system_fills(self):
        oh = build_preset("one_holed_torus")
        assert _fills(oh.surface, [oh.curves[n] for n in ("a1", "dual1", "bp1")])
        assert not _fills(oh.surface, [oh.curves["a1"], oh.curves["bp1"]])

    def test_genus2_pinned_events(self):
        g2 = build_preset("genus2_closed")
        assert g2.curves["a1"].events == (
            ("c2", -1, F(1, 4)),
            ("c1", -1, F(1, 4)),
        )
        assert g2.curves["a2"].events == (("c1", 1, F(3, 4)),)
        assert g2.curves["a3"].events == (("c2", 1, F(3, 4)),)
        assert g2.curves["waist"].events == (
            ("c2", -1, F(1, 4)),
            ("b1", 1, F(3, 4)),
            ("c2p", -1, F(1, 4)),
            ("b1", -1, F(1, 4)),
        )


class TestLinkConstructors:
    def test_loop_link_components_are_isotopic(self):
        g2 = build_preset("genus2_closed")
        one, other = subgraph_link(g2.surface, {"b0"})
        assert curves_isotopic(one, other)

    def test_link_rejects_boundary_vertex_subgraph(self):
        oh = build_preset("one_holed_torus")
        with pytest.raises(PreconditionError):
            subgraph_link(oh.surface, {"h"})

    def test_link_rejects_boundary_edge(self):
        oh = build_preset("one_holed_torus")
        with pytest.raises(PreconditionError):
            subgraph_link(oh.surface, {"bdy"})

    def test_boundary_parallel_walk_pinned_events(self):
        oh = build_preset("one_holed_torus")
        assert oh.curves["bp1"].events == (
            ("v", -1, F(1, 8)),
            ("h", 1, F(7, 8)),
            ("v", 1, F(7, 8)),
            ("h", -1, F(1, 8)),
        )

    def test_boundary_parallel_disjoint_from_system(self):
        oh = build_preset("one_holed_torus")
        bp = oh.curves["bp1"]
        assert gin(bp, oh.curves["a1"]) == 0
        assert gin(bp, oh.curves["dual1"]) == 0

    def test_bad_circuit_index(self):
        oh = build_preset("one_holed_torus")
        with pytest.raises(PreconditionError):
            boundary_parallel_curve(oh.surface, 1)


class TestHomology:
    def test_genus2_coordinates(self):
        g2 = build_preset("genus2_closed")
        expected = {
            "a2": (1, 0, 0, 0),
            "t1": (0, 1, 0, 0),
            "a3": (0, 0, 1, 0),
            "t2": (0, 0, 0, 1),
            "a1": (-1, 0, -1, 0),
            "dual1": (0, 0, 0, 0),
            "waist": (0, 0, 0, 0),
            "dual3": (0, 0, 0, 0),
        }
        for nm, want in expected.items():
            c = g2.curves[nm].with_orientation(True)
            assert homology_class(g2.surface, c) == want, nm

    def test_four_holed_coordinates(self):
        fh = build_preset("four_holed_sphere")
        expected = {
            "bp1": (1, 0, 0),
            "bp2": (-1, 1, 0),
            "bp3": (0, -1, 1),
            "bp4": (0, 0, -1),
            "a1": (0, -1, 0),
            "dual1": (-1, 1, -1),
        }
        for nm, want in expected.items():
            c = fh.curves[nm].with_orientation(True)
            assert homology_class(fh.surface, c) == want, nm

    def test_vector_length_matches_rank(self):
        for name in PRESET_NAMES:
            ps = build_preset(name)
            s = ps.surface
            rank = 2 * s.genus + max(s.num_boundary - 1, 0)
            assert len(ps.flows) == rank

    def test_reversal_negates(self):
        g2 = build_preset("genus2_closed")
        c = g2.curves["a1"].with_orientation(True)
        h = homology_class(g2.surface, c)
        assert homology_class(g2.surface, c.reverse()) == tuple(-x for x in h)

    def test_unoriented_curve_rejected(self):
        g2 = build_preset("genus2_closed")
        with pytest.raises(PreconditionError):
            homology_class(g2.surface, g2.curves["a1"])

    def test_a_surface_that_no_preset_carries_has_no_basis(self):
        # the mirror of the torus: the same edges, the other orientation
        t = build_preset("torus").surface
        mirror = CellSurface(tuple(tuple((e, -sign) for e, sign in reversed(face))
                                   for face in t.faces))
        c = EmbeddedCurve(mirror, (("v", 1, Fraction(1, 2)),))
        with pytest.raises(PreconditionError, match="no preset carries"):
            homology_class(mirror, c)

    def test_separating_iff_zero_on_closed(self):
        g2 = build_preset("genus2_closed")
        for nm in ("a1", "a2", "a3", "t1", "t2", "dual1", "dual2", "dual3"):
            c = g2.curves[nm].with_orientation(True)
            zero = homology_class(g2.surface, c) == (0, 0, 0, 0)
            assert zero == is_separating(c), nm


class TestTorusOracle:
    def test_intersection_matches_determinant(self):
        t = build_preset("torus").surface
        slopes = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, 2), (3, -2), (5, 3)]
        for p, q in slopes:
            for r, s in slopes:
                a = torus_curve(t, p, q)
                b = torus_curve(t, r, s)
                assert gin(a, b) == abs(p * s - q * r), (p, q, r, s)

    def test_homology_reads_back_the_slope(self):
        t = build_preset("torus").surface
        for p, q in coprime_pairs(4):
            assert homology_class(t, torus_curve(t, p, q)) == (p, q)

    def test_both_odd_slopes_miss_the_vertex(self):
        # the symmetric base point would run (1,1) straight through the corner
        t = build_preset("torus").surface
        c = torus_curve(t, 1, 1)
        assert len(c.events) == 2
        assert gin(c, torus_curve(t, 1, -1)) == 2

    def test_non_primitive_rejected(self):
        t = build_preset("torus").surface
        for p, q in [(2, 2), (0, 0), (4, -2), (3, 0)]:
            with pytest.raises(PreconditionError):
                torus_curve(t, p, q)

    @pytest.mark.parametrize("p, q", [(1.0, 0), (1, 0.0), ("1", 0), (True, False), (1, True)])
    def test_a_slope_that_is_no_pair_of_ints_is_refused(self, p, q):
        # a float or a string raised a bare TypeError, and True, False
        # gave the slope (1, 0)
        t = build_preset("torus").surface
        with pytest.raises(PreconditionError, match="is not a pair of ints"):
            torus_curve(t, p, q)

    def test_named_generators_match_constructor(self):
        ps = build_preset("torus")
        assert curves_isotopic(ps.curves["x"], torus_curve(ps.surface, 1, 0))
        assert curves_isotopic(ps.curves["y"], torus_curve(ps.surface, 0, 1))

    def test_works_on_one_holed_square_model(self):
        oh = build_preset("one_holed_torus")
        c = torus_curve(oh.surface, 1, 1)
        assert gin(c, oh.curves["a1"]) == 1
        assert gin(c, oh.curves["dual1"]) == 1


class TestCutting:
    """The pieces left by cutting along a curve, read off the regions of the
    curve's arrangement: a region of Euler characteristic chi with b
    boundary circuits is a piece of genus (2 - chi - b) / 2."""

    def test_cut_genus2_along_nonseparating(self):
        g2 = build_preset("genus2_closed")
        regions = JointSystem(g2.surface, (g2.curves["a1"],)).regions
        assert [(r.chi, len(r.circuits)) for r in regions] == [(-2, 2)]

    def test_cut_genus2_along_waist(self):
        g2 = build_preset("genus2_closed")
        regions = JointSystem(g2.surface, (g2.curves["waist"],)).regions
        assert [(r.chi, len(r.circuits)) for r in regions] == [(-1, 1), (-1, 1)]

    @pytest.mark.parametrize("name", ("dual2", "dual3"))
    def test_a_curve_sharing_an_edge_position_with_a1_misses_it(self, name):
        # the curve crosses an edge at the same position as a1; the joint
        # frame breaks the tie by curve index, so the two are disjoint
        g2 = build_preset("genus2_closed")
        a1, k = g2.curves["a1"], g2.curves[name]
        assert len(JointSystem(a1.surface, (a1, k)).crossings) == 0
