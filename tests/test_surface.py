"""Cell-surface and embedded-curve model tests.

Fixtures are small cell structures whose vertex counts, rotations, Euler
characteristics and boundary circuits were worked out by hand.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit.calculus import is_essential
from dehnkit.errors import PreconditionError, ValidationError
from dehnkit.presets import PRESET_NAMES, build_preset, torus_curve
from dehnkit.surface import TOPOLOGY_KEY, CellSurface, EmbeddedCurve, Flow
from dehnkit.twisting import apply_twist

F = Fraction

SQUARE_TORUS = ((("h", 1), ("v", 1), ("h", -1), ("v", -1)),)
PENTAGON_TORUS = ((("h", 1), ("v", 1), ("h", -1), ("v", -1), ("bdy", 1)),)
FOUR_HOLED = (
    (("p", 1), ("d1", 1), ("p", -1), ("q", 1), ("d2", 1), ("q", -1), ("w", 1)),
    (("p2", 1), ("d3", 1), ("p2", -1), ("q2", 1), ("d4", 1), ("q2", -1), ("w", -1)),
)
GENUS2 = (
    (("b0", 1), ("c1", 1), ("b1", 1), ("c1", -1), ("c2", 1), ("b2", 1), ("c2", -1)),
    (("b0", -1), ("c1p", 1), ("b1", -1), ("c1p", -1), ("c2p", 1), ("b2", -1), ("c2p", -1)),
)


# the square torus with its edge h named "1": an int 1 was coerced to it
ONE_TORUS = ((("1", 1), ("v", 1), ("1", -1), ("v", -1)),)


def torus():
    return CellSurface(SQUARE_TORUS)


class TestCellSurface:
    def test_square_torus_invariants(self):
        s = torus()
        assert s.euler_characteristic == 0
        assert s.genus == 1
        assert s.num_boundary == 0
        assert s.is_closed
        assert s.norm == 0
        assert len(s.rotations) == 1
        assert s.interior_edges == {"h", "v"}
        # single interior vertex, rotation is a 4-cycle
        rot = s.rotations[0]
        assert len(rot) == 4
        assert s.ccw_next[("v", 0)] == ("h", 1)
        assert s.ccw_next[("h", 1)] == ("v", 1)
        assert s.ccw_next[("v", 1)] == ("h", 0)
        assert s.ccw_next[("h", 0)] == ("v", 0)

    def test_monogon_disc(self):
        s = CellSurface(((("e", 1),),))
        assert s.euler_characteristic == 1
        assert (s.genus, s.num_boundary) == (0, 1)
        assert s.boundary_circuits == ((("e", 1),),)
        assert not s.is_closed

    def test_sphere_two_monogons(self):
        s = CellSurface(((("e", 1),), (("e", -1),)))
        assert s.euler_characteristic == 2
        assert (s.genus, s.num_boundary) == (0, 0)

    def test_sphere_one_folded_face(self):
        s = CellSurface(((("a", 1), ("a", -1)),))
        assert s.euler_characteristic == 2
        assert len(s.rotations) == 2

    def test_one_holed_torus(self):
        s = CellSurface(PENTAGON_TORUS)
        assert s.euler_characteristic == -1
        assert (s.genus, s.num_boundary) == (1, 1)
        assert s.norm == 1
        assert len(s.rotations) == 1
        # boundary vertex: source-to-sink path through all six ends
        rot = s.rotations[0]
        assert rot == (("bdy", 0), ("v", 0), ("h", 1), ("v", 1), ("h", 0), ("bdy", 1))
        assert not s.vertex_is_interior(0)
        assert s.boundary_circuits == ((("bdy", 1),),)

    def test_four_holed_sphere(self):
        s = CellSurface(FOUR_HOLED)
        assert s.euler_characteristic == -2
        assert (s.genus, s.num_boundary) == (0, 4)
        assert s.norm == 1
        assert len(s.rotations) == 5
        assert len(s.boundary_circuits) == 4
        mid = s.vertex_at(("w", 0))
        assert s.vertex_is_interior(mid)
        assert len(s.rotations[mid]) == 6
        assert s.ccw_next[("w", 0)] == ("q", 0)
        assert s.ccw_next[("p", 0)] == ("w", 1)
        assert s.ccw_next[("w", 1)] == ("q2", 0)

    def test_genus2(self):
        s = CellSurface(GENUS2)
        assert s.euler_characteristic == -2
        assert (s.genus, s.num_boundary) == (2, 0)
        assert s.norm == 3
        assert len(s.rotations) == 3
        v = s.vertex_at(("b0", 0))
        assert len(s.rotations[v]) == 6
        assert s.ccw_next[("b0", 0)] == ("c2", 0)
        assert s.ccw_next[("c1", 0)] == ("b0", 1)
        assert s.ccw_next[("b0", 1)] == ("c2p", 0)
        w1 = s.vertex_at(("b1", 0))
        assert s.rotations[w1] in (
            (("b1", 0), ("c1", 1), ("b1", 1), ("c1p", 1)),
            (("b1", 1), ("c1p", 1), ("b1", 0), ("c1", 1)),
            (("c1", 1), ("b1", 1), ("c1p", 1), ("b1", 0)),
            (("c1p", 1), ("b1", 0), ("c1", 1), ("b1", 1)),
        )

    def test_rejects_duplicate_slot(self):
        with pytest.raises(ValidationError, match="twice"):
            CellSurface(((("e", 1), ("e", 1)),))

    def test_rejects_disconnected(self):
        with pytest.raises(ValidationError, match="disconnected"):
            CellSurface(((("a", 1), ("a", -1)), (("b", 1), ("b", -1))))

    def test_rejects_empty_face(self):
        with pytest.raises(ValidationError):
            CellSurface(((),))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            CellSurface(((("e", 2),),))

    @pytest.mark.parametrize("slot, sign", ((0, 1.5), (0, True), (2, -1.5), (2, -1.0)))
    def test_rejects_a_sign_that_is_no_integer(self, slot, sign):
        # nothing is coerced: a float or a bool would otherwise truncate to
        # the torus's own sign and give a surface equal to it
        face = list(SQUARE_TORUS[0])
        face[slot] = (face[slot][0], sign)
        with pytest.raises(ValidationError, match="bad sign"):
            CellSurface((tuple(face),))

    def test_rejects_an_edge_name_that_is_no_string(self):
        # the name 1 was coerced to the edge "1"
        with pytest.raises(ValidationError, match="faces field: 1 is not str"):
            CellSurface((((1, 1), ("v", 1), (1, -1), ("v", -1)),))

    def test_rejects_bad_chirality(self):
        # the face order is the orientation: a payload asking for the other
        # one is refused, while one that carries the default still loads
        data = torus().to_json()
        assert "chirality" not in data
        assert CellSurface.from_json({**data, "chirality": 1}) == torus()
        for value in (-1, 0):
            with pytest.raises(ValidationError, match="mirrored faces"):
                CellSurface.from_json({**data, "chirality": value})

    def test_json_round_trip(self):
        s = CellSurface(GENUS2)
        again = CellSurface.from_json(s.to_json())
        assert again.faces == s.faces
        assert again.genus == 2

    def test_json_rejects_wrong_genus(self):
        data = torus().to_json()
        data["genus"] = 5
        with pytest.raises(ValidationError, match="genus"):
            CellSurface.from_json(data)

    @pytest.mark.parametrize("key", ("genus", "boundary"))
    @pytest.mark.parametrize("value", ("one", None, [1], 1.7, 0.0, "1", True, False))
    def test_json_rejects_malformed_counts(self, key, value):
        # a count that is no integer is malformed input, not a bare
        # ValueError or TypeError; nor is it truncated or coerced, so a
        # float, a numeric string or a bool never loads the torus
        data = {**torus().to_json(), key: value}
        with pytest.raises(ValidationError, match=key):
            CellSurface.from_json(data)

    @pytest.mark.parametrize("name", (1, None, ["h"]))
    def test_json_rejects_an_edge_name_that_is_no_string(self, name):
        # the name 1 loaded as the edge "1"
        data = torus().to_json()
        for face in data["faces"]:
            for slot in face:
                if slot[0] == "h":
                    slot[0] = name
        with pytest.raises(ValidationError, match="faces"):
            CellSurface.from_json(data)

    @pytest.mark.parametrize("sign", (1.0, True, "1"))
    def test_json_rejects_a_face_sign_that_is_no_integer(self, sign):
        data = torus().to_json()
        data["faces"][0][0][1] = sign
        with pytest.raises(ValidationError, match="faces"):
            CellSurface.from_json(data)


class TestEmbeddedCurve:
    def test_single_crossing_on_torus(self):
        c = EmbeddedCurve(torus(), (("v", 1, F(1, 2)),))
        assert len(c) == 1

    def test_rejects_boundary_edge(self):
        s = CellSurface(PENTAGON_TORUS)
        with pytest.raises(ValidationError, match="non-interior"):
            EmbeddedCurve(s, (("bdy", 1, F(1, 2)),))

    def test_rejects_face_mismatch(self):
        s = CellSurface(FOUR_HOLED)
        # p sits in face 0 on both sides, p2 in face 1: no shared face
        with pytest.raises(ValidationError, match="share a face"):
            EmbeddedCurve(s, (("p", 1, F(1, 2)), ("p2", 1, F(1, 2))))

    def test_rejects_repeated_point(self):
        with pytest.raises(ValidationError, match="repeated"):
            EmbeddedCurve(torus(), (("v", 1, F(1, 2)), ("v", -1, F(1, 2))))

    @pytest.mark.parametrize("position", ("1/2", 0.5, True))
    def test_rejects_a_position_that_is_no_exact_rational(self, position):
        # a position is a Fraction or an int, never coerced from a string,
        # a float or a bool
        with pytest.raises(ValidationError, match="not a Fraction or an int"):
            EmbeddedCurve(torus(), (("v", 1, position),))

    def test_an_int_position_is_exact_but_outside_the_edge(self):
        with pytest.raises(ValidationError, match="outside"):
            EmbeddedCurve(torus(), (("v", 1, 1),))

    def test_rejects_self_crossing(self):
        # two same-direction strands through v must link up with a crossing
        with pytest.raises(ValidationError, match="crosses itself"):
            EmbeddedCurve(torus(), (("v", 1, F(1, 3)), ("v", 1, F(2, 3))))

    @pytest.mark.parametrize("scale", (1.5, 1.0))
    def test_rejects_a_direction_that_is_no_integer(self, scale):
        # x scaled by 1.5 would otherwise truncate to x and equal it
        x = EmbeddedCurve(torus(), (("v", 1, F(1, 2)), ("h", 1, F(1, 2))))
        with pytest.raises(ValidationError, match="bad crossing direction"):
            EmbeddedCurve(x.surface, tuple((e, d * scale, p) for e, d, p in x.events))

    def test_rejects_a_direction_that_is_a_bool(self):
        with pytest.raises(ValidationError, match="bad crossing direction"):
            EmbeddedCurve(torus(), (("v", True, F(1, 2)),))

    def test_rejects_an_edge_name_that_is_no_string(self):
        # the int 1 was taken as the edge "1"
        s = CellSurface(ONE_TORUS)
        assert len(EmbeddedCurve(s, (("1", 1, F(1, 2)),))) == 1
        with pytest.raises(ValidationError, match="events field: 1 is not str"):
            EmbeddedCurve(s, ((1, 1, F(1, 2)),))

    @pytest.mark.parametrize("flag", ("no", 0, 1, None))
    def test_rejects_an_orientation_flag_that_is_no_bool(self, flag):
        # "no" was stored: keyed as an oriented curve, yet unequal to the
        # same curve with True; 0 passed as False and 1 as True
        c = EmbeddedCurve(torus(), (("v", 1, F(1, 2)),))
        with pytest.raises(ValidationError, match="oriented field"):
            EmbeddedCurve(c.surface, c.events, oriented=flag)
        with pytest.raises(ValidationError, match="oriented field"):
            c.with_orientation(flag)

    def test_small_trivial_circle_is_embedded(self):
        c = EmbeddedCurve(torus(), (("v", 1, F(1, 3)), ("v", -1, F(2, 3))))
        assert len(c) == 2

    def test_rotation_invariance(self):
        s = torus()
        ev = (("v", 1, F(1, 2)), ("h", -1, F(1, 2)))
        a = EmbeddedCurve(s, ev)
        b = EmbeddedCurve(s, ev[1:] + ev[:1])
        assert a == b
        assert hash(a) == hash(b)

    def test_renormalization_invariance(self):
        s = torus()
        a = EmbeddedCurve(s, (("v", 1, F(1, 7)), ("h", -1, F(3, 5))))
        b = EmbeddedCurve(s, (("v", 1, F(1, 2)), ("h", -1, F(1, 2))))
        assert a == b

    def test_reverse(self):
        s = torus()
        a = EmbeddedCurve(s, (("v", 1, F(1, 2)), ("h", -1, F(1, 2))))
        r = a.reverse()
        assert r.events == (("h", 1, F(1, 2)), ("v", -1, F(1, 2)))
        assert a != r
        assert a.reverse().reverse() == a
        assert a.with_orientation(False) == r.with_orientation(False)

    def test_curves_born_from_keys_share_each_edge(self):
        # the keys of both curves share one space per edge: the k-th of the
        # edge's m points over both sits at k/(m + 1), each curve keeps its
        # orientation flag, and a key repeated across the curves raises
        s = torus()
        a, b = EmbeddedCurve._from_keys(s, [([("v", 1, 9)], True), ([("v", 1, 2)], False)])
        assert (a.events, a.oriented) == ((("v", 1, F(2, 3)),), True)
        assert (b.events, b.oriented) == ((("v", 1, F(1, 3)),), False)
        with pytest.raises(ValidationError, match="repeated crossing point on edge 'v'"):
            EmbeddedCurve._from_keys(s, [([("v", 1, 9)], True), ([("v", 1, 9)], True)])

    def test_identity_reads_ranks_up_each_edge(self):
        c = EmbeddedCurve(torus(), (("v", 1, F(1, 7)), ("h", -1, F(3, 5))))
        assert c.canonical_key == (("h", -1, 0), ("v", 1, 0))

    def test_oriented_flag_separates(self):
        a = EmbeddedCurve(torus(), (("v", 1, F(1, 2)),))
        assert a != a.with_orientation(False)

    def test_json_round_trip(self):
        s = torus()
        a = EmbeddedCurve(s, (("v", 1, F(3, 4)), ("h", -1, F(2, 5)), ("v", 1, F(1, 4))))
        again = EmbeddedCurve.from_json(s, a.to_json())
        assert again == a

    @pytest.mark.parametrize("field,value", [
        ("oriented", "false"), ("oriented", 0), ("oriented", None),
        ("itinerary", [["v", 1.5, 1]]), ("itinerary", [["v", True, 1]]),
        ("itinerary", [["v", 0, 1.0]]), ("itinerary", [["v", 0, "1"]]),
        ("itinerary", [[1, 0, 1]]), ("itinerary", [[None, 0, 1]]),
    ])
    def test_json_rejects_coerced_fields(self, field, value):
        # neither the orientation flag nor an itinerary entry is coerced:
        # "false" would read as True, 1.5 and True as the integer 1, and the
        # edge name 1 as "1"
        data = EmbeddedCurve(torus(), (("v", 1, F(1, 2)),)).to_json()
        assert EmbeddedCurve.from_json(torus(), data).oriented is True
        with pytest.raises(ValidationError, match=field):
            EmbeddedCurve.from_json(torus(), {**data, field: value})

    @given(
        st.lists(
            st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
            min_size=5, max_size=5, unique=True,
        ),
        st.integers(min_value=0, max_value=4),
    )
    def test_key_stable_under_positions_and_rotation(self, vals, r):
        # a (1, 4)-style line, with positions moved by a monotone relabelling
        s = torus()
        q = sorted(vals)
        base = [
            ("h", -1, q[2]), ("h", -1, q[3]), ("v", 1, q[4]),
            ("h", -1, q[0]), ("h", -1, q[1]),
        ]
        ref = EmbeddedCurve(
            s,
            (("h", -1, F(5, 8)), ("h", -1, F(7, 8)), ("v", 1, F(1, 2)),
             ("h", -1, F(1, 8)), ("h", -1, F(3, 8))),
        )
        a = EmbeddedCurve(s, tuple(base))
        b = EmbeddedCurve(s, tuple(base[r:] + base[:r]))
        assert a == b == ref


class TestBirth:
    """EmbeddedCurve._from_keys bears a curve, checks it and gives it its
    source's orientation and topology, in one call."""

    def test_an_image_takes_its_sources_orientation_and_topology(self):
        s = torus()
        source = EmbeddedCurve(s, (("v", 1, F(1, 2)),), oriented=False)
        assert is_essential(source)  # caches its topology
        (image,) = EmbeddedCurve._from_keys(s, [([("v", 1, 5)], source)])
        assert image.oriented is False
        assert image.__dict__[TOPOLOGY_KEY] is source.__dict__[TOPOLOGY_KEY]
        for copy in (source.reverse(), source.with_orientation(True), source.renormalized()):
            assert copy.__dict__[TOPOLOGY_KEY] is source.__dict__[TOPOLOGY_KEY]

    @pytest.mark.parametrize("oriented", (True, False))
    def test_a_curve_with_no_source_has_no_topology(self, oriented):
        (c,) = EmbeddedCurve._from_keys(torus(), [([("v", 1, 5)], oriented)])
        assert c.oriented is oriented and TOPOLOGY_KEY not in c.__dict__

    def test_a_copy_is_not_validated_and_a_new_layout_once(self, monkeypatch):
        source = torus_curve(build_preset("torus").surface, 3, 5)
        ranks = [k for _, k, _ in source.to_json()["itinerary"]]
        validated = []
        validate = EmbeddedCurve._validate
        monkeypatch.setattr(EmbeddedCurve, "_validate",
                            lambda c: validated.append(c) or validate(c))
        (copy,) = EmbeddedCurve._from_keys(source.surface, [([2 * k for k in ranks], source)])
        source.reverse(), source.with_orientation(False), source.renormalized()
        assert validated == []
        layout = [(e, d, k) for (e, d, _), k in zip(source.events, ranks)]
        (new,) = EmbeddedCurve._from_keys(source.surface, [(layout, source)])
        assert len(validated) == 1 and validated[0] is new
        assert copy.events == new.events == source.renormalized().events

    def test_a_new_layout_that_does_not_embed_raises_from_the_call(self):
        # two strands through v the same way cross (test_rejects_self_crossing)
        with pytest.raises(ValidationError, match="crosses itself"):
            EmbeddedCurve._from_keys(torus(), [([("v", 1, 1), ("v", 1, 2)], True)])


class TestFlow:
    def test_torus_pairing(self):
        s = torus()
        x = Flow("x", s, {"v": 1})
        y = Flow("y", s, {"h": -1})
        one_zero = EmbeddedCurve(s, (("v", 1, F(1, 2)),))
        zero_one = EmbeddedCurve(s, (("h", -1, F(1, 2)),))
        assert (x.pair(one_zero), y.pair(one_zero)) == (1, 0)
        assert (x.pair(zero_one), y.pair(zero_one)) == (0, 1)

    def test_conservation_enforced(self):
        s = CellSurface(FOUR_HOLED)
        with pytest.raises(ValidationError, match="flux"):
            Flow("bad", s, {"p": 1})
        Flow("ok", s, {"p": 1, "q": -1})

    def test_rejects_boundary_weight(self):
        s = CellSurface(FOUR_HOLED)
        with pytest.raises(ValidationError, match="non-interior"):
            Flow("bad", s, {"d1": 1})

    @pytest.mark.parametrize("weight", (1.7, 1.0, True, "2", None))
    def test_rejects_a_weight_that_is_no_int(self, weight):
        # 1.7 was stored as 1, and True and "2" were taken as ints
        with pytest.raises(ValidationError, match="is not an int"):
            Flow("x", torus(), {"v": weight})

    def test_rejects_an_edge_name_that_is_no_string(self):
        # the int 1 was taken as the edge "1"
        s = CellSurface(ONE_TORUS)
        assert Flow("x", s, {"1": 1}).weights == {"1": 1}
        with pytest.raises(ValidationError, match="weights field: 1 is not str"):
            Flow("x", s, {1: 1})

    def test_needs_oriented_curve(self):
        s = torus()
        x = Flow("x", s, {"v": 1})
        c = EmbeddedCurve(s, (("v", 1, F(1, 2)),), oriented=False)
        with pytest.raises(PreconditionError):
            x.pair(c)


def _mirror(s):
    return CellSurface(tuple(tuple((e, -sign) for e, sign in reversed(face))
                             for face in s.faces))


class TestCocycle:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_it_is_a_flow_on_every_interior_edge(self, name):
        s = build_preset(name).surface
        for surf in (s, _mirror(s), CellSurface.from_json(s.to_json())):
            assert set(surf.cocycle) == surf.interior_edges
            assert any(surf.cocycle.values())
            Flow("cocycle", surf, surf.cocycle)

    def test_it_pairs_by_homology_on_genus2(self):
        ps = build_preset("genus2_closed")
        flow = Flow("cocycle", ps.surface, ps.surface.cocycle)
        pair = {n: flow.pair(c.with_orientation(True)) for n, c in ps.curves.items()}
        for n in ("waist", "dual1", "dual2", "dual3"):
            assert pair[n] == 0
        for n in ("a1", "a2", "a3", "t1", "t2"):
            assert pair[n] != 0

    def test_it_pairs_to_zero_on_the_boundary_of_a_one_holed_torus(self):
        ps = build_preset("one_holed_torus")
        flow = Flow("cocycle", ps.surface, ps.surface.cocycle)
        assert flow.pair(ps.curves["bp1"].with_orientation(True)) == 0
        assert flow.pair(ps.curves["a1"].with_orientation(True)) != 0

    def test_it_pairs_nonzero_on_the_boundaries_of_a_four_holed_sphere(self):
        # a relative cycle: with two or more boundary components a
        # boundary-parallel curve can pair nonzero
        ps = build_preset("four_holed_sphere")
        flow = Flow("cocycle", ps.surface, ps.surface.cocycle)
        for n in ("bp1", "bp2", "bp3", "bp4"):
            assert flow.pair(ps.curves[n].with_orientation(True)) != 0

    def test_it_is_empty_without_a_nonzero_flow(self):
        # a disc: one face, no interior edge
        assert CellSurface(((("e", 1),),)).cocycle == {}


def _reference_validate(surf, events) -> None:
    """The validator the per-edge order replaced, kept as a reference.

    It checks each event's edge, direction and position, and repeated
    points, in event order, then nests each face's chords by their ends'
    Fraction walk coordinates: p on a +1 slot, 1 - p on a -1 slot.
    """

    def walk_coord(sign, pos):
        return pos if sign > 0 else 1 - pos

    if not events:
        raise ValidationError("curve needs at least one crossing event")
    seen = set()
    for e, d, p in events:
        if e not in surf.interior_edges:
            raise ValidationError(f"curve crosses non-interior edge {e!r}")
        if d not in (1, -1):
            raise ValidationError(f"bad crossing direction {d}")
        if not 0 < p < 1:
            raise ValidationError(f"crossing position {p} outside (0, 1)")
        key = (e, p.numerator, p.denominator)
        if key in seen:
            raise ValidationError(f"repeated crossing point ({e!r}, {p})")
        seen.add(key)

    n = len(events)
    chords_by_face = {}
    for i in range(n):
        e1, d1, p1 = events[i]
        e2, d2, p2 = events[(i + 1) % n]
        f_exit, ent_exit = surf.slot_position(e1, -d1)
        f_enter, ent_enter = surf.slot_position(e2, d2)
        if f_exit != f_enter:
            raise ValidationError(
                f"events {i} and {(i + 1) % n} do not share a face: "
                f"exit into face {f_exit}, enter from face {f_enter}"
            )
        key_a = (ent_exit, walk_coord(-d1, p1))
        key_b = (ent_enter, walk_coord(d2, p2))
        chords_by_face.setdefault(f_exit, []).append((key_a, key_b))

    for f, chords in chords_by_face.items():
        ends = []
        for i, (key_a, key_b) in enumerate(chords):
            lo, hi = (key_a, key_b) if key_a < key_b else (key_b, key_a)
            ends.append((lo, True, i))
            ends.append((hi, False, i))
        ends.sort(key=lambda t: (t[0][0], float(t[0][1]), t[0][1]))
        stack = []
        for _, opening, i in ends:
            if opening:
                stack.append(i)
            elif not stack or stack.pop() != i:
                raise ValidationError(f"curve crosses itself inside face {f}")


def _verdict(check):
    """None if check() accepts, else the ValidationError message."""
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return None


CORRUPTIONS = ("duplicate", "swap", "zero", "one", "outside", "non-interior",
               "direction", "flip")


def _corrupt(draw, surf, events, kind):
    """events with one defect of the given kind."""
    events = list(events)
    n = len(events)
    i = draw(st.integers(0, n - 1))
    e, d, p = events[i]
    if kind == "duplicate":  # one or two points, so that repeats race
        for k in range(draw(st.integers(1, 2))):
            j = draw(st.integers(0, n - 1 + k))
            events.insert(draw(st.integers(0, n + k)), events[j])
    elif kind == "swap":
        same = [j for j in range(n) if events[j][0] == e and j != i]
        if same:
            j = draw(st.sampled_from(same))
            events[i], events[j] = (e, d, events[j][2]), (e, events[j][1], p)
    elif kind in ("zero", "one", "outside"):
        bad = {"zero": [F(0)], "one": [F(1)], "outside": [F(3, 2), F(-1, 3), F(7, 5)]}
        events[i] = (e, d, draw(st.sampled_from(bad[kind])))
    elif kind == "non-interior":
        # a boundary edge, or an edge the surface does not have
        others = sorted(surf.boundary_edges) or ["zz"]
        events[i] = (draw(st.sampled_from(others)), d, p)
    elif kind == "direction":
        events[i] = (e, draw(st.sampled_from((0, 2, -3))), p)
    else:  # crossing the edge the other way: the faces may no longer meet
        events[i] = (e, -d, p)
    return events


@st.composite
def twist_image_events(draw):
    """(surface, events): a twist image on a preset, maybe with defects."""
    ps = build_preset(draw(st.sampled_from(PRESET_NAMES)))
    curves = [c for c in dict.fromkeys(ps.curves.values()) if is_essential(c)]
    a, b = draw(st.sampled_from(curves)), draw(st.sampled_from(curves))
    image = apply_twist(a, draw(st.sampled_from((1, -1, 2, -2))), b)
    events = list(image.events)
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2)):
        events = _corrupt(draw, ps.surface, events, kind)
    return ps.surface, events


@given(case=twist_image_events())
@settings(max_examples=150, deadline=None)
def test_validator_matches_the_walk_coordinate_reference(case):
    surf, events = case
    want = _verdict(lambda: _reference_validate(surf, events))
    assert _verdict(lambda: EmbeddedCurve(surf, tuple(events))) == want
