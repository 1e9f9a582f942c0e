"""Oracles for the arrangement engine and the single-curve topology cache.

The region structure must satisfy Euler's formula: the curves of a system
with k transverse crossings form a graph of Euler characteristic -k, so
the regions' characteristics sum to chi(surface) + k.

Minimal position is checked against identities of Farb and Margalit, *A
Primer on Mapping Class Groups*: i(a, b) = i(b, a); Prop. 3.2,
i(T_a^k b, b) = |k| i(a, b)^2; Prop. 3.4,
|i(T_a^k b, c) - |k| i(a, b) i(a, c)| <= i(b, c); and the algebraic
intersection number î, a signed count of the same crossings, obeys
|î(a, b)| <= i(a, b) with i(a, b) - î(a, b) even.  The genus-2 chain curves
c_r = T_t1 T_a2^-1 c_(r-1), c_0 = dual1, carry nested stacks of bigons
against these curves, so the oracles exercise stack peeling.  A stack
grown across the stationary side clears several stationary runs with one
strand, and a grid grown across both sides clears them with every strand.
Minimal position must reach the count that peeling one innermost bigon
per round reaches: on the pairs where a stationary-side stack once
tripped the crossing-count guard, on a grid pair, and on random genus-2
pairs in either order.

JointSystem.arc, which reads arcs off the crossings' slots, is checked
against the annulus-coordinate formula it replaced, and the rank-only
crossings phase against the parabola construction it replaced (see
parabola.py): the same crossings, signs and order along every chord, on
curve pairs and on systems of three or more curves in which no three
chords of a face cross pairwise.  On such a system the parabola cannot
meet a triple concurrency either, since two disjoint chords never meet.
A system with three such chords is refused.  The regions phase, which
walks corner chains and cycles, is checked against the union-find over
corners it replaced: the same regions in the same order, with the same
Euler characteristics and boundary circuits.  Every crossing sits once on
each of its two chords, at the slot the crossings phase records, and
leaves each chord by the dart its rank names.  The darts phase runs only
for a caller that reads darts or regions: the crossing queries of a pair
already in minimal position build none, whether its crossings have one
sign or the cocycle certifies it bigon-free, and an error of the deferred
phases still carries the inputs of the build.  The certificate is sound:
on every round of random pairs on each preset, a certified arrangement
has no bigon, and the replayed pairs with bigons are not certified.  The
slide before the first bigon search is an isotopy of b: on random genus-2
and twisted pairs the slid curve keeps b's itinerary, validates and is
isotopic to b, and minimal position reaches the count it reaches without
the slide; a slide that changes the crossing parity, or whose curve does
not assemble, is refused with the pair.  A slide or a reroute builds the
next arrangement from its keys: it is the arrangement that its curves,
born on the first read, build again, and a move whose keys repeat, step
between faces or cross in a face that curve 0 never enters is refused
with the pair.  Two curves with one cyclic
itinerary that cross as placed slide apart, with no darts phase.  Each
splice whose image reduce_pair makes, on random torus and genus-2 pairs,
crosses the curve it acts on exactly i(c, b) times as built, and once when
the image is made by surgery.

The single-curve topology that the cocycle decides without an
arrangement is checked against the regions of the curve's own
arrangement: preset curves, reduction splices and random twisted curves
on the torus, the one-holed torus and genus 2 that pair nonzero are
non-separating there, and on the four-holed sphere, where boundary curves
pair nonzero, the cocycle decides nothing.  JointSystem.beside_keys,
which keys a point k*hd + d*hn from its joint rank k, orders every edge as
the Fraction sum p + d*h/(m + 1) it replaced does (fraction_layout.beside).
The build keeps integer ranks only: on preset pairs and random twisted
pairs its edge order is a reference merge of the edge's points by
(position, curve), so the reference joint positions are (k + 1)/(m + 1).
A pair that its crossings put in minimal position makes no Fraction at
all, and a pair whose slide moves a point and that runs no bigon round
makes none until its curves are read, and then one per point of the pair;
every Fraction of a warm bench pass is made where a curve is born.
"""

import functools
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit import overlay, reduction, twisting
from dehnkit.calculus import algebraic_intersection, is_essential
from dehnkit.errors import ComputationError, PreconditionError, ValidationError
from dehnkit.factorization import factorize
from dehnkit.overlay import (
    CurveTopology,
    JointSystem,
    Region,
    _cocycle_decides,
    _region_topology,
    curves_isotopic,
    geometric_intersection_number,
    is_boundary_parallel,
    is_null_homotopic,
    is_separating,
    minimal_position,
)
from dehnkit.presets import PRESET_NAMES, build_preset, torus_curve
from dehnkit.reduction import reduce_pair
from dehnkit.surface import CellSurface, EmbeddedCurve
from dehnkit.twisting import TwistWord, apply_twist, apply_word
from bench_modules import load_bench_module
from fraction_layout import beside, joint_events
from parabola import assert_matches_the_parabola

WORKLOADS = load_bench_module("workloads")


def _systems(name):
    """Single curves, curve pairs and the interior pants system of a preset.

    No system here has three chords crossing pairwise in one face."""
    ps = build_preset(name)
    curves = list(dict.fromkeys(ps.curves.values()))  # "waist" aliases "dual2"
    out = [(c,) for c in curves]
    out += list(itertools.combinations(curves, 2))
    if ps.pants is not None:
        out.append(ps.pants.interior_curves)
    if name == "genus2_closed":
        # longer curves whose pairs carry bigons and mixed signs
        g = ps.curves
        b = apply_twist(g["a2"], 1, apply_twist(g["t1"], 1, g["dual1"]))
        out += [(g["a1"], b), (b, g["t2"]), (g["a1"], b, g["a3"]),
                (g["a1"], b, g["t2"])]
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_region_euler_characteristics_sum_to_surface_plus_crossings(name):
    for curves in _systems(name):
        system = JointSystem(curves[0].surface, curves)
        total = sum(r.chi for r in system.regions)
        assert total == system.surface.euler_characteristic + len(system.crossings)


def _broken(self, *args):
    raise ComputationError("broken build")


def _assert_carries(err, curves):
    assert err.surface is curves[0].surface
    assert err.curves == curves
    assert err.replay_json()["curves"] == [c.to_json() for c in curves]


def test_a_build_error_carries_the_build_inputs(monkeypatch):
    # the regions phase runs on the first read of the regions, and its
    # error carries the inputs of the build
    g = build_preset("genus2_closed").curves
    curves = (g["a1"], g["t1"])
    monkeypatch.setattr(JointSystem, "_regions", _broken)
    system = JointSystem(curves[0].surface, curves)
    with pytest.raises(ComputationError) as raised:
        system.regions
    _assert_carries(raised.value, curves)
    assert ComputationError("no inputs").replay_json() is None


def test_a_crossings_error_carries_the_build_inputs(monkeypatch):
    # the crossings phase runs at construction
    g = build_preset("genus2_closed").curves
    curves = (g["a1"], g["t1"])
    monkeypatch.setattr(JointSystem, "_crossings", _broken)
    with pytest.raises(ComputationError) as raised:
        JointSystem(curves[0].surface, curves)
    _assert_carries(raised.value, curves)


def _slid_pair(a, b):
    """The pair that minimal_position(a, b) looks for bigons in after its
    slide."""
    slid = overlay._slid(JointSystem(a.surface, (a, b)))
    return (a, b) if slid is None else slid.curves


def _has_a_bigon(curves):
    system = JointSystem(curves[0].surface, curves)
    return not system.certifies_no_bigon() and bool(system.find_bigons())


# a replayed genus-2 pair whose bigon survives the slide
SLID_BIGON_PAIR = "dual3^1*t2^-1*a2^1"


def test_a_reroute_that_does_not_assemble_carries_the_pair(monkeypatch):
    def broken(self, *args, **kwargs):
        raise ValidationError("curve crosses itself")

    a, b = _replayed_pair(BIGON_2B_PAIRS[SLID_BIGON_PAIR])
    assert _has_a_bigon(_slid_pair(a, b))
    monkeypatch.setattr(JointSystem, "reroute_through_bigons", broken)
    with pytest.raises(ComputationError) as raised:
        minimal_position(a, b)
    assert str(raised.value) == "bigon reroute did not assemble: curve crosses itself"
    assert raised.value.surface is a.surface and raised.value.curves == (a, b)


def test_a_slid_curve_that_does_not_assemble_carries_the_pair(monkeypatch):
    def broken(system):
        raise ValidationError("curve crosses itself")

    a, b = _replayed_pair(BIGON_2B_PAIRS[SLID_BIGON_PAIR])
    monkeypatch.setattr(overlay, "_slid", broken)
    with pytest.raises(ComputationError) as raised:
        minimal_position(a, b)
    assert str(raised.value) == "slid curve did not assemble: curve crosses itself"
    _assert_carries(raised.value, (a, b))


def test_a_bigon_splice_error_carries_its_arrangement(monkeypatch):
    # with no crossing at the bigon's corners the splice cannot be read;
    # the error carries the curves of the arrangement it was read from, the
    # slid pair: the same curves, with b's points placed otherwise among a's
    a, b = _replayed_pair(BIGON_2B_PAIRS[SLID_BIGON_PAIR])
    slid = _slid_pair(a, b)
    assert _has_a_bigon(slid)
    monkeypatch.setattr(JointSystem, "_node", lambda self, did: -1)
    with pytest.raises(ComputationError) as raised:
        minimal_position(a, b)
    err = raised.value
    assert str(err) == "bigon runs do not share their corners"
    assert err.surface is a.surface and err.curves == (a, b)
    assert [c.events for c in err.curves] == [c.events for c in slid]
    system = JointSystem(err.surface, err.curves)
    with pytest.raises(ComputationError) as replayed:
        system.reroute_through_bigons(system.find_bigons())
    assert str(replayed.value) == str(err)


# A genus-2 pair whose minimal position slides and then reroutes one bigon
# stack.  a2 enters face 0 only, and curve 1 crosses the edges c1p and c2p,
# whose two sides both lie in face 1, at several points.
MOVING_PAIR = (("t1", 1), ("a2", 1), ("dual2", -1), ("dual2", -1))


def _moving_pair():
    g = build_preset("genus2_closed").curves
    word = TwistWord(tuple((g[n], k) for n, k in MOVING_PAIR))
    return g["a2"], apply_word(word, g["dual3"])


def _on_face1_edge(keyed):
    """Curve 1's events on c1p or c2p, by key, on the edge that has most."""
    edge = max(("c1p", "c2p"), key=lambda e: sum(ev[0] == e for ev in keyed))
    return sorted((key, j) for j, (e, _, key) in enumerate(keyed) if e == edge)


def _self_crossing(keyed):
    # two points of curve 1 next to each other on an edge of face 1 trade
    # places, so their chords cross in face 1, which curve 0 never enters
    (k1, j1), (k2, j2) = _on_face1_edge(keyed)[:2]
    keyed[j1], keyed[j2] = (*keyed[j1][:2], k2), (*keyed[j2][:2], k1)
    return "curve crosses itself inside face 1"


def _repeated_key(keyed):
    (k1, _), (_, j2) = _on_face1_edge(keyed)[:2]
    keyed[j2] = (*keyed[j2][:2], k1)
    return "repeated crossing point on edge "


def _face_step(keyed):
    # a point of face 1's own edge moved to c1, whose sides lie in face 0,
    # with a key no point of c1 has
    (_, j), = _on_face1_edge(keyed)[:1]
    keyed[j] = ("c1", keyed[j][1], 0)
    return "do not share a face"


@pytest.mark.parametrize("corrupt", (_self_crossing, _repeated_key, _face_step))
@pytest.mark.parametrize("move, say", (
    ("_slid", "slid curve did not assemble"),
    ("reroute_through_bigons", "bigon reroute did not assemble")))
def test_a_corrupted_move_is_refused_with_the_pair(monkeypatch, move, say, corrupt):
    # The arrangement a slide or a reroute builds from its keys checks the
    # moved curve as EmbeddedCurve._validate would, in every face: a
    # corrupted move raises the ComputationError that carries (a, b).
    a, b = _moving_pair()
    moved = JointSystem._moved
    made, said = [], []

    def corrupting(self, keyed, hd):
        caller = sys._getframe(1).f_code.co_name
        made.append(caller)
        if caller == move:
            keyed = list(keyed)
            said.append(corrupt(keyed))
        return moved(self, keyed, hd)

    monkeypatch.setattr(JointSystem, "_moved", corrupting)
    with pytest.raises(ComputationError) as raised:
        minimal_position(a, b)
    assert made[-1] == move and made[0] == "_slid"
    assert str(raised.value).startswith(f"{say}: ")
    assert said[0] in str(raised.value)
    _assert_carries(raised.value, (a, b))


def _answers(c):
    return (
        is_null_homotopic(c),
        is_boundary_parallel(c),
        is_separating(c),
        is_essential(c),
    )


@pytest.fixture
def count_builds(monkeypatch):
    builds = []
    init = JointSystem.__init__

    def counting(self, surface, curves):
        builds.append(len(curves))
        init(self, surface, curves)

    monkeypatch.setattr(JointSystem, "__init__", counting)
    return builds


class TestTopologyCache:
    def test_one_build_answers_every_predicate(self, count_builds):
        g2 = build_preset("genus2_closed")
        src = g2.curves["dual1"]
        c = EmbeddedCurve(src.surface, src.events, oriented=True)
        assert _answers(c) == (False, False, True, True)
        assert count_builds == [1]
        assert _answers(c) == (False, False, True, True)
        copies = (
            c.with_orientation(False),
            c.reverse(),
            c.renormalized(),
            c.reverse().with_orientation(False).renormalized(),
        )
        for copy in copies:
            assert _answers(copy) == (False, False, True, True)
        assert count_builds == [1]

    def test_respaced_curves_of_an_arrangement_share_it(self, count_builds):
        # a1 pairs nonzero with the cocycle and builds nothing; bp1 pairs to
        # 0 and builds its own arrangement.  The pair of a moved arrangement
        # (JointSystem._moved), here bp1 keyed where it lies, is born from
        # its keys when read, and shares both.
        oh = build_preset("one_holed_torus")
        count_builds.clear()  # building the preset, when not yet cached
        a, b = (
            EmbeddedCurve(oh.surface, oh.curves[n].events, oriented=False)
            for n in ("a1", "bp1")
        )
        assert is_essential(a) and not is_essential(b)
        system = JointSystem(oh.surface, (a, b))
        assert count_builds == [1, 2]
        moved = system._moved(system.beside_keys(1, range(len(b.events)), 0, 1), 1)
        a2, b2 = moved.curves
        assert moved.curves == (a2, b2) == (a, b)
        assert is_essential(a2)
        assert is_boundary_parallel(b2)
        assert count_builds == [1, 2]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_answers_match_a_fresh_copy(self, name):
        for c in build_preset(name).curves.values():
            fresh = EmbeddedCurve(c.surface, c.events, oriented=c.oriented)
            want = _answers(fresh)
            assert _answers(c) == want
            assert _answers(c.reverse()) == want
            assert _answers(c.with_orientation(not c.oriented)) == want


def test_reducing_a_fresh_torus_pair_builds_no_single_curve_arrangement(count_builds):
    # every splice that the reduction twists along pairs nonzero with the
    # cocycle, so no essentiality test builds an arrangement of one curve
    t = build_preset("torus").surface
    count_builds.clear()
    word, _, cls = reduce_pair(torus_curve(t, 2, 1), torus_curve(t, 3, 5))
    assert word.letters and cls.tag in ("disjoint", "one_point")
    assert count_builds and 1 not in count_builds


def _fresh(c):
    return EmbeddedCurve(c.surface, c.events, oriented=c.oriented)


def test_a_curve_the_cocycle_decides_is_non_separating():
    # Soundness of the cocycle shortcut against the regions of the curve's
    # own arrangement, per family of curves; each family must meet the
    # shortcut, or the oracle checks nothing.
    decided = {}
    non_separating = CurveTopology(False, False, False)

    def check(family, *curves):
        decided.setdefault(family, 0)
        for c in map(_fresh, curves):
            if _cocycle_decides(c):
                decided[family] += 1
                assert _region_topology(c) == non_separating, (family, c)

    for name in ("torus", "one_holed_torus", "genus2_closed"):
        check("preset", *build_preset(name).curves.values())
    t = build_preset("torus").surface
    for slopes in (((2, 1), (3, 5)), ((1, 4), (5, 2)), ((1, 0), (2, 7))):
        word, _, _ = reduce_pair(*(torus_curve(t, *pq) for pq in slopes))
        check("splice", *(c for c, _ in word.letters))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def twisted(data):
        check("twisted", *_draw_twisted_pair(
            data, ("torus", "one_holed_torus", "genus2_closed")))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def genus2(data):
        check("genus2", *_draw_genus2_pair(data))

    twisted()
    genus2()
    assert sorted(decided) == ["genus2", "preset", "splice", "twisted"]
    assert all(decided.values()), decided


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_the_cocycle_decides_nothing_on_the_four_holed_sphere(data):
    # its boundary-parallel curves and the separating a1 pair nonzero
    ps = build_preset("four_holed_sphere")
    curves = [*ps.curves.values(), *_draw_twisted_pair(data, ("four_holed_sphere",))]
    assert not any(_cocycle_decides(_fresh(c)) for c in curves)


@pytest.fixture
def count_cells(monkeypatch):
    """Curve counts of the arrangements whose darts phase ran."""
    calls = []
    darts = JointSystem._darts

    def counting(self, *args):
        calls.append(len(self.curves))
        return darts(self, *args)

    monkeypatch.setattr(JointSystem, "_darts", counting)
    return calls


def test_crossing_queries_build_no_cells(count_cells):
    # the torus pair 2/1, 3/5 has 7 crossings of one sign, so it is
    # minimal as placed and nothing below reads a dart or a region; both
    # curves pair nonzero with the cocycle, so is_essential reads none either
    t = build_preset("torus").surface
    a = torus_curve(t, 2, 1).with_orientation(True)
    b = torus_curve(t, 3, 5).with_orientation(True)
    assert is_essential(a) and is_essential(b)
    assert count_cells == []
    assert len(minimal_position(a, b).crossings) == 7
    assert geometric_intersection_number(a, b) == 7
    assert abs(algebraic_intersection(a, b)) == 7
    apply_twist(a, 1, b)
    assert count_cells == []


def test_a_certified_pair_builds_no_cells(count_cells):
    # a1 and dual1 cross twice with opposite signs and bound no bigon: the
    # cocycle certifies it, so no query below reads a dart or a region
    g = build_preset("genus2_closed").curves
    a, b = g["a1"], g["dual1"]
    assert is_essential(a) and is_essential(b)
    system = JointSystem(a.surface, (a, b))
    assert sorted(x.sign for x in system.crossings) == [-1, 1]
    count_cells.clear()
    assert len(minimal_position(a, b).crossings) == 2
    assert count_cells == []
    assert geometric_intersection_number(a, b) == 2
    assert count_cells == []
    apply_twist(a, 1, b)
    assert count_cells == []
    # a pair with a bigon still looks for it in the darts and regions
    a, b = _replayed_pair(next(iter(BIGON_2B_PAIRS.values())))
    minimal_position(a, b)
    assert count_cells


@pytest.mark.parametrize("system", ("triple", "pants_duals"))
def test_three_chords_crossing_pairwise_are_refused(system):
    # genus-2 systems with three chords crossing pairwise in one face
    ps = build_preset("genus2_closed")
    if system == "triple":
        g = ps.curves
        b = apply_twist(g["a2"], 1, apply_twist(g["t1"], 1, g["dual1"]))
        curves = (g["a2"], b, g["t2"])
    else:
        curves = ps.pants.pants_curves + ps.pants.dual_curves
    with pytest.raises(PreconditionError, match=r"^three curves cross pairwise in face \d+$"):
        JointSystem(ps.surface, curves)


@functools.lru_cache(maxsize=None)
def _chain(r):
    """The genus-2 chain curve c_r: 4, 8, 18, 44 and 112 events."""
    g = build_preset("genus2_closed").curves
    if r == 0:
        return g["dual1"]
    return apply_twist(g["t1"], 1, apply_twist(g["a2"], -1, _chain(r - 1)))


def _one_bigon_per_round(a, b):
    """Crossing count left by peeling a single innermost bigon per build."""
    with pytest.MonkeyPatch.context() as patch:
        # a stack of one: the innermost bigon alone, clearing its own side
        def innermost(self, region):
            a_run, b_run = self._bigon_runs(region)
            return [([a_run], b_run)]

        patch.setattr(JointSystem, "bigon_stack", innermost)
        while True:
            system = JointSystem(a.surface, (a, b))
            bigons = system.find_bigons()
            if not bigons:
                return len(system.crossings)
            moved, _ = system.reroute_through_bigons(bigons[:1])
            a, b = moved.curves


def test_a_bigon_stack_is_peeled_in_one_round(count_builds):
    # c_4 meets a1 in 56 raw crossings, 12 of them in one stack of nested
    # bigons; peeling one bigon per round takes 7 builds to reach 44
    g = build_preset("genus2_closed").curves
    a, b = g["a1"], _chain(4)
    count_builds.clear()
    system = minimal_position(a, b)
    assert len(count_builds) <= 3
    assert len(system.crossings) == _one_bigon_per_round(a, b) == 44


CHAIN_PARTNERS = ("a1", "a2", "t1", "t2")


@functools.lru_cache(maxsize=None)
def _twisted(name, k, r):
    """T_a^k c_r for a chain partner a."""
    return apply_twist(build_preset("genus2_closed").curves[name], k, _chain(r))


# Pairs on which peeling each bigon as a strand of its own tripped the
# crossing-count guard, as the errors of factorize on these genus-2 words
# replayed them: a bigon whose stationary side, and the rectangle across
# it, are single chord segments of one face.  Its strand runs straight
# through the rectangle too, so it clears two stationary runs.
BIGON_2B_PAIRS = json.loads(
    (Path(__file__).parent / "bigon_2b_pairs.json").read_text())


def _replayed_pair(data):
    surface = CellSurface.from_json(data["surface"])
    return tuple(EmbeddedCurve.from_json(surface, c) for c in data["curves"])


@pytest.mark.parametrize("word", sorted(BIGON_2B_PAIRS))
def test_a_rectangle_across_the_stationary_side_is_cleared_too(word):
    a, b = _replayed_pair(BIGON_2B_PAIRS[word])
    want = _one_bigon_per_round(a, b)
    assert len(minimal_position(a, b).crossings) == want


# The read-off's isotopy test of D_a2^-9(dual2) against the dual image in
# factorize(waist^-1 t1^-1 dual1), which holds: 210 raw crossings.  Stacks
# grown across one side only left a grid of rectangles nested across both
# sides of a bigon, and peeled its last 28 crossings 4 per round, in 15
# rounds in all; grown across both sides they take 5.
BIGON_GRID_PAIR = json.loads(
    (Path(__file__).parent / "bigon_grid_pair.json").read_text())


def test_a_grid_of_rectangles_is_peeled_in_few_rounds(count_builds):
    (data,) = BIGON_GRID_PAIR.values()
    a, b = _replayed_pair(data)
    want = _one_bigon_per_round(a, b)
    count_builds.clear()
    assert len(minimal_position(a, b).crossings) == want == 0
    assert len(count_builds) <= 7


# factorize(t1^-1) on genus 2 tests the image of t1 against t1 for isotopy:
# two curves with the same cyclic itinerary, each spaced in its own frame,
# that cross twice as placed.
EQUAL_ITINERARY_PAIR = json.loads(
    (Path(__file__).parent / "equal_itinerary_pair.json").read_text())


def test_curves_with_one_cyclic_itinerary_slide_apart(count_cells):
    # their strands never part, so the slide puts b on a's left on every
    # edge, and no bigon round runs
    (data,) = EQUAL_ITINERARY_PAIR.values()
    a, b = _replayed_pair(data)
    assert len(JointSystem(a.surface, (a, b)).crossings) == 2
    count_cells.clear()
    assert len(minimal_position(a, b).crossings) == 0
    assert count_cells == []
    assert curves_isotopic(a, b)


@pytest.mark.parametrize("k", (2, -2))
def test_a_stack_across_the_stationary_side_takes_few_builds(count_builds, k):
    # T_a1^k c_3 against c_3 in either order; with c_3 moving, its stacks
    # grow across the stationary side
    image, b = _twisted("a1", k, 3), _chain(3)
    for pair in ((image, b), (b, image)):
        count_builds.clear()
        assert geometric_intersection_number(*pair) == 648
        assert len(count_builds) <= 8


def _draw_genus2_pair(data):
    """A genus-2 preset curve and the image of one under 1-3 twists."""
    g = build_preset("genus2_closed").curves
    pick = st.sampled_from(sorted(g))
    a, b = g[data.draw(pick, label="a")], g[data.draw(pick, label="b")]
    word = data.draw(st.lists(st.tuples(pick, st.sampled_from((1, -1))),
                              min_size=1, max_size=3), label="word")
    for axis, k in word:
        b = apply_twist(g[axis], k, b)
    return a, b


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_minimal_position_reaches_the_one_bigon_per_round_count(data):
    a, b = _draw_genus2_pair(data)
    want = _one_bigon_per_round(a, b)
    assert len(minimal_position(a, b).crossings) == want
    assert len(minimal_position(b, a).crossings) == want


def _rounds_of(a, b):
    """The arrangements that the rounds of minimal_position(a, b) build."""
    systems = []
    init = JointSystem.__init__

    def keeping(self, surface, curves):
        init(self, surface, curves)
        systems.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JointSystem, "__init__", keeping)
        minimal_position(a, b)
    return systems


def test_a_certified_round_has_no_bigon():
    # Soundness of the bigon certificate on every round's arrangement, and
    # it must certify some of them, or the oracle checks nothing.
    certified = []

    def check(a, b):
        for pair in ((a, b), (b, a)):
            for system in _rounds_of(*pair):
                if system.certifies_no_bigon():
                    certified.append(system)
                    assert system.find_bigons() == []

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def on_genus2(data):
        check(*_draw_genus2_pair(data))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def off_genus2(data):
        check(*_draw_twisted_pair(
            data, ("torus", "one_holed_torus", "four_holed_sphere")))

    on_genus2()
    assert certified
    certified.clear()
    off_genus2()
    assert certified


def test_a_slide_is_an_isotopy_that_keeps_the_intersection_number():
    # The slid curve has b's itinerary, validates and is isotopic to b, and
    # minimal position reaches the count it reaches without the slide.
    # Each family must slide some pair, or the oracle checks nothing.
    slides = Counter()

    def check(family, a, b):
        moved = overlay._slid(JointSystem(a.surface, (a, b)))
        if moved is None:
            return
        slid = moved.curves[1]
        slides[family] += 1
        assert [ev[:2] for ev in slid.events] == [ev[:2] for ev in b.events]
        EmbeddedCurve(slid.surface, slid.events, oriented=slid.oriented)
        assert curves_isotopic(slid, b)
        want = len(minimal_position(a, b).crossings)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(overlay, "_slid", lambda system: system)
            assert len(minimal_position(a, b).crossings) == want, (family, a, b)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def genus2(data):
        check("genus2", *_draw_genus2_pair(data))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def twisted(data):
        check("twisted", *_draw_twisted_pair(data))

    genus2()
    twisted()
    assert slides["genus2"] and slides["twisted"], slides


def _moved_rounds(a, b):
    """The arrangements that minimal_position(a, b) builds from keys."""
    systems = []
    moved = JointSystem._moved

    def keeping(self, keyed, hd):
        systems.append(moved(self, keyed, hd))
        return systems[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JointSystem, "_moved", keeping)
        minimal_position(a, b)
    return systems


def _assert_agrees_with_its_rebuild(a, b, system):
    """An arrangement built from keys is the one its curves build: they are
    born on the first read, embed, and are images of a and b."""
    curves = system.curves
    assert system.curves is curves and curves[0] == a
    assert [c.oriented for c in curves] == [a.oriented, b.oriented]
    for c in curves:
        EmbeddedCurve(c.surface, c.events, oriented=c.oriented)
    rebuilt = JointSystem(system.surface, curves)
    assert rebuilt.edge_order == system.edge_order
    assert rebuilt.crossings == system.crossings
    assert len(rebuilt.regions) == len(system.regions)


def test_a_moved_arrangement_agrees_with_the_one_its_curves_build():
    # every slide and every reroute round of the replayed pairs, and the
    # slides of random genus-2 pairs, which must include some
    pairs = [_replayed_pair(data)
             for source in (BIGON_2B_PAIRS, BIGON_GRID_PAIR, EQUAL_ITINERARY_PAIR)
             for data in source.values()]
    for a, b in pairs:
        rounds = _moved_rounds(a, b)
        assert rounds
        for system in rounds:
            _assert_agrees_with_its_rebuild(a, b, system)
    slid = []

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def genus2(data):
        a, b = _draw_genus2_pair(data)
        for system in _moved_rounds(a, b):
            slid.append(system)
            _assert_agrees_with_its_rebuild(a, b, system)

    genus2()
    assert slid


def test_a_slide_that_changes_the_crossing_parity_carries_the_pair(monkeypatch):
    # A slide is an isotopy of b, which keeps the crossing count mod 2.  One
    # that does not is refused with the input pair, and the error replays
    # from its JSON.  The pair is a1 and c_3 in their own frames, as a
    # replay places them; t1 meets a1 once.
    g = build_preset("genus2_closed").curves
    a, b = (EmbeddedCurve.from_json(c.surface, c.to_json()) for c in (g["a1"], _chain(3)))
    monkeypatch.setattr(overlay, "_slid", lambda system: JointSystem(
        system.surface, (system.curves[0], g["t1"])))
    with pytest.raises(ComputationError) as raised:
        minimal_position(a, b)
    err = raised.value
    assert str(err) == "sliding changed the crossing parity: 26 to 1"
    _assert_carries(err, (a, b))
    with pytest.raises(ComputationError) as replayed:
        minimal_position(*_replayed_pair(json.loads(json.dumps(err.replay_json()))))
    assert str(replayed.value) == str(err)


@pytest.mark.parametrize("data", [
    pytest.param(pairs[word], id=f"{source}-{word}")
    for source, pairs in (("2b", BIGON_2B_PAIRS), ("grid", BIGON_GRID_PAIR))
    for word in sorted(pairs)])
def test_the_replayed_bigon_pairs_are_not_certified(data):
    a, b = _replayed_pair(data)
    system = JointSystem(a.surface, (a, b))
    assert not system.certifies_no_bigon()
    assert system.find_bigons()


def test_the_twist_pair_copies_curve_1_without_bearing_it():
    # reduction._twist_pair keys curve 1 of a moved arrangement off the
    # frame: as a copy of b's events when it slid, as a new layout when a
    # bigon reroute changed them.  It bears nothing else, and makes the
    # pair that copying the born curve 1 makes.
    g = build_preset("genus2_closed").curves
    kinds = []
    for a, b in ((g["a1"], _chain(3)), _replayed_pair(BIGON_2B_PAIRS[SLID_BIGON_PAIR])):
        system = minimal_position(a, b)
        made = []
        for x, y, _ in reduction._pair_priority(system.crossing_order_along(0)):
            keys = reduction._candidate_events(system, x, y)
            try:
                (c,) = EmbeddedCurve._from_keys(a.surface, [(keys, False)])
            except ValidationError:
                continue
            made.append((keys, c, reduction._twist_pair(a, b, system, c, x, y)))
        assert made and "curves" not in vars(system)
        born = system.curves[1]
        kinds.append([ev[:2] for ev in born.events] == [ev[:2] for ev in b.events])
        copy = [k for _, _, k in system.beside_keys(1, range(len(born.events)), 0, 4)]
        for keys, c, pair in made:
            want = EmbeddedCurve._from_keys(
                a.surface, [([k for _, _, k in keys], c), (copy, born)])
            assert [x.events for x in pair] == [x.events for x in want]
            assert pair[1].oriented == b.oriented
    assert kinds == [True, False]


def test_each_reduction_twist_meets_its_curve_in_minimal_position():
    # Every (splice, curve) pair whose image reduce_pair makes crosses as
    # often as the pair's intersection number, as built: the step acts on
    # curve 1 of the arrangement the splice was cut from, born together
    # with the splice from their keys (reduction._twist_pair).  A
    # splice that runs to the next crossing along a, whose image is made by
    # surgery, crosses that curve exactly once.  Each family must make
    # images, the torus ones by surgery, or the oracle checks nothing.
    images = []
    seen = Counter()
    image_of = reduction._twist_image

    def recording(a, b, system, c, x, y, adjacent):
        images.append((*reduction._twist_pair(a, b, system, c, x, y), adjacent))
        return image_of(a, b, system, c, x, y, adjacent)

    def check(family, a, b):
        images.clear()
        reduce_pair(a, b)
        for c, curve, adjacent in images:
            built = len(JointSystem(c.surface, (c, curve)).crossings)
            assert built == geometric_intersection_number(c, curve), (family, c, curve)
            assert built == 1 or not adjacent, (family, c, curve)
            seen[family, adjacent] += 1

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def torus(data):
        check("torus", *_draw_twisted_pair(data, ("torus",)))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def genus2(data):
        check("genus2", *_draw_genus2_pair(data))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_twist_image", recording)
        torus()
        genus2()
    assert seen["torus", True] and seen["genus2", False] + seen["genus2", True], seen


def test_the_largest_bench_factorization_takes_few_builds(count_builds):
    # factorize(waist^-1 t1^-1 dual1) on warm curves, as in every bench
    # pass after the first: 185 builds while stacks grew across one side
    # only, 168 since they grow into grids; 164 while the reduction twisted
    # the caller's b, 160 since it twists the curve its splice was cut from
    ps = build_preset("genus2_closed")
    word = TwistWord(tuple((ps.curve(n), k)
                           for n, k in (("waist", -1), ("t1", -1), ("dual1", 1))))
    factorize(word, ps.pants)
    count_builds.clear()
    factorize(word, ps.pants)
    assert len(count_builds) <= 162


def test_the_largest_bench_factorization_runs_few_darts_phases(count_cells):
    # the same warm factorization: 133 darts phases while every round with
    # crossings of both signs looked for bigons in the regions, 87 since the
    # cocycle certifies the bigon-free ones from the crossings; 83 while the
    # reduction twisted the caller's b, 79 since it twists the curve its
    # splice was cut from
    ps = build_preset("genus2_closed")
    word = TwistWord(tuple((ps.curve(n), k)
                           for n, k in (("waist", -1), ("t1", -1), ("dual1", 1))))
    factorize(word, ps.pants)
    count_cells.clear()
    factorize(word, ps.pants)
    assert len(count_cells) <= 81


@pytest.mark.parametrize("workload, most, most_rounds", [
    pytest.param(workload, most, most_rounds, id=workload)
    for workload, most, most_rounds in (
        ("factorize-words", 105, 57), ("torus-slopes", 0, 0), ("g2-growth", 0, 0))])
def test_a_warm_bench_pass_runs_few_darts_phases(
        count_cells, monkeypatch, workload, most, most_rounds):
    # The bench's ops at seed 3, on warm curves as in every pass after the
    # first.  Peeling bigons in the pairs as placed ran 307, 12 and 2 darts
    # phases; sliding b into walk order first left 116, 0 and 0, in 68, 0
    # and 0 bigon rounds; putting strands that never part on one side
    # leaves 105, 0 and 0, in 57, 0 and 0 rounds.
    rounds = []
    find_bigons = JointSystem.find_bigons

    def counting(self):
        rounds.append(len(self.crossings))
        return find_bigons(self)

    monkeypatch.setattr(JointSystem, "find_bigons", counting)
    ops = WORKLOADS.build(workload, 3).ops
    _run_pass(ops)
    count_cells.clear()
    rounds.clear()
    _run_pass(ops)
    assert len(count_cells) <= most
    assert len(rounds) <= most_rounds


def _run_pass(ops) -> None:
    """One pass of a workload's ops, as the bench runs it."""
    for op in ops:
        try:
            op.run()
        except PreconditionError:  # the bordered words of defect 2a
            pass


@pytest.mark.parametrize("r", range(4))
def test_intersection_is_symmetric_on_chain_curves(r):
    g = build_preset("genus2_closed").curves
    b = _chain(r)
    for name in CHAIN_PARTNERS:
        a = g[name]
        assert geometric_intersection_number(a, b) == geometric_intersection_number(b, a)


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("k", (1, -1, 2, -2))
def test_twist_intersection_squares_on_chain_curves(r, k):
    g = build_preset("genus2_closed").curves
    b = _chain(r)
    for name in CHAIN_PARTNERS:
        a = g[name]
        want = abs(k) * geometric_intersection_number(a, b) ** 2
        image = _twisted(name, k, r)
        assert geometric_intersection_number(image, b) == want, (name, k)
        assert geometric_intersection_number(b, image) == want, (name, k)


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("k", (1, -1, 2, -2))
def test_twist_intersection_bound_on_chain_curves(r, k):
    # Prop. 3.4, for every a and c among the chain partners
    g = build_preset("genus2_closed").curves
    b = _chain(r)
    for a_name, c_name in itertools.product(CHAIN_PARTNERS, repeat=2):
        a, c = g[a_name], g[c_name]
        i = geometric_intersection_number
        lhs = i(_twisted(a_name, k, r), c) - abs(k) * i(a, b) * i(a, c)
        assert abs(lhs) <= i(b, c), (a_name, c_name)


@pytest.mark.parametrize("r", range(4))
def test_algebraic_intersection_bounds_and_matches_parity(r):
    g = build_preset("genus2_closed").curves
    b = _chain(r).with_orientation(True)
    for name in CHAIN_PARTNERS:
        a = g[name].with_orientation(True)
        geo = geometric_intersection_number(a, b)
        alg = algebraic_intersection(a, b)
        assert abs(alg) <= geo and (geo - alg) % 2 == 0, name


def _crossing_params(system, ci):
    """Annulus coordinate of each crossing met by curve ci.

    The r-th of the k crossings on gap g sits at g + (r + 1)/(k + 1),
    strictly inside the gap; only the cyclic order matters.
    """
    params = {}
    for g, hits in enumerate(system._stops[ci]):
        for r, node in enumerate(hits):
            params[system.crossings[node]] = g + Fraction(r + 1, len(hits) + 1)
    return params


def _arc_indices(n_events, th_from, th_to):
    """Reference arc: event indices strictly inside the forward cyclic
    interval (th_from, th_to) of annulus coordinates (_crossing_params)."""
    span = (th_to - th_from) % n_events
    out = []
    base = int(th_from) + 1
    for t in range(n_events):
        off = (Fraction(base + t) - th_from) % n_events
        if off < span:
            out.append((base + t) % n_events)
        else:
            break
    return out


def _arc_systems():
    g = build_preset("genus2_closed").curves
    for r in range(4):
        for name in CHAIN_PARTNERS:
            yield minimal_position(g[name], _chain(r))
    # a one-event curve whose single chord carries all three crossings
    t = build_preset("torus").surface
    yield minimal_position(torus_curve(t, 1, 0), torus_curve(t, 1, 3))


def test_arc_matches_the_annulus_coordinate_formula():
    for system in _arc_systems():
        for ci in (0, 1):
            n = len(system.curves[ci].events)
            theta = _crossing_params(system, ci)
            for x, y in itertools.permutations(system.crossing_order_along(ci), 2):
                want = _arc_indices(n, theta[x], theta[y])
                assert system.arc(ci, x, y) == want, (ci, theta[x], theta[y])
            for x in theta:
                assert system.arc(ci, x, x) == []


_SHIFTS = [(1, 4)] + [(s * k, 3 * depth) for depth in (1, 2, 3)
                      for k in range(1, depth + 1) for s in (1, -1)]


def _assert_beside_matches_the_reference(a, b):
    """beside_keys against p + d*h/(m + 1), the Fraction sum it replaced
    (fraction_layout.beside), for the reduction splice's h = 1/4 and the
    bigon strands' shifts, given as the (hn, hd) its callers pass: on every
    edge, the moved points of one curve among the points of both where they
    lie, keyed k*hd, come in the same order by key as by position, with no
    ties."""
    system = JointSystem(a.surface, (a, b))
    joint = [joint_events(system, ci) for ci in (0, 1)]
    for hn, hd in _SHIFTS:
        placed = [(e, key, p)
                  for ci in (0, 1)
                  for (e, _, key), (_, _, p) in zip(
                      system.beside_keys(ci, range(len(joint[ci])), 0, hd), joint[ci])]
        for ci in (0, 1):
            moved = [(e, key, beside(system, ev, hn, hd)[2])
                     for (e, _, key), ev in zip(
                         system.beside_keys(ci, range(len(joint[ci])), hn, hd), joint[ci])]
            by_edge = {}
            for e, key, p in placed + moved:
                by_edge.setdefault(e, []).append((key, p))
            for e, points in by_edge.items():
                by_key = sorted(points)
                by_position = sorted(points, key=lambda kp: kp[1])
                assert by_key == by_position, (e, hn, hd)
                assert len({key for key, _ in points}) == len(points), (e, hn, hd)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_beside_matches_the_reference_on_preset_pairs(name):
    curves = list(dict.fromkeys(build_preset(name).curves.values()))
    for pair in itertools.combinations(curves, 2):
        _assert_beside_matches_the_reference(*pair)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_beside_matches_the_reference_on_genus2_pairs(data):
    _assert_beside_matches_the_reference(*_draw_genus2_pair(data))


def _assert_joint_frame_matches_a_reference_merge(curves):
    """The joint frame against a merge of all points of an edge by
    (position, curve): edge_order lists them in that order, so the k-th of
    m, counted from 0, sits at (k + 1)/(m + 1) (fraction_layout.joint_events)."""
    system = JointSystem(curves[0].surface, curves)
    points = {}
    for ci, c in enumerate(curves):
        for idx, (e, _, p) in enumerate(c.events):
            points.setdefault(e, []).append((p, ci, idx))
    want = {}
    for e, pts in points.items():
        merged = sorted(pts)
        assert system.edge_order[e] == [(ci, idx) for _, ci, idx in merged], e
        for k, (_, ci, idx) in enumerate(merged):
            want[ci, idx] = Fraction(k + 1, len(pts) + 1)
    for ci, c in enumerate(curves):
        joint = joint_events(system, ci)
        assert len(joint) == len(c.events)
        for idx, (e, d, _) in enumerate(c.events):
            assert joint[idx] == (e, d, want[ci, idx]), (ci, idx)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_joint_positions_match_a_reference_merge_on_preset_pairs(name):
    curves = list(dict.fromkeys(build_preset(name).curves.values()))
    for pair in itertools.combinations(curves, 2):
        _assert_joint_frame_matches_a_reference_merge(pair)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_joint_positions_match_a_reference_merge_on_twisted_pairs(data):
    a, b = _draw_twisted_pair(data)
    _assert_joint_frame_matches_a_reference_merge((a, b))
    _assert_joint_frame_matches_a_reference_merge((b, a))


def test_a_pair_its_crossings_put_in_minimal_position_makes_no_fraction(monkeypatch):
    # the torus pair 2/1, 3/5 crosses 7 times with one sign, and the
    # cocycle certifies a1, dual1 (two crossings of opposite signs)
    t = build_preset("torus").surface
    g = build_preset("genus2_closed").curves
    pairs = [(torus_curve(t, 2, 1), torus_curve(t, 3, 5)), (g["a1"], g["dual1"])]
    for a, b in pairs:
        JointSystem(a.surface, (a, b))  # each curve sorts its points once
    made = _counting_fractions(monkeypatch)
    for (a, b), count in zip(pairs, (7, 2)):
        system = minimal_position(a, b)
        assert len(system.crossings) == count
        assert made == []


def test_a_slide_with_no_bigon_round_makes_one_fraction_per_point(monkeypatch):
    # A pair whose slide moves some point and that runs no bigon round is
    # built from its keys (JointSystem._moved): minimal_position makes no
    # Fraction, and the first read of its curves bears the pair from the
    # keys, one Fraction per point of the pair, and no other.  The two
    # curves with one cyclic itinerary slide so, and random genus-2 pairs
    # must include some that do, or the oracle checks nothing.
    slides, rounds = [], []
    slid, find_bigons = overlay._slid, JointSystem.find_bigons

    def recording_slid(system):
        moved = slid(system)
        slides.append(moved is not None)
        return moved

    def counting_find_bigons(self):
        rounds.append(len(self.crossings))
        return find_bigons(self)

    monkeypatch.setattr(overlay, "_slid", recording_slid)
    monkeypatch.setattr(JointSystem, "find_bigons", counting_find_bigons)
    made = _counting_fractions(monkeypatch)
    checked = Counter()

    def check(family, a, b):
        JointSystem(a.surface, (a, b))  # each curve sorts its points once
        for seen in (slides, rounds, made):
            seen.clear()
        system = minimal_position(a, b)
        if slides == [True] and not rounds:
            assert made == [], (family, a, b)
            system.curves
            system.curves
            assert len(made) == len(a.events) + len(b.events), (family, a, b)
            checked[family] += 1

    (data,) = EQUAL_ITINERARY_PAIR.values()
    check("one itinerary", *_replayed_pair(data))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def genus2(data):
        check("genus2", *_draw_genus2_pair(data))

    genus2()
    assert checked["one itinerary"] and checked["genus2"], checked


def _counting_fractions(monkeypatch) -> list:
    """The arguments of every Fraction made from now on."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_a_twist_of_a_pair_in_minimal_position_makes_one_fraction_per_image_event(
        monkeypatch):
    # the pairs of the test above, twisted both ways and twice: the image is
    # laid out on int keys and born renormalized, so its final positions
    # are the only Fractions made (the Fraction layout also made b's joint
    # positions, one per spiral point and one per image event again)
    t = build_preset("torus").surface
    g = build_preset("genus2_closed").curves
    pairs = [(torus_curve(t, 2, 1), torus_curve(t, 3, 5)), (g["a1"], g["dual1"])]
    twists = [(a, n, b) for a, b in pairs for n in (1, -2)]
    for a, n, b in twists:
        apply_twist(a, n, b)  # each curve sorts its points, and its topology
    made = _counting_fractions(monkeypatch)
    for a, n, b in twists:
        image = apply_twist(a, n, b)
        assert len(image.events) > len(b.events)
        assert len(made) == len(image.events)
        made.clear()


def test_a_warm_bench_pass_closes_up_on_int_keys(monkeypatch):
    # factorize-words at seed 3, on warm curves: no curve is renormalized,
    # not even for its identity (canonical_key reads ranks), every Fraction
    # is a final position made where a curve is born
    # (EmbeddedCurve._from_keys), and the pass makes at most 8,000 of them
    # (33,091 with the Fraction layout, 21,802 while the slide, the reroute
    # and the splice kept it, 17,956 while canonical_key renormalized,
    # 16,842 while every slide and reroute bore its pair; 7,563 since they
    # build the next arrangement from their keys)
    ops = WORKLOADS.build("factorize-words", 3).ops
    _run_pass(ops)
    renormalized, makers, sweeps = Counter(), Counter(), []
    renormalize, new = EmbeddedCurve.renormalized, Fraction.__new__
    sweep = twisting._drop_reducible_pairs

    def counting_renormalize(self):
        renormalized[sys._getframe(1).f_code.co_name] += 1
        return renormalize(self)

    def counting_new(cls, *args, **kwargs):
        makers[sys._getframe(1).f_code.co_qualname] += 1
        return new(cls, *args, **kwargs)

    def counting_sweep(events):
        sweeps.append(len(events))
        return sweep(events)

    monkeypatch.setattr(EmbeddedCurve, "renormalized", counting_renormalize)
    monkeypatch.setattr(twisting, "_drop_reducible_pairs", counting_sweep)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    _run_pass(ops)
    assert len(sweeps) > 300  # every twist and surgery closed up
    assert not renormalized, renormalized
    assert list(makers) == ["EmbeddedCurve._from_keys"], makers
    assert sum(makers.values()) <= 8_000


def _assert_slots_name_their_darts(curves):
    """Each crossing sits once on each of its two chords, at its slot, and
    leaves that chord forward by the dart its rank names."""
    system = JointSystem(curves[0].surface, curves)
    seen = sorted(node for stops in system._stops for hits in stops for node in hits)
    assert seen == sorted(2 * list(range(len(system.crossings))))
    for x in system.crossings:
        for ci in (x.curve_i, x.curve_j):
            gap, rank = system.slot(ci, x)
            assert system._stops[ci][gap][rank] == x.node
            assert system._node(system._chord_first[ci][gap] + 2 * rank + 2) == x.node


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_slots_name_their_darts_on_preset_pairs(name):
    curves = list(dict.fromkeys(build_preset(name).curves.values()))
    for pair in itertools.combinations(curves, 2):
        _assert_slots_name_their_darts(pair)


def test_slots_name_their_darts_on_pants_curves_and_one_more():
    ps = build_preset("genus2_closed")
    interior = ps.pants.interior_curves
    for c in dict.fromkeys(ps.curves.values()):
        if c not in interior:
            _assert_slots_name_their_darts((*interior, c))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_slots_name_their_darts_on_genus2_pairs(data):
    _assert_slots_name_their_darts(_draw_genus2_pair(data))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_pair_order_matches_the_parabola_on_preset_systems(name):
    for curves in _systems(name):
        assert_matches_the_parabola(curves)


def test_pair_order_matches_the_parabola_on_chain_curves():
    g = build_preset("genus2_closed").curves
    for r in range(5):
        for name in CHAIN_PARTNERS:
            assert_matches_the_parabola((g[name], _chain(r)))
            assert_matches_the_parabola((_chain(r), g[name]))


@functools.lru_cache(maxsize=None)
def _essential_names(name):
    return sorted(n for n, c in build_preset(name).curves.items() if is_essential(c))


def _draw_twisted_pair(data, names=PRESET_NAMES):
    """A preset curve a and the image b of one under a word of <= 4 twists,
    on one of the presets `names`."""
    name = data.draw(st.sampled_from(names), label="preset")
    g = build_preset(name).curves
    pick = st.sampled_from(_essential_names(name))
    word = data.draw(st.lists(st.tuples(pick, st.sampled_from((1, -1))), max_size=4),
                     label="word")
    a, b = g[data.draw(pick, label="a")], g[data.draw(pick, label="b")]
    for axis, k in word:
        b = apply_twist(g[axis], k, b)
    return a, b


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_pair_order_matches_the_parabola_on_twisted_curves(data):
    a, b = _draw_twisted_pair(data)
    assert_matches_the_parabola((b,))
    assert_matches_the_parabola((a, b))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a, b):
    """Merge the classes of a and b; 1 if they were apart, else 0."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return 0
    parent[ra] = rb
    return 1


def _reference_regions(system):
    """Reference regions phase: a union-find over corners.

    A corner is named by the dart leaving it, so a dart arrives at the
    corner its successor in the cell leaves.  Gluing a to b identifies the
    corner a leaves with the one b arrives at, and the other way round;
    each merge of two corner classes lowers V by one.  phi is read back
    off the cells, which are its orbits, and the gluing off the partners.
    """
    partner, cells, cell_of = system._partner, system._cells, system._cell_of
    n_darts = len(partner)
    phi = [-1] * n_darts
    for cycle in cells:
        for k, d in enumerate(cycle):
            phi[d] = cycle[(k + 1) % len(cycle)]
    glued = [(a, b) for a, b in enumerate(partner) if a < b]

    cell_parent = list(range(len(cells)))
    for a, b in glued:
        _union(cell_parent, cell_of[a], cell_of[b])
    groups = {}
    for cidx in range(len(cells)):
        groups.setdefault(_find(cell_parent, cidx), []).append(cidx)
    region_of_cell = [0] * len(cells)
    for ridx, root in enumerate(sorted(groups)):
        for cidx in groups[root]:
            region_of_cell[cidx] = ridx

    corner = list(range(n_darts))
    merges = [0] * len(groups)
    glued_pairs = [0] * len(groups)
    for a, b in glued:
        ridx = region_of_cell[cell_of[a]]
        glued_pairs[ridx] += 1
        merges[ridx] += _union(corner, a, phi[b]) + _union(corner, phi[a], b)

    regions = []
    seen = set()
    for ridx, root in enumerate(sorted(groups)):
        cell_idxs = groups[root]
        n_region = sum(len(cells[cidx]) for cidx in cell_idxs)
        unglued = sorted(d for cidx in cell_idxs for d in cells[cidx] if partner[d] < 0)
        chi = (n_region - merges[ridx]) - (glued_pairs[ridx] + len(unglued)) + len(cell_idxs)
        # at each boundary corner class exactly one unglued dart departs
        out_at = {}
        for did in unglued:
            key = _find(corner, did)
            assert key not in out_at
            out_at[key] = did
        circuits = []
        for did in unglued:
            if did in seen:
                continue
            circuit = []
            d = did
            while d not in seen:
                seen.add(d)
                circuit.append(d)
                d = out_at[_find(corner, phi[d])]
            assert d == did
            circuits.append(tuple(circuit))
        regions.append(Region(index=ridx, chi=chi, circuits=tuple(circuits)))
    return tuple(regions), region_of_cell


def _assert_regions_match_the_reference(curves):
    system = JointSystem(curves[0].surface, curves)
    regions, region_of_cell = _reference_regions(system)
    assert system.regions == regions
    assert system.region_of_cell == region_of_cell


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_regions_match_the_reference_on_preset_systems(name):
    for curves in _systems(name):
        _assert_regions_match_the_reference(curves)


def test_regions_match_the_reference_on_chain_curves():
    g = build_preset("genus2_closed").curves
    for r in range(5):
        for name in CHAIN_PARTNERS:
            _assert_regions_match_the_reference((g[name], _chain(r)))
            _assert_regions_match_the_reference((_chain(r), g[name]))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_regions_match_the_reference_on_twisted_curves(data):
    a, b = _draw_twisted_pair(data)
    _assert_regions_match_the_reference((b,))
    _assert_regions_match_the_reference((a, b))
