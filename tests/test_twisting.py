"""Twist surgery against the flat-square oracle and the genus-2 system.

On the square torus a twist acts on slope classes by
D_{(p,q)}^n(r,s) = (r,s) + n(ps - qr)(p,q); every surgery result below is
checked against that formula in homology and by exact isotopy class.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit import overlay, twisting
from dehnkit.calculus import is_essential
from dehnkit.errors import ComputationError, PreconditionError, ValidationError
from dehnkit.factorization import factorize, fix_orientation
from dehnkit.overlay import curves_isotopic, geometric_intersection_number
from dehnkit.presets import PRESET_NAMES, build_preset, homology_class, torus_curve
from dehnkit.surface import TOPOLOGY_KEY, CellSurface, EmbeddedCurve
from dehnkit.twisting import TwistWord, apply_twist, apply_word
from fraction_layout import reference_twist, rescanning_sweep
from test_engine import _draw_twisted_pair

gin = geometric_intersection_number

SLOPES = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]


def tc(surface, p, q):
    return torus_curve(surface, p, q)


class TestTorusOracle:
    def test_twist_action_on_slopes(self):
        t = build_preset("torus").surface
        for p, q in SLOPES:
            for r, s in SLOPES:
                k = p * s - q * r
                for n in (-2, -1, 1, 2):
                    img = apply_twist(tc(t, p, q), n, tc(t, r, s))
                    want = (r + n * k * p, s + n * k * q)
                    assert homology_class(t, img) == want
                    assert curves_isotopic(
                        img, tc(t, *want).with_orientation(True)
                    )

    def test_pinned_basic_twist(self):
        t = build_preset("torus").surface
        img = apply_twist(tc(t, 1, 0), 1, tc(t, 0, 1))
        assert homology_class(t, img) == (1, 1)

    def test_high_exponents(self):
        t = build_preset("torus").surface
        for n in (-5, -3, 3, 5):
            img = apply_twist(tc(t, 1, 0), n, tc(t, 0, 1))
            assert homology_class(t, img) == (n, 1)
            assert curves_isotopic(img, tc(t, n, 1).with_orientation(True))

    def test_mirrored_surface_twists_the_other_way(self):
        # the square torus's face reversed, every slot sign negated
        tm = CellSurface(((("v", 1), ("h", 1), ("v", -1), ("h", -1)),))
        img = apply_twist(tc(tm, 1, 0), 1, tc(tm, 0, 1))
        assert curves_isotopic(img, tc(tm, -1, 1).with_orientation(True))


class TestTwistBasics:
    def test_zero_power_is_identity(self):
        g2 = build_preset("genus2_closed")
        assert apply_twist(g2.curves["a1"], 0, g2.curves["t1"]) is g2.curves["t1"]

    def test_core_curve_fixed(self):
        g2 = build_preset("genus2_closed")
        a = g2.curves["a1"]
        assert curves_isotopic(apply_twist(a, 1, a), a)

    def test_disjoint_curve_fixed(self):
        g2 = build_preset("genus2_closed")
        img = apply_twist(g2.curves["a1"], 3, g2.curves["a2"])
        assert curves_isotopic(img, g2.curves["a2"])

    def test_non_essential_rejected(self):
        oh = build_preset("one_holed_torus")
        with pytest.raises(PreconditionError):
            apply_twist(oh.curves["bp1"], 1, oh.curves["a1"])

    @pytest.mark.parametrize("n", (1.0, "1", True, None))
    def test_a_power_that_is_no_int_is_refused(self, n):
        # 1.0 and "1" raised a bare TypeError, and True twisted once
        g2 = build_preset("genus2_closed")
        with pytest.raises(PreconditionError, match="is not an int"):
            apply_twist(g2.curves["a1"], n, g2.curves["t1"])

    def test_surface_mismatch_rejected(self):
        t = build_preset("torus").surface
        g2 = build_preset("genus2_closed")
        with pytest.raises(PreconditionError):
            apply_twist(tc(t, 1, 0), 1, g2.curves["a1"])

    def test_inverse_round_trip(self):
        g2 = build_preset("genus2_closed")
        pairs = [
            (g2.curves["a1"], g2.curves["dual1"]),
            (g2.curves["t1"], g2.curves["dual1"]),
            (g2.curves["dual1"], g2.curves["t1"]),
        ]
        for core, target in pairs:
            for n in (1, 2):
                rt = apply_twist(core, -n, apply_twist(core, n, target))
                assert curves_isotopic(
                    rt.with_orientation(True), target.with_orientation(True)
                )


class TestGrowth:
    def test_linear_in_crossing_count_when_crossing_once(self):
        # one strand per power: I(D_a^n(b), b) = |n| I(a,b) when I(a,b) = 1
        g2 = build_preset("genus2_closed")
        t1, a1 = g2.curves["t1"], g2.curves["a1"]
        for n in range(-5, 6):
            if n == 0:
                continue
            img = apply_twist(t1, n, a1)
            assert gin(img, a1) == abs(n)

    def test_quadratic_factor_when_crossing_twice(self):
        # each of the I(a,b) strands winds |n| times and re-crosses b along
        # every parallel copy, so the count is |n| I(a,b)^2, not |n| I(a,b)
        g2 = build_preset("genus2_closed")
        a1, d1 = g2.curves["a1"], g2.curves["dual1"]
        assert gin(a1, d1) == 2
        for n in (-3, -1, 1, 2, 4):
            img = apply_twist(a1, n, d1)
            assert gin(img, d1) == abs(n) * 4

    def test_crossing_count_with_core_is_preserved(self):
        g2 = build_preset("genus2_closed")
        a1, d1 = g2.curves["a1"], g2.curves["dual1"]
        for n in (-2, 1, 3):
            assert gin(apply_twist(a1, n, d1), a1) == 2

    def test_torus_growth(self):
        t = build_preset("torus").surface
        a, b = tc(t, 1, 0), tc(t, 0, 1)
        img = apply_twist(a, 3, b)
        assert gin(img, b) == 3


class TestWords:
    def test_empty_word_is_identity(self):
        g2 = build_preset("genus2_closed")
        c = g2.curves["dual1"]
        assert apply_word(TwistWord(()), c) is c

    def test_word_inverse_round_trip(self):
        g2 = build_preset("genus2_closed")
        w = TwistWord(((g2.curves["a1"], 1), (g2.curves["t1"], -2)))
        c = g2.curves["dual1"].with_orientation(True)
        back = apply_word(w + w.inverse(), c)
        assert curves_isotopic(back, c)

    def test_match_convention(self):
        # crossing once lets two positive twists carry one curve to the other
        t = build_preset("torus").surface
        a, b = tc(t, 1, 0), tc(t, 0, 1)
        img = apply_word(TwistWord(((a, 1), (b, 1))), b.with_orientation(True))
        assert curves_isotopic(img, a.with_orientation(True))
        g2 = build_preset("genus2_closed")
        a1, t1 = g2.curves["a1"], g2.curves["t1"]
        img2 = apply_word(TwistWord(((a1, 1), (t1, 1))), t1.with_orientation(True))
        assert curves_isotopic(img2, a1.with_orientation(True))

    def test_reversed_roles_flip_orientation(self):
        t = build_preset("torus").surface
        a, b = tc(t, 1, 0), tc(t, 0, 1)
        img = apply_word(TwistWord(((b, 1), (a, 1))), a.with_orientation(True))
        assert curves_isotopic(img, b.with_orientation(True).reverse())
        assert not curves_isotopic(img, b.with_orientation(True))

    def test_naturality(self):
        # conjugation: w then twisting along a equals twisting along w(a)
        g2 = build_preset("genus2_closed")
        a1, d1, t1 = g2.curves["a1"], g2.curves["dual1"], g2.curves["t1"]
        w = TwistWord(((t1, 1),))
        lhs = apply_word(w, apply_twist(a1, 1, d1))
        rhs = apply_twist(apply_word(w, a1), 1, apply_word(w, d1))
        assert curves_isotopic(lhs, rhs)

    def test_validation(self):
        g2 = build_preset("genus2_closed")
        with pytest.raises(PreconditionError):
            TwistWord(((g2.curves["a1"], 0),))
        oh = build_preset("one_holed_torus")
        with pytest.raises(PreconditionError):
            TwistWord(((oh.curves["bp1"], 1),))
        with pytest.raises(PreconditionError):
            TwistWord(((g2.curves["a1"], 1), (oh.curves["a1"], 1)))

    def test_word_helpers(self):
        g2 = build_preset("genus2_closed")
        w = TwistWord(((g2.curves["a1"], 2), (g2.curves["t1"], -1)))
        assert not w.is_positive
        assert w.twist_count == 3
        assert len(w) == 2
        assert w.inverse().letters == (
            (g2.curves["t1"], 1),
            (g2.curves["a1"], -2),
        )
        assert TwistWord(((g2.curves["a1"], 1),)).is_positive


class TestSystemAction:
    def test_twist_fixes_disjoint_system(self):
        g2 = build_preset("genus2_closed")
        pants = g2.pants.pants_curves
        w = TwistWord(((g2.curves["a1"], 1),))
        imgs = [apply_word(w, c) for c in pants]
        assert all(curves_isotopic(i, c) for i, c in zip(imgs, pants))

    def test_dual_twist_moves_only_its_curve(self):
        g2 = build_preset("genus2_closed")
        pants = g2.pants.pants_curves
        w = TwistWord(((g2.curves["dual1"], 1),))
        imgs = [apply_word(w, c) for c in pants]
        moved = [not curves_isotopic(i, c) for i, c in zip(imgs, pants)]
        assert moved == [True, False, False]


def _fixes_each(w, filling):
    """Does w send every curve of the system, oriented, to an isotopic one?

    On a filling system that is the identity test of the Alexander method;
    tests/test_presets.py checks that the systems used here fill.
    """
    return all(
        curves_isotopic(apply_word(w, c.with_orientation(True)), c.with_orientation(True))
        for c in filling
    )


class TestIdentityOnSystem:
    def filling(self):
        g2 = build_preset("genus2_closed")
        return g2, list(g2.pants.pants_curves) + list(g2.pants.dual_curves)

    def test_empty_word(self):
        _, filling = self.filling()
        assert _fixes_each(TwistWord(()), filling)

    def test_uncollapsed_inverse_pair(self):
        g2, filling = self.filling()
        w = TwistWord(((g2.curves["a1"], 1), (g2.curves["a1"], -1)))
        assert _fixes_each(w, filling)

    def test_single_twist_is_not_identity(self):
        g2, filling = self.filling()
        assert not _fixes_each(TwistWord(((g2.curves["a1"], 1),)), filling)

    def test_boundary_surface_filling(self):
        oh = build_preset("one_holed_torus")
        filling = [oh.curves["a1"], oh.curves["dual1"], oh.curves["bp1"]]
        assert _fixes_each(TwistWord(()), filling)
        assert not _fixes_each(TwistWord(((oh.curves["a1"], 1),)), filling)


def _twist_sweep_inputs(monkeypatch):
    """Keyed event lists apply_twist hands to the sweep.

    Preset twists alone leave little to sweep; the factorizations of two
    genus-2 letters twist along the long curves reduction finds, whose
    images carry hundreds of reducible pairs.
    """
    seen = []
    sweep = twisting._drop_reducible_pairs

    def recording(events):
        seen.append(list(events))
        return sweep(events)

    monkeypatch.setattr(twisting, "_drop_reducible_pairs", recording)
    for name in PRESET_NAMES:
        ps = build_preset(name)
        curves = [c for c in dict.fromkeys(ps.curves.values()) if is_essential(c)]
        for a in curves:
            for b in curves:
                for n in (1, -1, 2):
                    apply_twist(a, n, b)
    g2 = build_preset("genus2_closed")
    for name, k in (("t1", -1), ("dual3", 1)):
        factorize(TwistWord(((g2.curve(name), k),)), g2.pants)
    monkeypatch.undo()
    return seen


def test_indexed_sweep_matches_the_rescanning_one(monkeypatch):
    inputs = _twist_sweep_inputs(monkeypatch)
    assert len(inputs) > 100
    # every point is laid out with an int key, never a Fraction
    assert all(type(k) is int for events in inputs for _, _, k in events)
    removed = 0
    for events in inputs:
        want = rescanning_sweep(events)
        assert twisting._drop_reducible_pairs(events) == want
        removed += len(events) - len(want)
    assert removed > 400  # the inputs exercise the sweep, not just pass it


@pytest.mark.parametrize("blocker, want", [
    # a key equal to an end of a pair's span does not block it, nor do a
    # pair's own tied keys; the b pair then goes, and two events are left
    ((), [("a", -1, 2), ("c", 1, 1)]),
    # a key strictly inside the span of the a pair blocks it for good
    ((("a", 1, 4),), [("a", 1, 2), ("a", -1, 6), ("a", -1, 2), ("c", 1, 1),
                      ("a", 1, 4)]),
])
def test_the_sweep_on_tied_keys(blocker, want):
    events = [("a", 1, 2), ("a", -1, 6), ("a", -1, 2), ("b", 1, 5), ("b", -1, 5),
              ("c", 1, 1), *blocker]
    assert rescanning_sweep(events) == want
    assert twisting._drop_reducible_pairs(events) == want


def test_a_collapsed_twist_image_carries_its_inputs(monkeypatch):
    t = build_preset("torus").surface
    a, b = tc(t, 1, 0), tc(t, 0, 1)
    monkeypatch.setattr(
        twisting, "_drop_reducible_pairs", lambda events: [("h", 1, 4), ("h", -1, 4)]
    )
    with pytest.raises(ComputationError) as raised:
        apply_twist(a, 2, b)
    assert str(raised.value) == "twist image collapsed to a trivial circle (power 2)"
    assert raised.value.surface is t and raised.value.curves == (a, b)


def test_a_twist_image_that_does_not_close_up_replays_from_its_json(monkeypatch):
    # when the sweep leaves a key twice on an edge the image is no
    # embedded curve: the close-up raises a ComputationError, not a bare
    # ValidationError, and the (a, b) it carries reproduces it
    t = build_preset("torus").surface
    a, b = tc(t, 1, 0), tc(t, 1, 2)
    monkeypatch.setattr(
        twisting, "_drop_reducible_pairs", lambda events: [*events, events[0]]
    )
    with pytest.raises(ComputationError, match="did not close up") as raised:
        apply_twist(a, 2, b)
    err = raised.value
    assert isinstance(err.__cause__, ValidationError)
    assert "repeated crossing point" in str(err)
    data = err.replay_json()
    surface = CellSurface.from_json(data["surface"])
    a2, b2 = (EmbeddedCurve.from_json(surface, c) for c in data["curves"])
    assert (a2, b2) == (a.renormalized(), b.renormalized())
    with pytest.raises(ComputationError) as replayed:
        apply_twist(a2, 2, b2)
    assert str(replayed.value) == str(err)


@functools.lru_cache(maxsize=None)
def _essential_names(name):
    return sorted(n for n, c in build_preset(name).curves.items() if is_essential(c))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_twist_images_inherit_the_topology_of_a_fresh_copy(data):
    # a twist is a homeomorphism, so each image keeps the topology of the
    # curve it was made from; a fresh copy, with no cache, computes its own
    name = data.draw(st.sampled_from(PRESET_NAMES), label="preset")
    g = build_preset(name).curves
    pick = st.sampled_from(_essential_names(name))
    word = data.draw(st.lists(st.tuples(pick, st.sampled_from((1, -1, 2, -2))),
                              min_size=1, max_size=3), label="word")
    c = g[data.draw(pick, label="start")]
    for axis, k in word:
        c = apply_twist(g[axis], k, c)
        inherited = c.__dict__[TOPOLOGY_KEY]
        fresh = EmbeddedCurve(c.surface, c.events, oriented=c.oriented)
        assert TOPOLOGY_KEY not in fresh.__dict__
        assert overlay._curve_topology(fresh) == inherited


@pytest.mark.parametrize("name, axis, target", [
    ("torus", "x", "y"),
    ("one_holed_torus", "a1", "dual1"),
    ("four_holed_sphere", "dual1", "a1"),
    ("genus2_closed", "t1", "dual1"),
])
def test_a_twist_image_needs_no_topology_build(monkeypatch, name, axis, target):
    g = build_preset(name).curves
    image = apply_twist(g[axis], 1, g[target])
    assert geometric_intersection_number(image, g[target]) > 0
    sizes = []
    build = overlay.JointSystem.__init__

    def counting(self, surface, curves):
        sizes.append(len(curves))
        build(self, surface, curves)

    monkeypatch.setattr(overlay.JointSystem, "__init__", counting)
    assert is_essential(image)
    assert sizes.count(1) == 0


def _crossing_once_pairs(name):
    g = build_preset(name).curves
    names = _essential_names(name)
    return [(a, p) for a in names for p in names
            if geometric_intersection_number(g[a], g[p]) == 1]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_apply_word_matches_a_letter_by_letter_fold(data):
    # apply_word skips a letter whose axis, the same object, has already left
    # the current curve as it is; twisting letter by letter skips nothing
    name = data.draw(st.sampled_from(PRESET_NAMES), label="preset")
    g = build_preset(name).curves
    pick = st.sampled_from(_essential_names(name))
    letters = data.draw(st.lists(st.tuples(pick, st.sampled_from((1, -1))),
                                 max_size=3), label="letters")
    pairs = _crossing_once_pairs(name)
    if pairs and data.draw(st.booleans(), label="orientation word"):
        a, p = data.draw(st.sampled_from(pairs), label="a, partner")
        letters += [(a, 1), (p, 1), (a, 1), (a, 1), (p, 1), (a, 1)]
    word = TwistWord(tuple((g[n], k) for n, k in letters))
    c = g[data.draw(pick, label="start")]
    c = c.with_orientation(data.draw(st.booleans(), label="oriented"))
    folded = functools.reduce(lambda cur, letter: apply_twist(*letter, cur),
                              word.letters, c)
    image = apply_word(word, c)
    assert (image.events, image.oriented) == (folded.events, folded.oriented)


def test_the_orientation_word_on_a_curve_it_misses_builds_twice(monkeypatch):
    # a3 misses a1 and t1: once a twist along each has left it as it is,
    # the other four letters of (a1, t1, a1, a1, t1, a1) are skipped
    g = build_preset("genus2_closed").curves
    word = fix_orientation(g["a1"], g["t1"])
    target = g["a3"].with_orientation(True)
    assert all(is_essential(c) for c in (g["a1"], g["t1"], target))
    sizes = []
    build = overlay.JointSystem.__init__

    def counting(self, surface, curves):
        sizes.append(len(curves))
        build(self, surface, curves)

    monkeypatch.setattr(overlay.JointSystem, "__init__", counting)
    assert apply_word(word, target) is target
    assert len(sizes) <= 2


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_twist_images_match_the_fraction_layout(data):
    # the int keys order every edge's points as the Fraction layout's
    # positions do, so the images agree event for event, in either order
    # of a pair
    a, b = _draw_twisted_pair(data)
    n = data.draw(st.sampled_from((1, -1, 2, -2, 3, -3)), label="power")
    for axis, target in ((a, b), (b, a)):
        got, want = apply_twist(axis, n, target), reference_twist(axis, n, target)
        assert (got.events, got.oriented) == (want.events, want.oriented)
