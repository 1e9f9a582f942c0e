"""Strict-descent reduction by positive twists.

The torus gives exact expectations: against the horizontal curve, slope (p,q)
starts at |q| crossings and must land in a terminal class within |q| positive
letters. Genus-2 pairs built from twist words exercise both surgery shapes,
including the alternating-sign states where no two adjacent crossings agree.
A splice at a crossing and the next one along a is reduced by surgery, and
that image is checked event for event against the twist it replaces, up to
where its itinerary starts, for both signs and both orientations; its sweep
takes only the short list, and its int-keyed layout gives the image of
the Fraction layout it replaced (fraction_layout), event for event.  On
the bench's torus slopes and genus-2
chain, a surgery step builds no arrangement, and a twist step meets its
curve in minimal position as built: one arrangement, no darts phase.  A
step that does not descend, or whose surgery does not close up, raises an
error that replays from its JSON.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit import reduction, twisting
from dehnkit.calculus import classify_pair, is_essential
from dehnkit.errors import ComputationError, ValidationError
from dehnkit.overlay import JointSystem, geometric_intersection_number
from dehnkit.presets import build_preset, torus_curve
from dehnkit.reduction import reduce_pair
from dehnkit.surface import CellSurface, EmbeddedCurve
from dehnkit.twisting import TwistWord, apply_twist, apply_word

from bench_modules import load_bench_module
from fraction_layout import reference_surgery
from test_engine import _draw_genus2_pair, _draw_twisted_pair

WORKLOADS = load_bench_module("workloads")


@pytest.fixture(scope="module")
def torus():
    return build_preset("torus")


@pytest.fixture(scope="module")
def genus2():
    return build_preset("genus2_closed")


def _reduction_curve(a, b):
    """The curve of the first reduction step of (a, b)."""
    return reduce_pair(a, b)[0].letters[0][0]


class TestTerminalInputs:
    @pytest.mark.parametrize("a_name,b_name,tag", [
        ("a1", "a2", "disjoint"),
        ("a1", "t1", "one_point"),
        ("t1", "waist", "two_zero"),
    ])
    def test_reduce_pair_is_lenient(self, genus2, a_name, b_name, tag):
        # already-terminal pairs come back unchanged with an empty word
        a, b = genus2.curve(a_name), genus2.curve(b_name)
        word, b_fin, cls = reduce_pair(a, b)
        assert len(word) == 0
        assert b_fin is b
        assert cls.tag == tag


class TestSingleStep:
    def test_torus_example(self, torus):
        # (1,0) against (1,2): two equal-sign crossings, one twist settles it
        a = torus_curve(torus.surface, 1, 0)
        b = torus_curve(torus.surface, 1, 2)
        c = _reduction_curve(a, b)
        assert geometric_intersection_number(apply_twist(c, 1, b), a) < 2
        word, b_fin, cls = reduce_pair(a, b)
        assert len(word) == 1 and word.is_positive
        assert cls.tag == "one_point"

    def test_equal_sign_pair_one_letter(self, genus2):
        # both crossings of D_t^2(base) with base have the same sign; a
        # single positive twist lands the pair in a terminal class
        base = genus2.curve("t1")
        b = apply_twist(genus2.curve("a1"), 2, base)
        cls0 = classify_pair(base, b)
        assert (cls0.tag, cls0.count) == ("other", 2)
        word, b_fin, cls = reduce_pair(base, b)
        assert len(word) == 1
        assert cls.tag == "one_point"

    def test_descent_postcondition(self, genus2):
        base = genus2.curve("t1")
        b = apply_twist(genus2.curve("dual2"), 1, base)
        k = geometric_intersection_number(base, b)
        assert k == 4
        c = _reduction_curve(base, b)
        assert geometric_intersection_number(apply_twist(c, 1, b), base) < k

    def test_alternating_state(self, genus2):
        # five crossings with no two adjacent signs equal except the wrap,
        # then four fully alternating: exercises the far-pair splice
        t1, d2 = genus2.curve("t1"), genus2.curve("dual2")
        w = TwistWord(((t1, -1), (d2, -1), (t1, 1)))
        a = genus2.curve("a1")
        b = apply_word(w, t1)
        cls0 = classify_pair(a, b)
        assert cls0.count == 5
        word, b_fin, cls = reduce_pair(a, b)
        assert word.is_positive
        assert len(word) <= 5
        assert cls.tag == "disjoint"

    def test_curve_size_is_bounded(self, genus2):
        base = genus2.curve("t1")
        b = apply_twist(genus2.curve("dual2"), 1, base)
        c = _reduction_curve(base, b)
        assert len(c.events) <= len(base.events) + len(b.events) + 2


class TestReducePair:
    @pytest.mark.parametrize("p,q", [(1, 3), (2, 5), (3, 7), (5, 8)])
    def test_torus_slopes(self, torus, p, q):
        a = torus_curve(torus.surface, 1, 0)
        b = torus_curve(torus.surface, p, q)
        word, b_fin, cls = reduce_pair(a, b)
        assert word.is_positive
        assert len(word) <= q
        assert cls.tag == "one_point"
        assert cls == classify_pair(a, b_fin)
        assert apply_word(word, b) == b_fin

    def test_strict_descent_along_the_way(self, genus2):
        t1, d2 = genus2.curve("t1"), genus2.curve("dual2")
        a = genus2.curve("a1")
        b = apply_word(TwistWord(((t1, -1), (d2, -1), (t1, 1))), t1)
        word, b_fin, _ = reduce_pair(a, b)
        counts = [geometric_intersection_number(a, b)]
        cur = b
        for c, n in word.letters:
            assert n == 1
            cur = apply_twist(c, n, cur)
            counts.append(geometric_intersection_number(a, cur))
        assert all(lo < hi for lo, hi in zip(counts[1:], counts))
        assert counts[-1] == geometric_intersection_number(a, b_fin)

    def test_random_words_genus2(self, genus2):
        names = ["a1", "a2", "a3", "t1", "t2", "dual2"]
        gens = {n: genus2.curve(n) for n in names}
        rng = random.Random(11)
        done = 0
        while done < 6:
            letters = tuple(
                (gens[rng.choice(names)], rng.choice([-1, 1]))
                for _ in range(rng.randint(2, 4))
            )
            a = gens[rng.choice(names)]
            b = apply_word(TwistWord(letters), gens[rng.choice(names)])
            cls0 = classify_pair(a, b)
            if cls0.tag != "other" or cls0.count > 8:
                continue
            done += 1
            word, b_fin, cls = reduce_pair(a, b)
            assert word.is_positive
            assert len(word) <= cls0.count
            assert cls.tag in ("disjoint", "one_point", "two_zero")
            assert cls == classify_pair(a, b_fin)

    def test_boundary_surface(self):
        fh = build_preset("four_holed_sphere")
        a, d = fh.curve("a1"), fh.curve("dual1")
        b = apply_word(TwistWord(((d, 1), (a, -1), (d, 1))), a)
        cls0 = classify_pair(a, b)
        assert cls0.tag == "other"
        word, b_fin, cls = reduce_pair(a, b)
        assert word.is_positive
        assert len(word) <= cls0.count
        assert cls.tag in ("disjoint", "one_point", "two_zero")


@st.composite
def steep_slopes(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.integers(min_value=2, max_value=7))
    if math.gcd(p, q) != 1:
        return (1, 2)
    return (p, q)


class TestRandomSlopes:
    @given(pq=steep_slopes())
    @settings(max_examples=12, deadline=None)
    def test_always_lands_terminal(self, pq):
        t = build_preset("torus")
        a = torus_curve(t.surface, 1, 0)
        b = torus_curve(t.surface, *pq)
        word, b_fin, cls = reduce_pair(a, b)
        assert word.is_positive
        assert len(word) <= pq[1]
        assert cls.tag == "one_point"


def test_each_adjacent_splice_resolves_to_exactly_its_twist_image():
    # The surgery checked against the twist it replaces.  At every step of
    # reduce_pair, every usable splice at a crossing X and the next one Y
    # along a is reduced by surgery to exactly the events of
    # apply_twist(c, 1, curve 1 of the step's arrangement), exact positions
    # and orientation flag included, with the itinerary possibly started at
    # another event: the surgery sweeps a shorter list than the twist.  Both
    # orientations of a pair are checked: the short way round, listed
    # first, and the far side, listed second, which passes no other
    # crossing when a crosses b twice.  On the torus, 1/0 against 1/3 and
    # its reverse, and on genus 2, t1 against T_a1^(+-2) t1, give both signs
    # and both orientations, and each family must take the surgery path in
    # a step, or the oracle checks nothing; hypothesis torus and genus-2
    # draws add breadth, and may draw pairs with no such splice.
    checked, taken = Counter(), Counter()
    step, image_of = reduction._reduction_step, reduction._twist_image
    family = [None]

    def checking(a, b, system):
        pairs = reduction._pair_priority(system.crossing_order_along(0))
        for i, (x, y, adjacent) in enumerate(pairs):
            if not adjacent:
                continue
            try:
                (c,) = EmbeddedCurve._from_keys(
                    a.surface, [(reduction._candidate_events(system, x, y), False)])
            except ValidationError:
                continue
            if not is_essential(c):
                continue
            c_pair, curve = reduction._twist_pair(a, b, system, c, x, y)
            want = apply_twist(c_pair, 1, curve)
            got = image_of(a, b, system, c, x, y, True)
            assert got.oriented == want.oriented
            rotations = [want.events[r:] + want.events[:r] for r in range(len(want.events))]
            assert got.events in rotations, (got, want)
            checked[family[0], x.sign, "short" if i % 2 == 0 else "far"] += 1
        return step(a, b, system)

    def recording(a, b, system, c, x, y, adjacent):
        taken[family[0]] += adjacent
        return image_of(a, b, system, c, x, y, adjacent)

    def run(name, a, b):
        family[0] = name
        reduce_pair(a, b)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def torus_draws(data):
        run("torus draws", *_draw_twisted_pair(data, ("torus",)))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def genus2_draws(data):
        run("genus2 draws", *_draw_genus2_pair(data))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_reduction_step", checking)
        patch.setattr(reduction, "_twist_image", recording)
        t = build_preset("torus").surface
        b = torus_curve(t, 1, 3)
        for curve in (b, b.reverse()):
            run("torus", torus_curve(t, 1, 0), curve)
        g = build_preset("genus2_closed").curves
        for k in (2, -2):
            run("genus2", g["t1"], apply_twist(g["a1"], k, g["t1"]))
        both = {(sign, side) for sign in (1, -1) for side in ("short", "far")}
        for name in ("torus", "genus2"):
            assert {key[1:] for key in checked if key[0] == name} == both, checked
            assert taken[name], taken
        torus_draws()
        genus2_draws()


def test_surgery_images_match_the_fraction_layout():
    # every surgery image of a reduction, keyed by joint ranks (4k on b,
    # 4k + d on the a-arc copy), equals the image the same short list laid
    # out on Fractions beside the joint positions gives; the torus 1/0 against 1/3 and its
    # reverse, and genus-2 t1 against T_a1^(+-2) t1, give both signs.  A
    # long a, as 5/2, 8/3 or 13/5 against 1/0 or 0/1, makes long a-arc
    # copies that share edges with b; hypothesis draws on every preset, in
    # both orders, add breadth
    checked = Counter()
    image_of = reduction._twist_image

    def checking(a, b, system, c, x, y, adjacent):
        got = image_of(a, b, system, c, x, y, adjacent)
        if adjacent:
            want = reference_surgery(system, b, x, y)
            assert (got.events, got.oriented) == (want.events, want.oriented)
            checked[x.sign] += 1
        return got

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def draws(data):
        a, b = _draw_twisted_pair(data)
        reduce_pair(a, b)
        reduce_pair(b, a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_twist_image", checking)
        t = build_preset("torus").surface
        b = torus_curve(t, 1, 3)
        for curve in (b, b.reverse()):
            reduce_pair(torus_curve(t, 1, 0), curve)
        for p, q in ((5, 2), (8, 3), (13, 5)):
            for r, s in ((1, 0), (0, 1)):
                reduce_pair(torus_curve(t, p, q), torus_curve(t, r, s))
        g = build_preset("genus2_closed").curves
        for k in (2, -2):
            reduce_pair(g["t1"], apply_twist(g["a1"], k, g["t1"]))
        assert checked[1] and checked[-1], checked
        draws()


class TestEachPairSolvedOnce:
    """Work the reduction must not repeat; the counts come from monkeypatches."""

    def test_no_candidate_is_twisted_twice_in_a_step(self, torus, monkeypatch):
        # against 2/1, each of the two steps on 13/5 makes the image of the
        # one curve it builds
        steps = []
        step, image_of = reduction._reduction_step, reduction._twist_image

        def counting_step(*args):
            steps.append([])
            return step(*args)

        def counting_image(a, b, system, c, *args):
            steps[-1].append(c.canonical_key)
            return image_of(a, b, system, c, *args)

        monkeypatch.setattr(reduction, "_reduction_step", counting_step)
        monkeypatch.setattr(reduction, "_twist_image", counting_image)
        a = torus_curve(torus.surface, 2, 1)
        b = torus_curve(torus.surface, 13, 5)
        word, _, cls = reduce_pair(a, b)
        assert (len(word), cls.tag) == (2, "one_point")
        assert len(steps) == 2
        assert [len(keys) for keys in steps] == [1, 1]

    def test_each_pair_is_put_in_minimal_position_once(self, torus, monkeypatch):
        a = torus_curve(torus.surface, 2, 1)
        b = torus_curve(torus.surface, 13, 5)
        twisted = [b]
        builds = []
        image_of, init = reduction._twist_image, JointSystem.__init__

        def recording_image(*args):
            twisted.append(image_of(*args))
            return twisted[-1]

        def counting_init(self, surface, curves):
            builds.append(tuple(curves))
            init(self, surface, curves)

        monkeypatch.setattr(reduction, "_twist_image", recording_image)
        monkeypatch.setattr(JointSystem, "__init__", counting_init)
        word, b_fin, _ = reduce_pair(a, b)
        assert len(word) == 2 and b_fin in twisted
        for x in twisted:
            # a first build on (a, x) starts every minimal_position of the pair
            solved = sum(1 for cs in builds if cs[0] is a and cs[-1] is x)
            assert solved == 1


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("workload", ("torus-slopes", "g2-growth"))
def test_every_reduction_twist_meets_its_curve_in_minimal_position(
        workload, seed, monkeypatch):
    # The bench's torus slope list and genus-2 chain.  A step whose splice
    # runs to the next crossing along a builds its image by surgery: no
    # arrangement and no darts.  Any other step twists curve 1 of the
    # arrangement its splice was cut from, in that arrangement's frame: one
    # arrangement and no darts.  Twisting the caller's b instead peeled
    # bigons first in 43 of 67 torus twists and 3 of 4 chain twists at
    # seed 3, 46 and 1 at seed 0.  Both kinds of step must occur.
    counts = []  # adjacent, [builds, darts phases] of each image
    inside = []
    image_of, init, darts = reduction._twist_image, JointSystem.__init__, JointSystem._darts

    def counting_image(a, b, system, c, x, y, adjacent):
        counts.append((adjacent, [0, 0]))
        inside.append(True)
        try:
            return image_of(a, b, system, c, x, y, adjacent)
        finally:
            inside.pop()

    def counting_init(self, surface, curves):
        if inside:
            counts[-1][1][0] += 1
        init(self, surface, curves)

    def counting_darts(self, *args):
        if inside:
            counts[-1][1][1] += 1
        return darts(self, *args)

    monkeypatch.setattr(reduction, "_twist_image", counting_image)
    monkeypatch.setattr(JointSystem, "__init__", counting_init)
    monkeypatch.setattr(JointSystem, "_darts", counting_darts)
    for op in WORKLOADS.build(workload, seed).ops:
        assert op.check(op.run()) == []
    assert counts
    assert all(count == [0 if adjacent else 1, 0] for adjacent, count in counts), counts
    # every torus step is by surgery, every chain step by a twist
    assert {adjacent for adjacent, _ in counts} == {workload == "torus-slopes"}


def test_each_surgery_sweeps_only_its_short_list(monkeypatch):
    # The bench's torus slopes at seed 3, every step by surgery.  A surgery
    # sweeps the a-arc copy of its splice and b's complementary arc, the
    # part of b the splice's b-arc does not run beside: k + len(arc)
    # events, 738 over the pass.  Laying out the whole one-turn twist, all
    # of b with all of c after the cut, swept 1984.
    swept, expected = [], []
    image_of, sweep = reduction._twist_image, twisting._drop_reducible_pairs

    def counting_image(a, b, system, c, x, y, adjacent):
        assert adjacent
        x_to_y, y_to_x = system.arc(1, x, y), system.arc(1, y, x)
        expected.append(len(system.arc(0, x, y))
                        + len(y_to_x if x.sign > 0 else x_to_y))
        swept.append(0)
        return image_of(a, b, system, c, x, y, adjacent)

    def counting_sweep(events):
        swept[-1] += len(events)
        return sweep(events)

    monkeypatch.setattr(reduction, "_twist_image", counting_image)
    monkeypatch.setattr(twisting, "_drop_reducible_pairs", counting_sweep)
    for op in WORKLOADS.build("torus-slopes", 3).ops:
        assert op.check(op.run()) == []
    assert swept == expected
    assert (len(swept), sum(swept)) == (67, 738)


def _assert_replays(a, b, err):
    """The ComputationError raised carries (a, b), and its JSON replays it."""
    assert err.surface is a.surface and err.curves == (a, b)
    data = err.replay_json()
    surface = CellSurface.from_json(data["surface"])
    a2, b2 = (EmbeddedCurve.from_json(surface, c) for c in data["curves"])
    assert (a2, b2) == (a.renormalized(), b.renormalized())
    with pytest.raises(ComputationError) as replayed:
        reduce_pair(a2, b2)
    assert str(replayed.value) == str(err)


def test_a_step_that_fails_to_descend_replays_from_its_json(torus, monkeypatch):
    # an image that is b unchanged cannot descend; the step's error
    # carries (a, b), which reproduces it
    monkeypatch.setattr(reduction, "_twist_image", lambda a, b, *args: b)
    a = torus_curve(torus.surface, 1, 0)
    b = torus_curve(torus.surface, 1, 2)
    with pytest.raises(ComputationError, match="did not descend") as raised:
        reduce_pair(a, b)
    _assert_replays(a, b, raised.value)


def test_a_surgery_that_does_not_close_up_replays_from_its_json(torus, monkeypatch):
    # the splice at the two crossings of 1/0 and 1/2 is reduced by surgery;
    # when the sweep of the twist's close-up leaves a point twice on an
    # edge, the step raises at once, with no fall back to the twist, and its
    # error carries (a, b)
    monkeypatch.setattr(twisting, "_drop_reducible_pairs",
                        lambda events: [*events, events[0]])
    monkeypatch.setattr(reduction, "apply_twist", None)
    a = torus_curve(torus.surface, 1, 0)
    b = torus_curve(torus.surface, 1, 2)
    with pytest.raises(ComputationError, match="did not close up") as raised:
        reduce_pair(a, b)
    assert isinstance(raised.value.__cause__, ValidationError)
    _assert_replays(a, b, raised.value)
