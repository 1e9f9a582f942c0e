"""The constructed reduction step against the candidate search it replaced.

`_search_step` is the earlier reduction step, kept verbatim as a reference:
it ranks every crossing pair, tries up to sixteen splices per pair and
twists each essential one until a twist descends.  The step in `reduction`
builds one splice per orientation of a pair instead.  Run through
`reduce_pair`, both must give words of the same length that end in the same
terminal class, on twisted preset curves of every preset.  An input on
which the engine fails must fail with the same error either way, unless the
search fails on a candidate the construction never builds.

Three pairs are pinned.  Two have a-arcs of equal length both ways round: a
torus pair with two crossings, and genus-2 a1 against the chain curve
c_1 = T_t1 T_a2^-1 dual1, whose four crossings alternate.  In the third,
genus-2 a3 against T_dual3 T_dual1 dual2, 32 crossings alternate; the short
splice at the first pair does not embed, and the one round the far side
settles the pair in one letter, as the search does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit import reduction
from dehnkit.calculus import is_essential
from dehnkit.errors import ComputationError, DehnkitError, ValidationError
from dehnkit.overlay import geometric_intersection_number
from dehnkit.overlay import minimal_position as _joint_minimal_position
from dehnkit.presets import PRESET_NAMES, build_preset, torus_curve
from dehnkit.surface import EmbeddedCurve
from dehnkit.twisting import TwistWord, apply_twist, apply_word
from fraction_layout import beside, joint_events


def _candidate_events(system, x, y, a_fwd, b_fwd, sa, sb):
    """Splice: parallel a-arc from x to y, then parallel b-arc from y to x."""

    def copy(ci, start, end, fwd, side):
        idxs = system.arc(ci, start, end) if fwd else system.arc(ci, end, start)
        joint = joint_events(system, ci)
        part = [beside(system, joint[i], side, 4) for i in idxs]
        if not fwd:
            part = [(e, -d, pos) for e, d, pos in reversed(part)]
        return part

    return tuple(copy(0, x, y, a_fwd, sa) + copy(1, y, x, b_fwd, sb))


def _pair_priority(order_a):
    """Unordered crossing pairs, best surgery prospects first.

    Tier 0: adjacent along a with equal signs (splice one short arc of each).
    Tier 1: two apart with equal signs; when adjacent signs alternate this is
    the pair flanking the middle point of the alternating triple, and the
    splice through the far side is the curve that works there.
    Tier 2: everything else, as a safety net.
    """
    n = len(order_a)
    ranked = []
    for i in range(n):
        for d in range(1, n):
            j = (i + d) % n
            if j < i:
                continue
            x, y = order_a[i], order_a[j]
            dist = min(d, n - d)
            if dist == 1 and x.sign == y.sign:
                tier = 0
            elif dist == 2 and x.sign == y.sign:
                tier = 1
            else:
                tier = 2
            ranked.append((tier, i, d, x, y))
    ranked.sort(key=lambda r: r[:3])
    return [(x, y) for _, _, _, x, y in ranked]


def _search_step(a: EmbeddedCurve, b: EmbeddedCurve, system, avoid=()):
    """One strict-descent move: returns (c, twisted b, its arrangement).

    `system` is the minimal-position arrangement of (a, b); the returned
    arrangement is that of (a, twisted b), left over from the descent test,
    so the next step can start from it.
    Curves in `avoid` must stay untouched: a candidate is rejected unless it
    misses every one of them up to isotopy.  A candidate whose canonical key
    was already tried is skipped: every test that rejects a candidate is an
    isotopy invariant, so it would be rejected again.
    """
    count = len(system.crossings)
    order_a = system.crossing_order_along(0)
    surf = a.surface
    tried = set()

    for x, y in _pair_priority(order_a):
        for a_fwd, b_fwd in ((True, False), (False, True), (True, True), (False, False)):
            for sa in (1, -1):
                for sb in (1, -1):
                    events = _candidate_events(system, x, y, a_fwd, b_fwd, sa, sb)
                    if len(events) < 1:
                        continue
                    try:
                        c = EmbeddedCurve(surf, events, oriented=False)
                    except ValidationError:
                        continue
                    if c.canonical_key in tried:
                        continue
                    tried.add(c.canonical_key)
                    if not is_essential(c):
                        continue
                    if any(geometric_intersection_number(c, fr) for fr in avoid):
                        continue
                    twisted = apply_twist(c, 1, b)
                    descent = _joint_minimal_position(a, twisted)
                    if len(descent.crossings) < count:
                        return c.renormalized(), twisted, descent
    raise ComputationError("no splice candidate reduced the crossing count")


def _reduction(a, b):
    """(word length, terminal tag) of reduce_pair(a, b), or the error raised."""
    try:
        word, _, cls = reduction.reduce_pair(a, b)
    except DehnkitError as exc:
        return type(exc).__name__, str(exc)
    return len(word), cls.tag


def _reductions(a, b):
    """Outcomes of reduce_pair(a, b) with the constructed and the searched step."""
    constructed = _reduction(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_reduction_step", _search_step)
        searched = _reduction(a, b)
    return constructed, searched


def _essential_curves(name):
    curves = dict.fromkeys(build_preset(name).curves.values())  # "waist" aliases "dual2"
    return tuple(c for c in curves if is_essential(c))


@st.composite
def twisted_preset_pairs(draw):
    """(a, b): a preset curve, and a twist word of preset curves applied to one."""
    curves = _essential_curves(draw(st.sampled_from(PRESET_NAMES)))
    letters = draw(st.lists(
        st.tuples(st.sampled_from(curves), st.sampled_from((1, -1))),
        min_size=1, max_size=4,
    ))
    a, start = draw(st.sampled_from(curves)), draw(st.sampled_from(curves))
    return a, apply_word(TwistWord(tuple(letters)), start)


@given(pair=twisted_preset_pairs())
@settings(max_examples=60, deadline=None)
def test_construction_matches_the_search(pair):
    constructed, searched = _reductions(*pair)
    if searched[0] == "ComputationError" and constructed != searched:
        # the engine failed twisting a candidate the search tried and the
        # construction never builds (roadmap defect 2b): no reference word,
        # and the construction must still reach a terminal class
        assert constructed[1] in reduction.TERMINAL_TAGS
    else:
        assert constructed == searched


def _pinned_pairs():
    t = build_preset("torus").surface
    g = build_preset("genus2_closed").curves
    c_1 = apply_twist(g["t1"], 1, apply_twist(g["a2"], -1, g["dual1"]))
    far = apply_twist(g["dual3"], 1, apply_twist(g["dual1"], 1, g["dual2"]))
    return {
        "torus 1/0 vs 1/2": (torus_curve(t, 1, 0), torus_curve(t, 1, 2), [1, 1]),
        "genus-2 a1 vs c_1": (g["a1"], c_1, [1, -1, 1, -1]),
        "genus-2 a3 vs far side": (g["a3"], far, [1, -1] * 16),
    }


@pytest.mark.parametrize(
    "case", ["torus 1/0 vs 1/2", "genus-2 a1 vs c_1", "genus-2 a3 vs far side"]
)
def test_pinned_pairs_match_the_search(case):
    a, b, signs = _pinned_pairs()[case]
    order = _joint_minimal_position(a, b).crossing_order_along(0)
    assert [x.sign for x in order] == signs
    constructed, searched = _reductions(a, b)
    assert constructed == searched
