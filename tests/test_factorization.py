"""Connector curves and curve matching on the genus-2 preset.

A connector of two disjoint non-separating curves crosses each of them
once.  It is routed through the complement of their arrangement as two
cell-disjoint paths, one from each side of a chord segment of the first
curve to a side of a chord segment of the second.  The paths stay in one
region when the two curves together do not separate the surface, and run
in two regions otherwise.  A cell flanking both segments is a path by
itself; every connector of two disjoint genus-2 pants curves needs one.
`match_curve` turns such a connector, or a single crossing, into a
positive word that sends one curve onto the other.

A ComputationError carries the inputs of the computation that raised it,
and its JSON replays the failure.

`factorize` is pinned on the genus-2 words it factors today: each result
is verified and positive, keeps the per-curve letter budget, passes the
bench's check of its action on homology, and has the word length and
pants exponents recorded for it.  Random genus-2 words of one to three
letters must pass the same checks, with no filter that skips a failure.
Every reduction letter of a step misses the pants curves fixed before
it, with no filter to make it so.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dehnkit import factorization
from dehnkit.errors import ComputationError, PreconditionError
from dehnkit.factorization import find_connector_curve, match_curve
from dehnkit.overlay import (
    JointSystem,
    _disjoint_cell_paths,
    connecting_curve,
    curves_isotopic,
    geometric_intersection_number,
    minimal_position,
)
from dehnkit.presets import build_preset
from dehnkit.surface import CellSurface, EmbeddedCurve
from dehnkit.twisting import TwistWord, apply_twist, apply_word
from bench_modules import load_bench_module
from parabola import assert_matches_the_parabola

# the bench's op checks judge factorize's results here too
WORKLOADS = load_bench_module("workloads")


@pytest.fixture
def g():
    return build_preset("genus2_closed").curves


def _cells(*edges):
    # an adjacency in the router's format, the dart of u -> v being 10u + v
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append((v, 10 * u + v))
        adj.setdefault(v, []).append((u, 10 * v + u))
    return adj


def _route(adj, sources, sinks):
    paths = _disjoint_cell_paths(adj, sources, sinks)
    return paths and [[cell for cell, _ in path] for path in paths]


def test_disjoint_cell_paths():
    # a shared cell is a path of its own
    assert _route(_cells((0, 1), (1, 2), (2, 3)), (0, 2), (0, 3)) == [[0], [2, 3]]
    # two sources behind one cut cell
    assert _route(_cells((0, 1), (2, 1), (1, 3), (1, 4)), (0, 2), (3, 4)) is None
    # the first round takes 0-4-3; the second reroutes 0 through 5
    adj = _cells((0, 4), (4, 3), (1, 4), (0, 5), (5, 2))
    assert _route(adj, (0, 1), (2, 3)) == [[0, 5, 2], [1, 4, 3]]
    assert _disjoint_cell_paths(adj, (0, 1), (2, 3))[0] == [(0, None), (5, 5), (2, 52)]
    # one source is a plain shortest path
    assert _route(adj, (2,), (3,)) == [[2, 5, 0, 4, 3]]


@pytest.mark.parametrize("x, y", [("a1", "t2"), ("a3", "t1")])
def test_connector_through_one_region(g, x, y):
    assert len(JointSystem(g[x].surface, (g[x], g[y])).regions) == 1
    c = find_connector_curve(g[x], g[y])
    assert geometric_intersection_number(c, g[x]) == 1
    assert geometric_intersection_number(c, g[y]) == 1


def test_connector_through_two_regions(g):
    a = apply_twist(g["a1"], 1, g["t1"])
    b = apply_twist(g["a2"], 1, g["t1"])
    assert len(JointSystem(a.surface, (a, b)).regions) == 2
    c = find_connector_curve(a, b)
    assert geometric_intersection_number(c, a) == 1
    assert geometric_intersection_number(c, b) == 1


PANTS_PAIRS = [("a1", "a2"), ("a1", "a3"), ("a2", "a3")]


@pytest.mark.parametrize("x, y", PANTS_PAIRS)
def test_disjoint_pants_curves_have_a_connector(g, x, y):
    # their flank cells are shared, so the connector runs through such a cell
    c = find_connector_curve(g[x], g[y])
    assert geometric_intersection_number(c, g[x]) == 1
    assert geometric_intersection_number(c, g[y]) == 1
    word = match_curve(g[x], g[y])
    assert len(word) == 4 and word.is_positive
    image = apply_word(word, g[x].with_orientation(False))
    assert curves_isotopic(image, g[y].with_orientation(False))


def test_images_of_disjoint_pants_curves_have_a_connector(g):
    # a word of 1-2 random letters moves each pair to another disjoint pair
    rng = random.Random(12)
    names = sorted(g)
    for k in range(120):
        x, y = PANTS_PAIRS[k % 3]
        word = TwistWord(tuple((g[rng.choice(names)], rng.choice((1, -1)))
                               for _ in range(rng.randint(1, 2))))
        a, b = apply_word(word, g[x]), apply_word(word, g[y])
        c = find_connector_curve(a, b)
        assert geometric_intersection_number(c, a) == 1, (x, y, word)
        assert geometric_intersection_number(c, b) == 1, (x, y, word)


@pytest.mark.parametrize("x, y", [("a1", "t2"), ("t2", "a1"), ("a3", "t1")])
def test_match_curve_through_a_connector(g, x, y):
    word = match_curve(g[x], g[y])
    assert len(word) == 4 and word.is_positive
    image = apply_word(word, g[x].with_orientation(False))
    assert curves_isotopic(image, g[y].with_orientation(False))


def test_connector_arrangements_match_the_parabola(g, monkeypatch):
    # the arrangements find_connector_curve builds for the connectors and
    # matches above, (a, a_prime, *avoid), one of them with a third curve
    built = []

    class Recording(JointSystem):
        def __init__(self, surface, curves):
            built.append(tuple(curves))
            super().__init__(surface, curves)

    monkeypatch.setattr(factorization, "JointSystem", Recording)
    for x, y in (("a1", "t2"), ("a3", "t1")):
        find_connector_curve(g[x], g[y])
    find_connector_curve(apply_twist(g["a1"], 1, g["t1"]), apply_twist(g["a2"], 1, g["t1"]))
    for x, y in (("a1", "t2"), ("t2", "a1"), ("a3", "t1")):
        match_curve(g[x], g[y])
    match_curve(g["a1"], g["t2"], avoid=(g["a3"],))
    assert [len(curves) for curves in built] == [2] * 6 + [3]
    for curves in built:
        assert_matches_the_parabola(curves)


def test_routed_orientation_partner_misses_the_frozen_curve(g):
    # factorize's fallback for a2 once a1 is frozen: no stored curve crosses
    # a2 once while missing a1, so the partner is routed around a1
    c = connecting_curve(JointSystem(g["a2"].surface, (g["a2"], g["a1"])))
    assert geometric_intersection_number(c, g["a2"]) == 1
    assert geometric_intersection_number(c, g["a1"]) == 0
    assert factorization._orientation_partner(
        build_preset("genus2_closed").pants, 1, (g["a1"],)
    ) == c


@pytest.mark.parametrize("name, i, want", [
    ("one_holed_torus", 0, "dual1"),
    ("four_holed_sphere", 0, None),  # a1 separates: nothing crosses it once
    ("genus2_closed", 0, "t1"),
    ("genus2_closed", 1, "routed"),
    ("genus2_closed", 2, None),  # a3 separates the complement of a1, a2
])
def test_orientation_partner_tries_only_curves_that_can_cross_once(
        monkeypatch, name, i, want):
    ps = build_preset(name)
    pants = ps.pants
    frozen = pants.pants_curves[:i]
    tried = []
    count = factorization.geometric_intersection_number

    def counted(a, b):
        tried.append(a)
        return count(a, b)

    monkeypatch.setattr(factorization, "geometric_intersection_number", counted)
    partner = factorization._orientation_partner(pants, i, frozen)
    # pants curves are pairwise disjoint, so none is ever a candidate
    assert not any(c is p for c in tried for p in pants.pants_curves)
    if want is None:
        assert partner is None
    elif want == "routed":
        assert geometric_intersection_number(partner, pants.pants_curves[i]) == 1
        assert all(geometric_intersection_number(partner, fr) == 0 for fr in frozen)
    else:
        assert partner == ps.curve(want)


def test_a_bigon_removal_error_replays_from_its_json(monkeypatch):
    # an injected fault: the reroute reports one stationary run more than
    # it cleared, so minimal_position's crossing-count guard trips inside
    # this factorization, and the pair it carries trips it again
    reroute = JointSystem.reroute_through_bigons

    def overcounted(self, regions):
        curve, cleared = reroute(self, regions)
        return curve, cleared + 1

    monkeypatch.setattr(JointSystem, "reroute_through_bigons", overcounted)
    ps = build_preset("genus2_closed")
    word = TwistWord(tuple((ps.curve(n), k) for n, k in (("dual3", 1), ("t2", -1), ("a2", 1))))
    with pytest.raises(ComputationError) as raised:
        factorization.factorize(word, ps.pants)
    err = raised.value
    assert re.fullmatch(r"bigon removal changed crossings to \d+", str(err))
    data = err.replay_json()
    surface = CellSurface.from_json(data["surface"])
    a, b = (EmbeddedCurve.from_json(surface, c) for c in data["curves"])
    with pytest.raises(ComputationError) as replayed:
        minimal_position(a, b)
    assert str(replayed.value) == str(err)


def test_a_failed_match_replays_from_its_json(g, monkeypatch):
    # a word that moves nothing cannot send a1 onto t2: the error carries
    # (a_prime, a) and the avoided curves, which reproduce it
    monkeypatch.setattr(factorization, "apply_word", lambda word, c: c)
    with pytest.raises(ComputationError) as raised:
        match_curve(g["a1"], g["t2"], avoid=(g["a3"],))
    err = raised.value
    assert str(err) == "match word failed to align the curves"
    assert err.surface is g["a1"].surface
    assert err.curves == (g["a1"], g["t2"], g["a3"])
    data = err.replay_json()
    surface = CellSurface.from_json(data["surface"])
    a_prime, a, *avoid = (EmbeddedCurve.from_json(surface, c) for c in data["curves"])
    assert (a_prime, a, *avoid) == tuple(c.renormalized() for c in err.curves)
    with pytest.raises(ComputationError) as replayed:
        match_curve(a_prime, a, avoid=avoid)
    assert str(replayed.value) == str(err)


# (word, (len(p), q_exponents)); a word is (curve name, exponent) pairs
# applied left to right
FACTORED_WORDS = [
    ((("a1", -1),), (0, (-1, 0, 0))),
    ((("dual3", 1),), (1, (0, 0, 0))),
    ((("t2", 1),), (2, (0, -1, 0))),
    ((("dual1", 1), ("a1", -1)), (1, (-1, 0, 0))),
    ((("t1", 1), ("a2", -1)), (2, (-1, -1, 0))),
    ((("t1", -1),), (9, (1, 1, -2))),
    ((("t2", -1), ("a3", 1)), (9, (-2, 1, 2))),
    ((("t2", 1), ("dual1", -1), ("a3", 1)), (3, (1, -3, -1))),
    ((("a3", -1), ("dual3", 1), ("a3", 1), ("a1", 1)), (1, (1, 0, 0))),
    ((("dual1", 1), ("t2", -1), ("a2", 1), ("t1", 1)), (11, (-2, 2, 1))),
    # each once tripped minimal_position's crossing-count guard (a bigon
    # strand that also cleared the rectangle across its stationary side)
    ((("waist", -1), ("t1", -1), ("dual1", 1)), (6, (-4, 9, -2))),
    ((("dual3", 1), ("t2", -1), ("a2", 1)), (8, (0, 4, 0))),
    ((("t1", 1), ("a1", -1), ("waist", -1), ("dual1", -1)), (13, (-4, 3, -6))),
    ((("dual1", -1), ("dual1", -1), ("dual3", -1)), (3, (0, -6, -3))),
]


def _factorize_genus2(word):
    """factorize on a genus-2 word, checked as the bench checks its ops.

    The bench's check repeats the certificate, positivity and per-curve
    budget, and compares the action on homology of the word with that of p
    followed by the pants twists.
    """
    ps = build_preset("genus2_closed")
    letters = tuple((ps.curve(n), k) for n, k in word)
    result = factorization.factorize(TwistWord(letters), ps.pants)
    assert result.verified
    assert result.p.is_positive
    for step in result.step_log:
        used = step["reduce"] + step["match"] + step["orient"]
        assert used <= step["initial_crossings"] + 10, step
    form = WORKLOADS.INTERSECTION_FORMS["genus2_closed"]
    assert WORKLOADS._factorize_op(letters, ps.pants, form, "").check(result) == []
    return result


@pytest.mark.parametrize(
    "word, want", FACTORED_WORDS,
    ids=["*".join(f"{n}^{k}" for n, k in word) for word, _ in FACTORED_WORDS])
def test_factorize_genus2_words(word, want):
    ps = build_preset("genus2_closed")
    result = _factorize_genus2(word)
    assert (len(result.p), result.q_exponents) == want
    # each reduction letter misses the pants curves fixed before its step
    pants, start = ps.pants.pants_curves, 0
    for step in result.step_log:
        i = step["curve"]
        for c, _ in result.p.letters[start:start + step["reduce"]]:
            assert all(geometric_intersection_number(c, pants[j]) == 0
                       for j in range(i)), (i, c)
        start += step["reduce"] + step["match"] + step["orient"]


@given(word=st.lists(
    st.tuples(st.sampled_from(sorted(build_preset("genus2_closed").curves)),
              st.sampled_from((1, -1))),
    min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_factorize_random_genus2_words(word):
    _factorize_genus2(word)


def _corrupt_pants(ps, image):
    return image.reverse()


def _corrupt_dual(ps, image):
    # one more twist along the pants curve it crosses
    return apply_twist(ps.curve("a1"), 1, image)


def _corrupt_partner(ps, image):
    return apply_twist(ps.curve("a2"), 1, image)


# (tracked curve, corruption, error factorize raises).  A dual image twisted
# once more along its pants curve reads off another exponent, which the
# image of the partner t1, crossing a1 and a2, then contradicts.
CORRUPTED_IMAGES = [
    ("a1", _corrupt_pants, (PreconditionError, "residual moves a pants curve")),
    ("dual1", _corrupt_dual, (ComputationError, "factorization certificate failed")),
    ("t1", _corrupt_partner, (ComputationError, "factorization certificate failed")),
]


@pytest.mark.parametrize("name, corrupt, error", CORRUPTED_IMAGES,
                         ids=[name for name, _, _ in CORRUPTED_IMAGES])
def test_the_certificate_catches_a_corrupted_image(monkeypatch, name, corrupt, error):
    ps = build_preset("genus2_closed")
    word = TwistWord(((ps.curve("dual1"), 1), (ps.curve("a1"), -1)))
    certify = factorization._certify

    def corrupted(sys, tracked, fam_index, images):
        images = list(images)
        t = fam_index[ps.curve(name).canonical_key]
        images[t] = corrupt(ps, images[t])
        return certify(sys, tracked, fam_index, images)

    monkeypatch.setattr(factorization, "_certify", corrupted)
    kind, text = error
    with pytest.raises(kind) as raised:
        factorization.factorize(word, ps.pants)
    assert type(raised.value) is kind
    assert str(raised.value) == text


def test_factorize_recovers_a_separating_pants_curve_by_reduction():
    # on the four-holed sphere every curve separates, so the identity's
    # one pants curve takes the branch that needs no match word
    pants = build_preset("four_holed_sphere").pants
    assert factorization.is_separating(pants.pants_curves[0])
    result = factorization.factorize(TwistWord(()), pants)
    assert result.p.letters == ()
    assert result.q_exponents == (0, 0, 0, 0, 0)
    assert result.verified
    assert result.step_log[0]["match"] == 0


def test_an_unrecovered_separating_pants_curve_replays_from_its_json(monkeypatch):
    # an injected fault: reduction hands back dual1, which crosses a1
    # twice, as the terminal pullback of the separating pants curve a1
    ps = build_preset("four_holed_sphere")
    dual1 = ps.curve("dual1").with_orientation(True)
    reduce_counted = factorization._reduce_counted

    def wrong_terminal(a, b):
        word, _, cls, k0 = reduce_counted(a, b)
        return word, dual1, cls, k0

    monkeypatch.setattr(factorization, "_reduce_counted", wrong_terminal)
    with pytest.raises(ComputationError) as raised:
        factorization.factorize(TwistWord(()), ps.pants)
    err = raised.value
    assert str(err) == "separating pants curve not recovered by reduction"
    assert err.curves == (dual1, ps.curve("a1"))
    data = err.replay_json()
    surface = CellSurface.from_json(data["surface"])
    b_term, a = (EmbeddedCurve.from_json(surface, c) for c in data["curves"])
    assert (b_term, a) == tuple(c.renormalized() for c in err.curves)
    assert not curves_isotopic(b_term.with_orientation(False), a)
