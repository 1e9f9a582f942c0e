"""Positive-twist reduction of a transverse curve pair.

One reduction step builds the simple loop c that the surgery argument names
and replaces b by T_c(b); that strictly drops the crossing count with a, so
iterating lands in a terminal class in at most the initial number of
crossings.  c is spliced at two crossings X, Y of equal sign, adjacent along
a or two apart (the pair flanking the middle of an alternating triple): it
runs from X forward along a to Y and back to X along b, in the direction the
sign of X gives, both arcs as parallel copies a quarter of a joint spacing
to one side of their curves, keyed 4k + d at joint rank k (JointSystem.arc,
JointSystem.beside_keys), and c is born from its keys.  The a-arc goes the
short way round first, and round the far side when that splice is not an
embedded curve or is inessential; then the next pair is tried.  The first
splice kept must descend, or the ComputationError raised carries (a, b),
which replays the step.

A splice whose a-arc runs from X to the next crossing Y along a (the short
way round of an adjacent pair, and either way when a crosses b twice) is
reduced by surgery, with no twist and no arrangement.  Its copy of the b-arc
never crosses b, and its copy of the a-arc runs beside an arc of a that b
does not cross, so c meets b exactly once, at one corner.  When c meets b
once, T_c(b) is the resolution of b ∪ c at that point: b cut there and
closed up around c.  The part of c beside b cancels against that arc of b, so
what is left is, up to isotopy, b's complementary arc closed by the a-arc;
this is Lickorish's step, which "depends only on the intersection numbers".
The surgery lays out just that short list on int keys, as the twist lays
out its spiral, and hands it to the twist's own close-up
(twisting._close_up), whose sweep of reducible pairs leaves the twist image
event for event, up to where its itinerary starts.

Any other splice, two apart or round the far side, meets b more than once,
and the same surgery does not close up, so it is reduced by a twist.  The
twist acts on copies of the pair (c, b) born together (_twist_pair): curve
1 of the arrangement the splice was cut from, keyed 4k, and c keyed as it
was cut, a quarter spacing beside it, so the pair is in minimal position
as built and the twist runs no bigon round.

A splice is an arc of a followed by an arc of b, so it is homotopic into
a ∪ b, and geodesic representatives are pairwise in minimal position
(Farb-Margalit, Primer, 1.2): a curve that misses a and b up to isotopy
misses every splice.  A twist along a splice therefore fixes every curve
disjoint from a and b, so no filter is needed to keep such curves fixed.

The descent check puts (a, T_c(b)) in minimal position; that arrangement
classifies the new pair and starts the next step, so each pair on the way is
solved once.
"""

from __future__ import annotations

from .calculus import _classified, is_essential, pair_class
from .errors import ComputationError, ValidationError
from .overlay import minimal_position as _joint_minimal_position
from .surface import EmbeddedCurve
from .twisting import TwistWord, _close_up, apply_twist

__all__ = ["reduce_pair"]

TERMINAL_TAGS = ("disjoint", "one_point", "two_zero")


def _reversed(events: list) -> list:
    """The events of an arc walked the other way."""
    return [(e, -d, p) for e, d, p in reversed(events)]


def _arc_copy(system, ci: int, x, y, fwd: bool) -> list:
    """Curve ci's arc from crossing x to y, copied a quarter of a joint
    spacing beside it and keyed over hd = 4: walked forward along ci, or
    when not fwd the copy of the forward arc from y to x, walked backward."""
    if not fwd:
        return _reversed(_arc_copy(system, ci, y, x, True))
    return system.beside_keys(ci, system.arc(ci, x, y), 1, 4)


def _candidate_events(system, x, y) -> list:
    """Splice keys: parallel a-arc forward from x to y, then parallel b-arc
    from y to x, forward along b iff x.sign < 0."""
    return _arc_copy(system, 0, x, y, True) + _arc_copy(system, 1, y, x, x.sign < 0)


def _twist_pair(a, b, system, c: EmbeddedCurve, x, y) -> tuple:
    """Copies of (c, curve 1 of `system`) born together: the splice at
    (x, y) keyed as it was cut, and curve 1, b moved beside a, keyed 4k off
    the frame; its events are b's unless a bigon reroute changed them."""
    nb = sum(map(len, system.edge_order.values())) - len(a.events)
    b_keys = system.beside_keys(1, range(nb), 0, 4)
    if [ev[:2] for ev in b_keys] == [ev[:2] for ev in b.events]:
        b_keys = [k for _, _, k in b_keys]
    c_keys = [k for _, _, k in _candidate_events(system, x, y)]
    return tuple(EmbeddedCurve._from_keys(system.surface, [(c_keys, c), (b_keys, b)]))


def _pair_priority(order_a):
    """Oriented crossing pairs (X, Y, adjacent) to splice at, in the order tried.

    Tier 0: adjacent along a with equal signs.  Tier 1: two apart with equal
    signs; when adjacent signs alternate this is the pair flanking the middle
    point of the alternating triple.  No other pair is spliced.  Within a tier
    pairs come in order along a.  Each pair is listed in both orientations:
    first the one whose a-arc forward from X to Y is the short one (the
    earlier crossing first when both are equally long), then the other, whose
    arc runs round the far side.  `adjacent` says that Y is the next
    crossing after X along a, so the a-arc passes no other crossing: the
    short way round of a tier-0 pair, and both ways when a crosses b twice.
    """
    n = len(order_a)
    ranked = []
    for i in range(n):
        for d in {1, 2, n - 2, n - 1}:  # i + d is one or two steps from i
            if not 0 < d < n - i:
                continue
            x, y = order_a[i], order_a[i + d]
            dist = min(d, n - d)
            if dist <= 2 and x.sign == y.sign:
                ranked.append((dist - 1, i, d, x, y))
    ranked.sort(key=lambda r: r[:3])
    pairs = []
    for _, _, d, x, y in ranked:
        both = [(x, y, d == 1), (y, x, d == n - 1)]
        pairs += both if 2 * d <= n else both[::-1]
    return pairs


def _twist_image(a, b, system, c, x, y, adjacent: bool) -> EmbeddedCurve:
    """T_c(b) for the splice c cut from `system` at (x, y) (module docstring).

    When Y follows X along a (`adjacent`), the image's short list is c's
    a-arc copy and b's complementary arc, the part of curve 1 of `system` c
    does not run beside: for a positive sign the copy from X to Y, then b
    from Y on to X; for a negative one b from X to Y, then the copy back to
    X.  Its points are keyed as c's own events are, over one hd = 4
    (JointSystem.beside_keys).  The twist's close-up (twisting._close_up)
    sweeps it to the twist image; no arrangement is built.  Any other
    splice twists the pair's copies (_twist_pair).  A surgery image that
    does not close up raises the ComputationError carrying (a, b).
    """
    if not adjacent:
        c, curve = _twist_pair(a, b, system, c, x, y)
        return apply_twist(c, 1, curve)
    copy = system.beside_keys(0, system.arc(0, x, y), 1, 4)
    if x.sign > 0:
        events = copy + system.beside_keys(1, system.arc(1, y, x), 0, 4)
    else:
        events = system.beside_keys(1, system.arc(1, x, y), 0, 4) + _reversed(copy)
    return _close_up(system, events, b, 1, (a, b))


def _reduction_step(a: EmbeddedCurve, b: EmbeddedCurve, system):
    """One strict-descent move: returns (c, twisted b, its arrangement).

    `system` is the minimal-position arrangement of (a, b); the returned
    arrangement is that of (a, twisted b), left over from the descent check,
    so the next step can start from it.  The twisted curve is made by
    _twist_image: by surgery when Y follows X along a, and otherwise by a
    twist of curve 1 of `system`.  b itself is kept for the replay
    payload (a, b).
    """
    count = len(system.crossings)
    surf = a.surface
    for x, y, adjacent in _pair_priority(system.crossing_order_along(0)):
        keys = _candidate_events(system, x, y)
        try:
            (c,) = EmbeddedCurve._from_keys(surf, [(keys, False)])
        except ValidationError:
            continue
        if not is_essential(c):
            continue
        twisted = _twist_image(a, b, system, c, x, y, adjacent)
        descent = _joint_minimal_position(a, twisted)
        if len(descent.crossings) >= count:
            raise ComputationError(
                "twist along the splice did not descend", surf, (a, b)
            )
        return c, twisted, descent
    raise ComputationError("no splice closed up into a usable curve", surf, (a, b))


def reduce_pair(a: EmbeddedCurve, b: EmbeddedCurve):
    """Drive b to a terminal class against a using positive twists only.

    Returns (word, final b, PairClass); word length never exceeds the initial
    crossing count and every step strictly decreases it.  Each pair (a, b)
    the reduction passes through is put in minimal position once: a step's
    descent check leaves the arrangement that classifies the twisted curve
    and starts the next step.  Every letter's curve is homotopic into a ∪ b,
    so the word fixes each curve disjoint from both a and b.
    """
    word, b_term, cls, _ = _reduce_counted(a, b)
    return word, b_term, cls


def _reduce_counted(a: EmbeddedCurve, b: EmbeddedCurve):
    """reduce_pair's result and the initial crossing count |a ∩ b|.

    The count is read off the arrangement that classifies (a, b), so a
    caller that needs it solves the pair once.  Each step checks its own
    descent (_reduction_step), on the arrangement that classifies the next
    pair.
    """
    cls, system = _classified(a, b)
    letters = []
    b_cur = b
    bound = cls.count
    while cls.tag not in TERMINAL_TAGS:
        c, b_cur, system = _reduction_step(a, b_cur, system)
        letters.append((c, 1))
        if len(letters) > bound:
            raise ComputationError(
                "reduction exceeded the crossing bound", a.surface, (a, b)
            )
        cls = pair_class(system)
    return TwistWord(tuple(letters)), b_cur, cls, bound
