"""Positive-twist reduction of a transverse curve pair.

One reduction step builds the simple loop c that the surgery argument names
and twists b once along it; the twist strictly drops the crossing count with
a, so iterating lands in a terminal class in at most the initial number of
crossings.  c is spliced at two crossings X, Y of equal sign, adjacent along
a or two apart (the pair flanking the middle of an alternating triple): it
runs from X forward along a to Y and back to X along b, in the direction the
sign of X gives, both arcs as parallel copies a quarter of a joint spacing
to one side of their curves (JointSystem.arc, JointSystem.beside).  The a-arc
goes the short way round first, and round the far side when that splice is
not an embedded curve or is inessential; then the next pair is tried.  The
twist along the first splice kept must descend, or the ComputationError
raised carries (a, b), which replays the step.

The twist acts on curve 1 of the arrangement the splice was cut from,
respaced to that arrangement's frame (JointSystem.renormalized_curve): the
splice's points sit a quarter spacing beside that curve's, so the pair is
in minimal position as built and the twist runs no bigon round.  Against
b's own positions the same points land anywhere between b's, and the twist
first peeled bigons that only this mismatch made.

A splice is an arc of a followed by an arc of b, so it is homotopic into
a ∪ b, and geodesic representatives are pairwise in minimal position
(Farb-Margalit, Primer, 1.2): a curve that misses a and b up to isotopy
misses every splice.  A twist along a splice therefore fixes every curve
disjoint from a and b, so no filter is needed to keep such curves fixed.

The descent check puts (a, twisted b) in minimal position; that arrangement
classifies the new pair and starts the next step, so each pair on the way is
solved once.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import _classified, is_essential, pair_class
from .errors import ComputationError, ValidationError
from .overlay import minimal_position as _joint_minimal_position
from .surface import EmbeddedCurve
from .twisting import TwistWord, apply_twist

__all__ = ["reduce_pair"]

TERMINAL_TAGS = ("disjoint", "one_point", "two_zero")

_QUARTER = Fraction(1, 4)


def _candidate_events(system, x, y, b_fwd):
    """Splice: parallel a-arc forward from x to y, then parallel b-arc from y to x."""

    def copy(ci, start, end, fwd):
        idxs = system.arc(ci, start, end) if fwd else system.arc(ci, end, start)
        part = [system.beside(ci, i, _QUARTER) for i in idxs]
        if not fwd:
            part = [(e, -d, pos) for e, d, pos in reversed(part)]
        return part

    return tuple(copy(0, x, y, True) + copy(1, y, x, b_fwd))


def _pair_priority(order_a):
    """Oriented crossing pairs (X, Y) to splice at, in the order tried.

    Tier 0: adjacent along a with equal signs.  Tier 1: two apart with equal
    signs; when adjacent signs alternate this is the pair flanking the middle
    point of the alternating triple.  No other pair is spliced.  Within a tier
    pairs come in order along a.  Each pair is listed in both orientations:
    first the one whose a-arc forward from X to Y is the short one (the
    earlier crossing first when both are equally long), then the other, whose
    arc runs round the far side.
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
        pairs += [(x, y), (y, x)] if 2 * d <= n else [(y, x), (x, y)]
    return pairs


def _reduction_step(a: EmbeddedCurve, b: EmbeddedCurve, system):
    """One strict-descent move: returns (c, twisted b, its arrangement).

    `system` is the minimal-position arrangement of (a, b); the returned
    arrangement is that of (a, twisted b), left over from the descent check,
    so the next step can start from it.  The twist acts on curve 1 of
    `system` in its frame, the curve the splice c was cut from, so c and
    that curve are in minimal position as built; it is isotopic to b and
    takes b's cached topology.  b itself is kept for the replay payload
    (a, b).
    """
    count = len(system.crossings)
    surf = a.surface
    for x, y in _pair_priority(system.crossing_order_along(0)):
        events = _candidate_events(system, x, y, x.sign < 0)
        try:
            c = EmbeddedCurve(surf, events, oriented=False)
        except ValidationError:
            continue
        if not is_essential(c):
            continue
        twisted = apply_twist(c, 1, b._share_topology(system.renormalized_curve(1)))
        descent = _joint_minimal_position(a, twisted)
        if len(descent.crossings) >= count:
            raise ComputationError(
                "twist along the splice did not descend", surf, (a, b)
            )
        return c.renormalized(), twisted, descent
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
    caller that needs it solves the pair once.
    """
    cls, system = _classified(a, b)
    letters = []
    b_cur = b
    bound = cls.count
    while cls.tag not in TERMINAL_TAGS:
        c, twisted, system = _reduction_step(a, b_cur, system)
        letters.append((c, 1))
        new_cls = pair_class(system)
        if new_cls.count >= cls.count:
            raise ComputationError(
                "reduction step failed to descend", a.surface, (a, b_cur)
            )
        if len(letters) > bound:
            raise ComputationError(
                "reduction exceeded the crossing bound", a.surface, (a, b)
            )
        cls, b_cur = new_cls, twisted
    return TwistWord(tuple(letters)), b_cur, cls, bound
