"""Positive-twist reduction of a transverse curve pair.

One reduction step finds a simple loop c, assembled from one arc of a and one
arc of b, whose positive twist strictly drops the crossing count with a. The
candidate pool enumerates every splice (crossing pair, either arc of each
curve, either side for the parallel copies) and keeps the first one that
passes the descent test; iterating lands in a terminal class in at most the
initial number of crossings.  The arcs come from JointSystem.arc, and each
parallel copy runs a quarter of a joint spacing beside its curve
(JointSystem.beside).

Different splices often close up into the same curve.  A candidate whose
canonical key was already tried in the step is skipped before it is twisted:
every rejection test (essential, misses `avoid`, descent) is an isotopy
invariant, so a repeat would be rejected again and the first candidate that
passes is unchanged.  The descent test puts (a, twisted b) in minimal
position; that arrangement classifies the new pair and starts the next step,
so each pair on the way is solved once.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import _require_essential, is_essential, pair_class
from .errors import ComputationError, TerminalPairError, ValidationError
from .overlay import geometric_intersection_number
from .overlay import minimal_position as _joint_minimal_position
from .surface import EmbeddedCurve
from .twisting import TwistWord, apply_twist

__all__ = ["find_reduction_curve", "reduce_pair"]

TERMINAL_TAGS = ("disjoint", "one_point", "two_zero")


def _candidate_events(system, x, y, a_fwd, b_fwd, sa, sb):
    """Splice: parallel a-arc from x to y, then parallel b-arc from y to x."""
    chir = system.surface.chirality

    def copy(ci, start, end, fwd, side):
        idxs = system.arc(ci, start, end) if fwd else system.arc(ci, end, start)
        h = Fraction(side * chir, 4)
        part = [system.beside(ci, i, h) for i in idxs]
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


def _reduction_step(a: EmbeddedCurve, b: EmbeddedCurve, system, avoid=()):
    """One strict-descent move: returns (c, twisted b, its arrangement).

    `system` is the minimal-position arrangement of (a, b); the returned
    arrangement is that of (a, twisted b), left over from the descent test,
    so the next step can start from it.
    Curves in `avoid` must stay untouched: a candidate is rejected unless it
    misses every one of them up to isotopy.  A candidate whose canonical key
    was already tried is skipped: every test that rejects a candidate is an
    isotopy invariant, so it would be rejected again.
    """
    count = system.crossing_count(0, 1)
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
                    if descent.crossing_count(0, 1) < count:
                        return c.renormalized(), twisted, descent
    raise ComputationError("no splice candidate reduced the crossing count")


def _classify(a: EmbeddedCurve, b: EmbeddedCurve):
    """(PairClass, minimal-position arrangement) of an essential pair."""
    _require_essential(a, b)
    system = _joint_minimal_position(a, b)
    return pair_class(system), system


def find_reduction_curve(a: EmbeddedCurve, b: EmbeddedCurve, *, avoid=()) -> EmbeddedCurve:
    """A simple loop whose positive twist strictly reduces |b ∩ a|."""
    cls, system = _classify(a, b)
    if cls.tag in TERMINAL_TAGS:
        raise TerminalPairError(f"pair is terminal ({cls.tag})")
    c, _, _ = _reduction_step(a, b, system, avoid)
    return c


def reduce_pair(a: EmbeddedCurve, b: EmbeddedCurve, *, avoid=()):
    """Drive b to a terminal class against a using positive twists only.

    Returns (word, final b, PairClass); word length never exceeds the initial
    crossing count and every step strictly decreases it.  Each pair (a, b)
    the reduction passes through is put in minimal position once: a step's
    descent test leaves the arrangement that classifies the twisted curve
    and starts the next step.
    """
    cls, system = _classify(a, b)
    letters = []
    b_cur = b
    bound = cls.count
    while cls.tag not in TERMINAL_TAGS:
        c, b_cur, system = _reduction_step(a, b_cur, system, avoid)
        letters.append((c, 1))
        new_cls = pair_class(system)
        if new_cls.count >= cls.count:
            raise ComputationError("reduction step failed to descend")
        if len(letters) > bound:
            raise ComputationError("reduction exceeded the crossing bound")
        cls = new_cls
    return TwistWord(tuple(letters)), b_cur, cls
