"""Dehn-twist surgery on embedded curves and twist words.

The twist D_a^n(b) is built literally: put the pair in minimal position, then
reroute every strand of b through an annulus neighbourhood of a as a spiral
winding |n| times.  The spiral's points are a's events moved less than half
a joint spacing to either side, so the result validates as an embedded
curve.  Only the order of the points along each edge matters, so each is
an int key over the joint ranks (JointSystem.beside_keys): k*2D for b's
point of rank k, and k*2D + d*hn, |hn| < D, beside a's event of rank k and
direction d, with one D per twist.

Each spiral block runs after b's event at its gap, and _close_up, which
the reduction's arc surgery shares, sweeps away the edge-crossing pairs the
layout left reducible and bears the image from its keys, with b as its
source (EmbeddedCurve._from_keys).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .calculus import is_essential
from .errors import ComputationError, PreconditionError, ValidationError
from .overlay import minimal_position as _joint_minimal_position
from .surface import EmbeddedCurve

__all__ = [
    "TwistWord",
    "apply_twist",
    "apply_word",
]


def _drop_reducible_pairs(events: list) -> list:
    """Remove adjacent (e,d),(e,-d) event pairs nothing else blocks.

    Events are (edge, direction, int key).  Such a pair is a detour across
    edge e and back; it slides off whenever no other event of the curve has
    a key strictly between the two on e.  Pairs are removed one at a time,
    always the first removable one in the current cyclic order (the pair
    closing the cycle last).  Removing events only shortens the list, so
    that order is the original order of the survivors; the candidate pairs
    are kept by original index, and blocking is tested by bisecting
    per-edge sorted keys.
    """
    n = len(events)
    nxt = [(i + 1) % n for i in range(n)]
    prv = [(i - 1) % n for i in range(n)]
    # per edge the sorted keys of the events still there
    on_edge: dict = {}
    for e, _d, k in events:
        on_edge.setdefault(e, []).append(k)
    for keys in on_edge.values():
        keys.sort()

    def paired(i: int) -> bool:
        e1, d1, _ = events[i]
        e2, d2, _ = events[nxt[i]]
        return e1 == e2 and d1 == -d2

    def blocked(i: int) -> bool:
        k1, k2 = events[i][2], events[nxt[i]][2]
        lo, hi = (k1, k2) if k1 < k2 else (k2, k1)
        keys = on_edge[events[i][0]]
        return bisect_left(keys, hi) > bisect_right(keys, lo)

    alive = [True] * n
    left = n
    candidates = [i for i in range(n) if paired(i)]
    while left > 2:
        i = next((i for i in candidates if not blocked(i)), None)
        if i is None:
            break
        j = nxt[i]
        for t in (i, j):
            alive[t] = False
            e, _d, k = events[t]
            keys = on_edge[e]
            del keys[bisect_left(keys, k)]
        before, after = prv[i], nxt[j]
        nxt[before], prv[after] = after, before
        left -= 2
        candidates = [t for t in candidates if t not in (before, i, j)]
        if paired(before):
            insort(candidates, before)
    return [ev for ev, keep in zip(events, alive) if keep]


def _close_up(system, events: list, b: EmbeddedCurve, n: int,
              replay: tuple) -> EmbeddedCurve:
    """The twist image of b laid out as `events` on `system`, swept and born.

    Curve 1 of `system` is b as placed there; `events` walks its points and
    points beside them, as (edge, direction, int key): b with a spiral after
    each crossing, or a surgery's short list.  One sweep of reducible pairs
    leaves the image, which must not collapse to a trivial circle and must
    be an embedded curve with no key repeated on an edge: either failure
    raises a ComputationError carrying the surface and the curves `replay`,
    with the power n in its text.
    """
    surf = system.surface
    events = _drop_reducible_pairs(events)
    if len(events) == 2 and events[0][:2] == (events[1][0], -events[1][1]):
        raise ComputationError(
            f"twist image collapsed to a trivial circle (power {n})", surf, replay
        )
    try:
        (image,) = EmbeddedCurve._from_keys(surf, [(events, b)])
    except ValidationError as exc:
        raise ComputationError(
            f"twist image did not close up (power {n}): {exc}", surf, replay
        ) from exc
    return image


def apply_twist(a: EmbeddedCurve, n: int, b: EmbeddedCurve) -> EmbeddedCurve:
    """Image of b under the n-th power of the twist along a.

    A positive twist turns left, as the surface's face order fixes: on the
    square torus a positive twist along (1,0) sends (0,1) to (1,1).  A
    power n that is no int, a bool included, raises PreconditionError.
    """
    if type(n) is not int:
        raise PreconditionError(f"twist power {n!r} is not an int")
    if a.surface != b.surface:
        raise PreconditionError("curves live on different surfaces")
    if not is_essential(a) or not is_essential(b):
        raise PreconditionError("twisting needs essential curves")
    if n == 0:
        return b
    system = _joint_minimal_position(a, b)
    if not system.crossings:
        return b

    m = len(a.events)  # curve 0 is a itself, and b has the frame's other points
    nb = sum(map(len, system.edge_order.values())) - m
    sigma = 1 if n > 0 else -1
    wraps = abs(n)
    Q = len(system.crossings) + 1  # one Q for all gaps, so one D per twist
    mQ = m * Q
    D = mQ * wraps
    D2 = 2 * D
    a_keys = system.beside_keys(0, range(m), 0, D2)

    def spiral_block(x) -> list:
        # Strand of b at crossing x, rerouted to wind `wraps` times around a.
        # x sits at annulus coordinate th = g + (r + 1)/Q along a, the
        # (r + 1)-th crossing on a's gap g: Q exceeds every gap's count, so
        # th lies in (g, g + 1), in order.  The spiral point of turn w at
        # a's event idx has phi = (sigma * (idx - th)) mod m / m and
        # z = (phi + w)/wraps, and is that event moved h = (2z - 1)/2 joint
        # spacings to one side.  With D = m * Q * wraps, z = (u + w*m*Q)/D
        # for the integer u = sigma * (Q * (idx - g) - r - 1) mod m*Q, so
        # h = hn/(2D) for hn = 2*(u + w*m*Q) - D, and the key is k*2D + d*hn.
        mu = x.sign  # +1: strand passes right-to-left across a
        se = mu * sigma  # sign of the strand's motion along a's direction
        g, r = system.slot(0, x)
        r1 = r + 1
        out = []
        for t in range(wraps * m):
            idx = (g + 1 + t) % m if se > 0 else (g - t) % m
            w = t // m if mu > 0 else wraps - 1 - t // m
            u = sigma * (Q * (idx - g) - r1) % mQ
            e, d, key = a_keys[idx]
            out.append((e, se * d, key + d * (2 * (u + w * mQ) - D)))
        return out

    events = []
    for g, ev in enumerate(system.beside_keys(1, range(nb), 0, D2)):
        events.append(ev)
        for x in system.crossings_on(1, g):
            events.extend(spiral_block(x))
    return _close_up(system, events, b, n, (a, b))


@dataclass(frozen=True)
class TwistWord:
    """Formal product of twist powers, applied left to right.

    Stored uncollapsed: a word may contain a letter and its inverse.
    """

    letters: tuple[tuple[EmbeddedCurve, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        surfaces = set()
        for c, k in self.letters:
            if not isinstance(k, int) or isinstance(k, bool) or k == 0:
                raise PreconditionError("twist exponents must be nonzero integers")
            if not is_essential(c):
                raise PreconditionError("twist curve is not essential")
            surfaces.add(c.surface)
        if len(surfaces) > 1:
            raise PreconditionError("twist letters live on different surfaces")

    @property
    def surface(self):
        return self.letters[0][0].surface if self.letters else None

    @property
    def is_positive(self) -> bool:
        return all(k > 0 for _, k in self.letters)

    @property
    def twist_count(self) -> int:
        return sum(abs(k) for _, k in self.letters)

    def inverse(self) -> "TwistWord":
        return TwistWord(tuple((c, -k) for c, k in reversed(self.letters)))

    def __add__(self, other: "TwistWord") -> "TwistWord":
        return TwistWord(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


def apply_word(w: TwistWord, c: EmbeddedCurve) -> EmbeddedCurve:
    """Image of c under w, one letter at a time.

    apply_twist hands back the very curve it was given when its axis misses
    it, and it is deterministic; so while c stays that object, a later
    letter on an axis already seen to miss it (the same object, any power)
    is skipped.
    """
    if w.letters and w.surface != c.surface:
        raise PreconditionError("word and curve live on different surfaces")
    missed = set()  # ids of letter curves that left the current c as it is
    for curve, k in w.letters:
        if id(curve) in missed:
            continue
        image = apply_twist(curve, k, c)
        if image is c:
            missed.add(id(curve))
        else:
            missed.clear()
            c = image
    return c
