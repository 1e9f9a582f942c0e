"""Reference layout of twist and surgery images on Fraction positions.

This is how apply_twist and the reduction's adjacent-splice surgery laid
out their images before they keyed every point with an int: curve 1's
events at their joint positions (joint_events), each spiral or arc-copy
point one Fraction beside a joint position (beside), the spiral of each
crossing spaced by the count of crossings on its own gap of a, a
rescanning sweep of reducible pairs by position, and the image validated
by the EmbeddedCurve constructor and then renormalized.  The joint
positions are computed here from the arrangement's public edge_order,
independently of the package's int keys.  The package's images must match
it event for event.
"""

from fractions import Fraction

from dehnkit.errors import ComputationError
from dehnkit.overlay import minimal_position
from dehnkit.surface import EmbeddedCurve


def joint_events(system, ci: int) -> list:
    """Curve ci's events at their joint positions: the k-th of the m
    points that system.edge_order lists up an edge sits at k/(m + 1)."""
    evs = list(system.curves[ci].events)
    for e, order in system.edge_order.items():
        for k, (cj, ei) in enumerate(order, 1):
            if cj == ci:
                evs[ei] = (e, evs[ei][1], Fraction(k, len(order) + 1))
    return evs


def beside(system, event, hn: int, hd: int) -> tuple:
    """An event (e, d, p) at its joint position moved h = hn/hd joint
    spacings along its edge: p + d*h/(m + 1) for the m points of e."""
    e, d, p = event
    return e, d, p + d * Fraction(hn, hd) / (len(system.edge_order[e]) + 1)


def rescanning_sweep(events: list) -> list:
    """Remove adjacent (e,d),(e,-d) pairs with no position of e strictly
    between theirs, the first such pair in cyclic order each time, by
    rescanning the list.  Positions may be Fractions or int keys: they are
    only compared."""
    evs = list(events)
    changed = True
    while changed and len(evs) > 2:
        changed = False
        n = len(evs)
        for i in range(n):
            j = (i + 1) % n
            e1, d1, p1 = evs[i]
            e2, d2, p2 = evs[j]
            if e1 != e2 or d1 != -d2:
                continue
            lo, hi = min(p1, p2), max(p1, p2)
            blocked = any(
                e == e1 and lo < p < hi
                for t, (e, _d, p) in enumerate(evs)
                if t != i and t != j
            )
            if not blocked:
                for t in sorted((i, j), reverse=True):
                    del evs[t]
                changed = True
                break
    if len(evs) == 2 and evs[0][0] == evs[1][0] and evs[0][1] == -evs[1][1]:
        raise ComputationError("twist image collapsed to a trivial circle")
    return evs


def _closed(surface, events: list, oriented: bool) -> EmbeddedCurve:
    image = EmbeddedCurve(surface, tuple(rescanning_sweep(events)), oriented=oriented)
    return image.renormalized()


def reference_twist(a: EmbeddedCurve, n: int, b: EmbeddedCurve) -> EmbeddedCurve:
    """apply_twist(a, n, b), n != 0, for essential a and b, laid out on
    Fractions."""
    system = minimal_position(a, b)
    if not system.crossings:
        return b
    m = len(system.curves[0].events)
    joint_a = joint_events(system, 0)
    sigma = 1 if n > 0 else -1
    wraps = abs(n)

    def spiral_block(x) -> list:
        mu = x.sign
        se = mu * sigma
        g, r = system.slot(0, x)
        r1, Q = r + 1, len(system.crossings_on(0, g)) + 1
        mQ = m * Q
        D = mQ * wraps
        out = []
        for t in range(wraps * m):
            idx = (g + 1 + t) % m if se > 0 else (g - t) % m
            w = t // m if mu > 0 else wraps - 1 - t // m
            u = sigma * (Q * (idx - g) - r1) % mQ
            e, d, p = beside(system, joint_a[idx], 2 * (u + w * mQ) - D, 2 * D)
            out.append((e, se * d, p))
        return out

    events = []
    for g, ev in enumerate(joint_events(system, 1)):
        events.append(ev)
        for x in system.crossings_on(1, g):
            events.extend(spiral_block(x))
    return _closed(system.surface, events, b.oriented)


def reference_surgery(system, b: EmbeddedCurve, x, y) -> EmbeddedCurve:
    """The surgery image of reduction._twist_image for the adjacent splice
    cut from `system` at (x, y): its a-arc copy, a's events from X to Y a
    quarter of a joint spacing beside a, and b's complementary arc at its
    joint positions."""
    aev, bev = joint_events(system, 0), joint_events(system, 1)
    copy = [beside(system, aev[i], 1, 4) for i in system.arc(0, x, y)]
    if x.sign > 0:
        events = copy + [bev[i] for i in system.arc(1, y, x)]
    else:
        events = ([bev[i] for i in system.arc(1, x, y)]
                  + [(e, -d, p) for e, d, p in reversed(copy)])
    return _closed(system.surface, events, b.oriented)
