"""Reference crossings phase: chords as straight segments between points
of a parabola.

Each face's boundary items sit at the integer points (t, t^2), t the
item's rank, so a chord runs between the points of its two end ranks,
and each chord's crossings are ordered by their exact Fraction parameter
along it.  Unlike the rank rule of the package, this places any system of
straight chords, three chords crossing pairwise in one face included, as
long as no three of them pass through one point.

The chords come from walking each face's items one by one (item_walk_chords),
the walk whose ranks JointSystem._chords now computes arithmetically.
"""

import itertools
from fractions import Fraction

from dehnkit.overlay import Crossing, JointSystem


def item_walk_chords(system):
    """(sizes, chords) of JointSystem._chords, by walking each face's items:
    slot by slot, the corner and then the slot's points in edge order,
    reversed on a -1 slot.  A point of event ei starts the chord of gap ei
    in the face it exits into and ends the chord of gap ei - 1 in the face
    it enters from."""
    surf = system.surface
    start, end, sizes = {}, {}, []
    for face in surf.faces:
        r = 1  # the first slot's corner is item 0
        for e, s in face:
            along = system.edge_order.get(e, [])
            for ci, ei in along if s > 0 else reversed(along):
                d = system.curves[ci].events[ei][1]
                (start if s == -d else end)[ci, ei] = r
                r += 1
            r += 1  # the next slot's corner
        sizes.append(r - 1)
    chords = [[] for _ in surf.faces]
    for ci, c in enumerate(system.curves):
        n = len(c.events)
        for g, (e, d, _) in enumerate(c.events):
            chords[surf.face_of_slot(e, -d)].append(
                (ci, g, start[ci, g], end[ci, (g + 1) % n]))
    return sizes, chords


def parabola_crossings(chords):
    """Returns ([(face, curve_i, gap_i, curve_j, gap_j, sign)], stops), with
    stops[fi][x] the indices of the crossings along chord x of face fi, for
    every chord x of the face, crossed or not."""
    crossings = []
    stops = []
    for fi, ch in enumerate(chords):
        pairs = sorted(
            (x, y)
            for x, y in itertools.combinations(range(len(ch)), 2)
            if ch[x][0] != ch[y][0]
            and (min(ch[x][2:]) < min(ch[y][2:]) < max(ch[x][2:]))
            != (min(ch[x][2:]) < max(ch[y][2:]) < max(ch[x][2:]))
        )
        hits = [[] for _ in ch]
        for x, y in pairs:
            A, B = ch[x], ch[y]
            p, q = (A[2], A[2] ** 2), (A[3], A[3] ** 2)
            a, b = (B[2], B[2] ** 2), (B[3], B[3] ** 2)
            d1 = (q[0] - p[0], q[1] - p[1])
            d2 = (b[0] - a[0], b[1] - a[1])
            w = (a[0] - p[0], a[1] - p[1])
            den = d1[0] * d2[1] - d1[1] * d2[0]
            s = Fraction(w[0] * d2[1] - w[1] * d2[0], den)
            t = Fraction(w[0] * d1[1] - w[1] * d1[0], den)
            assert 0 < s < 1 and 0 < t < 1
            a_first = A[0] < B[0]
            ij, ji = (A, B) if a_first else (B, A)
            sign = 1 if (den > 0) == a_first else -1
            hits[x].append((s, len(crossings)))
            hits[y].append((t, len(crossings)))
            crossings.append((fi, ij[0], ij[1], ji[0], ji[1], sign))
        face_stops = []
        for h in hits:
            h.sort()
            assert len({lam for lam, _ in h}) == len(h), "three chords concurrent"
            face_stops.append([node for _, node in h])
        stops.append(face_stops)
    return crossings, stops


def assert_matches_the_parabola(curves):
    """The package's arrangement of curves has the item walk's chords and
    the reference's crossings: the same crossings in the same order, with
    the same signs, and the same order along every chord, the chords
    nothing crosses included."""
    system = JointSystem(curves[0].surface, curves)
    sizes, chords = item_walk_chords(system)
    assert system._chords() == (sizes, chords)
    want, want_stops = parabola_crossings(chords)
    got = [(c.face, c.curve_i, c.gap_i, c.curve_j, c.gap_j, c.sign)
           for c in system.crossings]
    assert got == want
    for fi, ch in enumerate(chords):
        for (ci, g, _, _), stops in zip(ch, want_stops[fi]):
            assert system._stops[ci][g] == stops, (fi, ci, g)


class ParabolaSystem(JointSystem):
    """A JointSystem whose crossings phase is parabola_crossings.

    The darts and regions phases are the package's, so this arrangement
    can answer region questions about systems the package refuses.
    """

    def _crossings(self, sizes, chords):
        found, stops = parabola_crossings(chords)
        return ([Crossing(*c, node=k) for k, c in enumerate(found)],
                [{x: h for x, h in enumerate(face_stops) if h} for face_stops in stops])
