"""Exact overlay arrangements of curve systems on a cell surface.

A JointSystem places several embedded curves on one surface in general
position and builds their arrangement in five phases.  The first three
run when it is made, on integer ranks only; the darts and regions phases
run on the first read of a dart, cell or region, so a caller that reads
only crossings (an intersection count, a bigon-free pair that the
crossings certify, a twist) never pays for them:

  frame      the crossing points of each edge are ranked jointly (ties
             broken by curve index, a legal isotopy): the point of rank k
             among the m points of an edge sits at k/(m + 1) in the joint
             frame, and the rank carries all the information.  It reads
             each curve's own per-edge order, sorted once per curve, and
             merges the curves' sorted runs.  No position is made: a new
             curve is keyed on these ranks (beside_keys);
  chords     every face is walked ccw as a list of boundary items, each
             slot's corner and then its points, and each curve gap becomes
             a chord between two items.  An item's rank is arithmetic: the
             slot's corner rank plus the point's rank up the edge, counted
             down the edge on a -1 slot;
  crossings  the face is a convex polygon with its items in ccw rank
             order and the chords straight, so chords cross iff their end
             ranks interleave.  B crosses A from A's right to its left iff
             B starts on the ccw arc from A's start to A's end, which
             fixes every sign.  The chords that cross a chord meet it in
             the order of their ends along that arc, provided they are
             pairwise disjoint.  That holds in every build of one or two
             curves, since chords of one curve never cross.  A system in
             which three chords of one face cross pairwise is refused with
             a PreconditionError, because the ranks do not fix the order
             of their crossings.  Each crossing is a positional record,
             and its slot on both of its curves, (gap, rank on that gap),
             is recorded;
  darts      a doubly-connected edge list on integer ids whose cells are
             the complementary pieces inside single faces.  The nodes are
             the crossings, crossing k being node k, and the boundary
             items; the rotation at a crossing follows from its sign, and
             its four darts from its slots;
  regions    cells glue across the skeleton edges into regions, the
             connected components of the complement of the curve system.
             Each region knows its Euler characteristic and its boundary
             circuits, read off the abstract cut complex by walking its
             corners (each named by the dart leaving it), which are cycles
             of glued darts or chains ending at a boundary dart, so no
             geometry enters.

A boundary dart is labelled ("B", e, s, gap, fwd): the segment of face
slot (e, s) on the gap-th interval of edge e, counted from 0 up the edge
between the m points, in the direction fwd.  The two forward darts with
the same (e, gap) are glued; each is the other's partner.  A chord dart
is labelled ("C", curve, gap, k, fwd), the k-th segment of the chord of
that curve gap.

In a pair, the common case, `crossings` are exactly the pair's crossings,
since chords of one curve never cross; in a larger system they are all of
them.  The bigon queries (certifies_no_bigon, find_bigons, bigon_stack,
reroute_through_bigons) read curves 0 and 1 only: curve 0 stays put and
curve 1 moves.

That is enough to recognise discs, annuli and bigons.  Minimal position
removes bigons by pushing curve 1 across them, after sliding curve 1's
points along their edges into walk order against curve 0 once, so that
strands which run parallel no longer cross, and strands that never part
lie on curve 0's left.  A round whose pair is bigon-free builds no darts
and no regions when the crossings prove it: at most one sign, or every
loop that could bound a bigon pairing nonzero with the surface's cocycle
(JointSystem.certifies_no_bigon).  A bigon and the rectangles stacked on
it are again a bigon, so they are pushed across together: the stack grows
across the stationary side first and then across every piece of the
moving side, and a grid of nested rectangles goes in one round.  A strand
that clears r runs of the stationary curve drops 2r crossings.  Each
round peels the stack of one bigon, and reads the curve runs of each
region once, from a table of that round's arrangement.

Every curve the engine makes has one layout rule, int keys over the joint
ranks: `arc` lists a curve's events between two of its crossings, and
`beside_keys` keys events moved h = hn/hd joint spacings to one side of
their curve.  The slide, bigon removal (`moved`), the twist spiral
(twisting) and the reduction splice (reduction) key every new point so,
the connector by the edge interval it crosses, and each new curve is born
from its keys (EmbeddedCurve._from_keys).  Other modules read an
arrangement only through names without an underscore (`slot`,
`crossings_on`, `arc`, `beside_keys`, `moved`, `isotopic_in`, ...).

The single-curve predicates (null-homotopic, boundary-parallel,
separating) are answered together and cached on the curve and on its
isotopic copies.  On a surface with at most one boundary component, a
curve that pairs nonzero with the surface's cocycle is non-separating,
hence neither of the others, and builds nothing; every other curve is
answered from the regions of one arrangement of its own.  These and
isotopy read boundary circuits through one classifier, _circuit_side.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import ComputationError, PreconditionError, ValidationError
from .surface import TOPOLOGY_KEY, CellSurface, EmbeddedCurve, _find, _union


class Crossing(NamedTuple):
    """Transverse crossing of two chords inside one face.

    `sign` is the orientation of the ordered frame (direction of curve i,
    direction of curve j) against the surface orientation, with i < j.
    """

    face: int
    curve_i: int
    gap_i: int
    curve_j: int
    gap_j: int
    sign: int
    node: int  # its index in JointSystem.crossings


@dataclass(frozen=True)
class Region:
    """Connected component of the complement of the curve system."""

    index: int
    chi: int
    circuits: tuple[tuple[int, ...], ...]  # dart ids along each boundary circuit

    @property
    def is_disc(self) -> bool:
        return self.chi == 1

    @property
    def is_annulus(self) -> bool:
        return self.chi == 0 and len(self.circuits) == 2


# what JointSystem._build_cells sets, on the first read of any of them
_CELL_NAMES = frozenset((
    "_labels", "_chord_first", "_cells", "_cell_of", "_partner",
    "region_of_cell", "regions",
))

# the curves of the runs round a bigon, and round a rectangle, of curves 0, 1
_BIGONS = ([0, 1], [1, 0])
_RECTANGLES = ([0, 1, 0, 1], [1, 0, 1, 0])


class JointSystem:
    """Exact arrangement of one or more curves on a common surface.

    In a pair `crossings` are exactly the pair's crossings, and the bigon
    queries move curve 1 against a stationary curve 0 (module docstring).
    Construction runs the frame, chords and crossings phases on integer
    ranks and records each crossing's slots: that is all the crossing
    queries, `arc`, `beside_keys` and the certificate read, and none of
    them makes a Fraction.  The darts and regions phases
    run on the first read of any of the names they set (_CELL_NAMES),
    which are plain attributes from then on.  A ComputationError from
    either half carries the surface and curves of the build.

    Three chords of one face must not cross pairwise: the ranks do not fix
    the order of their crossings, so such a system raises
    PreconditionError.  A pair never has them, since chords of one curve
    never cross.  Neither does a system whose curves, all but one, are
    pairwise disjoint as placed, such as the pants curves of a preset and
    one more curve.
    """

    def __init__(self, surface: CellSurface, curves: Sequence[EmbeddedCurve]):
        if not curves:
            raise PreconditionError("need at least one curve")
        for c in curves:
            if c.surface.faces != surface.faces:
                raise PreconditionError("curve lives on a different surface")
        self.surface = surface
        self.curves = tuple(curves)
        self._carrying_inputs(self._build)

    def __getattr__(self, name: str):
        # reached only while name is not yet an instance attribute
        if name not in _CELL_NAMES:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self._carrying_inputs(self._build_cells)
        return self.__dict__[name]

    # ------------------------------------------------------------------
    # construction

    def _carrying_inputs(self, phases) -> None:
        try:
            phases()
        except ComputationError as err:
            if err.surface is None:
                err.surface, err.curves = self.surface, self.curves
            raise

    def _build(self) -> None:
        """The frame, chords and crossings phases of the module docstring,
        then the crossings' slots; the rest waits in _pending for
        _build_cells."""
        self.edge_order, self._frame_rank = self._frame()
        sizes, chords = self._chords()
        self.crossings, stops = self._crossings(sizes, chords)
        self._stops, self._ranks = self._slots(chords, stops)
        self._pending = sizes, chords

    def _build_cells(self) -> None:
        """The darts and regions phases, which set _CELL_NAMES."""
        sizes, chords = self._pending
        (self._labels, self._chord_first, phi, self._cells, self._cell_of,
         slot_first) = self._darts(sizes, chords)
        self._partner, self.region_of_cell, self.regions = self._regions(
            self._labels, phi, self._cells, self._cell_of, slot_first
        )
        del self._pending

    def _frame(self) -> tuple[dict, list]:
        """The joint frame: (edge_order, rank).

        edge_order[e] lists the points of edge e up the edge as (curve,
        event), and rank[curve][event] = k puts that event's point at
        k/(m + 1) among the m points of its edge.  Each curve's points come
        sorted (EmbeddedCurve._edge_points), so an edge that one curve
        crosses takes its run as it is, and a shared edge merges the runs
        by (position, curve): a tie, which only two curves can have, goes
        to the lower curve index, a legal isotopy.
        """
        runs: dict[str, list] = {}
        for ci, c in enumerate(self.curves):
            for e, run in c._edge_points.items():
                runs.setdefault(e, []).append((ci, run))
        edge_order: dict[str, list[tuple[int, int]]] = {}
        rank = [[0] * len(c.events) for c in self.curves]
        for e, by_curve in runs.items():
            if len(by_curve) == 1:
                (ci, run), = by_curve
                edge_order[e] = along = [(ci, ei) for _, _, ei in run]
            else:
                pts = sorted((f, p, ci, ei) for ci, run in by_curve for f, p, ei in run)
                edge_order[e] = along = [(ci, ei) for _, _, ci, ei in pts]
            for k, (ci, ei) in enumerate(along, 1):
                rank[ci][ei] = k
        return edge_order, rank

    def _chords(self) -> tuple[list, list]:
        """Per face its item count and its chords: (sizes, chords).

        Face fi is walked ccw, slot by slot, as a list of sizes[fi] boundary
        items: the slot's corner, then its m points in edge order (reversed
        when the slot runs the edge backwards).  So with r the item rank of
        the corner of slot (e, s), the point of frame rank k on e is item
        r + k on a +1 slot and r + m + 1 - k on a -1 slot: base + s*k.
        chords[fi] holds one (curve, gap, ra, rb) per curve gap living in
        the face, with ra and rb the item ranks of its two ends.
        """
        surf = self.surface
        order = self.edge_order
        base: dict[tuple, tuple[int, int]] = {}  # slot -> (face, base)
        sizes: list[int] = []
        for fi, face in enumerate(surf.faces):
            r = 0
            for e, s in face:
                m = len(order.get(e, ()))
                base[e, s] = (fi, r if s > 0 else r + m + 1)
                r += m + 1
            sizes.append(r)
        chords: list[list[tuple]] = [[] for _ in surf.faces]
        for ci, c in enumerate(self.curves):
            evs, rank = c.events, self._frame_rank[ci]
            n = len(evs)
            # gap g leaves event g by the slot (e1, -d1) and enters event
            # g + 1 by the slot (e2, d2) of the same face
            for g, (e1, d1, _) in enumerate(evs):
                h = g + 1 if g + 1 < n else 0
                e2, d2, _ = evs[h]
                fi, lo = base[e1, -d1]
                chords[fi].append(
                    (ci, g, lo - d1 * rank[g], base[e2, d2][1] + d2 * rank[h]))
        return sizes, chords

    def _crossings(self, sizes: list, chords: list) -> tuple:
        """The chords' crossings: (crossings, stops).

        stops[fi] maps each chord x of face fi that some chord crosses to
        the crossings along it in order, by index.  Face fi is a convex
        polygon with its sizes[fi] items in ccw rank order and the chords
        straight, so chords cross iff their end ranks interleave.  Each item
        ends at most one chord of the face, so one sweep of the ranks finds
        every interleaving pair.  B crosses A from A's right to A's left iff
        B starts on the ccw arc from A's start to A's end.  When the chords
        crossing a chord x are pairwise disjoint they meet x in the order of
        their ends on that arc, and their other ends run the opposite way
        round the rest of the face.  A system whose chords violate this has
        three chords crossing pairwise in one face, whose order along each
        chord the ranks do not fix: it raises PreconditionError.
        """
        # In a pair the chords crossing a chord all belong to the other
        # curve, and chords of one curve never cross: there is nothing to
        # check.
        check_triangles = len(self.curves) > 2
        crossings: list[Crossing] = []
        stops: list[dict[int, list[int]]] = []
        for fi, ch in enumerate(chords):
            # chords come curve by curve, and those of one curve never cross
            if not ch or ch[0][0] == ch[-1][0]:
                stops.append({})
                continue
            M = sizes[fi]
            # A chord opens at its first end; when it closes, the chords
            # opened after it and still open are exactly its interleaving
            # partners, so the work is proportional to the crossings found.
            # Round the face, chord x stands at its first end as x and at its
            # last as ~x.
            chord_at: list[Optional[int]] = [None] * M
            for x, (_, _, ra, rb) in enumerate(ch):
                if ra < rb:
                    chord_at[ra], chord_at[rb] = x, ~x
                else:
                    chord_at[rb], chord_at[ra] = x, ~x
            open_chords: list[int] = []  # in opening order
            pairs: list[tuple[int, int]] = []
            for x in chord_at:
                if x is None:
                    continue
                if x >= 0:
                    open_chords.append(x)
                    continue
                x = ~x
                if open_chords[-1] == x:
                    open_chords.pop()
                    continue
                pos = open_chords.index(x)
                for y in open_chords[pos + 1:]:
                    if ch[x][0] != ch[y][0]:
                        pairs.append((x, y) if x < y else (y, x))
                del open_chords[pos]
            pairs.sort()
            # per chord crossed, (near end, far end, crossing) of each chord
            # crossing it, as offsets on the ccw walk round the face from
            # its start
            hits: dict[int, list[tuple]] = {}
            for x, y in pairs:
                ca, ga, pa, qa = ch[x]
                cb, gb, pb, qb = ch[y]
                # offsets of B's ends on the ccw arc from A's start; exactly
                # one lies before A's end, on A's right
                span = (qa - pa) % M
                ob, oq = (pb - pa) % M, (qb - pa) % M
                b_from_right = ob < span
                if b_from_right == (oq < span):
                    raise ComputationError("interleaved chords failed to cross")
                node = len(crossings)
                # Each chord meets the other's end on its own right arc
                # first.  Round the face from A's start the ends run pa, pb,
                # qa, qb when B starts on A's right, so qa is on B's right;
                # else pa, qb, qa, pb, and pa is.
                oa, oz = (pa - pb) % M, (qa - pb) % M
                if b_from_right:
                    hx, hy = (ob, oq, node), (oz, oa, node)
                else:
                    hx, hy = (oq, ob, node), (oa, oz, node)
                hits.setdefault(x, []).append(hx)
                hits.setdefault(y, []).append(hy)
                # (direction of the lower curve, direction of the other):
                # B from A's right is a positive frame (A, B)
                crossings.append(
                    Crossing(fi, ca, ga, cb, gb, 1 if b_from_right else -1, node)
                    if ca < cb else
                    Crossing(fi, cb, gb, ca, ga, -1 if b_from_right else 1, node))
            face_stops = {}
            for x, h in hits.items():
                h.sort()
                if check_triangles and any(
                        h[k][1] < h[k + 1][1] for k in range(len(h) - 1)):
                    raise PreconditionError(
                        f"three curves cross pairwise in face {fi}")
                face_stops[x] = [node for _, _, node in h]
            stops.append(face_stops)
        return crossings, stops

    def _slots(self, chords: list, stops: list) -> tuple:
        """Each chord's stops and each crossing's ranks: (curve_stops, ranks).

        curve_stops[curve][gap] lists the crossings along the chord of that
        curve gap, in order, and ranks (rank_i, rank_j) give each crossing's
        place on the chords of its curves i and j.  The chords that nothing
        crosses share one empty list per curve.  Every crossing must sit
        exactly once on each of its two chords, or its node could not get
        four darts.
        """
        crossings = self.crossings
        curve_stops: list[list[list[int]]] = [[[]] * len(c.events) for c in self.curves]
        rank_i, rank_j = [-1] * len(crossings), [-1] * len(crossings)
        for ch, face_stops in zip(chords, stops):
            for x, hits in face_stops.items():
                ci, g, _, _ = ch[x]
                curve_stops[ci][g] = hits
                for k, node in enumerate(hits):
                    xg = crossings[node]
                    if ci == xg.curve_i and g == xg.gap_i and rank_i[node] < 0:
                        rank_i[node] = k
                    elif ci == xg.curve_j and g == xg.gap_j and rank_j[node] < 0:
                        rank_j[node] = k
                    else:
                        raise ComputationError("crossing node without four darts")
        if -1 in rank_i or -1 in rank_j:
            raise ComputationError("crossing node without four darts")
        return curve_stops, (rank_i, rank_j)

    def _darts(self, sizes, chords) -> tuple:
        """Doubly-connected edge list: (labels, chord_first, phi, cells,
        cell_of, slot_first).

        Nodes are integers: crossing k is node k, and boundary item r of
        face fi (_chords) is the node that boundary segment r leaves
        forward; the segment leaving the corner of slot (e, s) forward runs
        on edge interval 0 of e when s = 1 and m when s = -1, and each
        point it passes steps the interval by s.  Darts
        are integers too, in twin pairs 2k, 2k + 1, each with a label:
        ("B", e, s, gap, fwd) for the boundary segment of face slot (e, s)
        on edge interval gap, ("C", curve, gap, k, fwd) for the k-th
        segment of a chord.  Boundary segment r of face fi has forward dart
        seg0[fi] + 2r, and slot_first[fi][j] is the forward dart of slot
        j's first segment.  The chord of a curve gap has forward darts
        chord_first[curve][gap] + 2k, one more than it has stops (_slots),
        so a crossing of rank r on it leaves forward by dart
        chord_first[curve][gap] + 2r + 2.  pred[d] is the rotation
        predecessor of dart d at the node it leaves, so
        phi(d) = pred[twin(d)]; cells are the orbits of phi apart from the
        face exteriors, and cell_of is -1 on those.
        """
        crossings = self.crossings
        n_cross = len(crossings)
        order = self.edge_order
        labels: list[tuple] = []
        seg0: list[int] = []
        slot_first: list[list[int]] = []
        for face in self.surface.faces:
            seg0.append(len(labels))
            firsts = []
            for e, s in face:
                m = len(order.get(e, ()))
                firsts.append(len(labels))
                labels += [("B", e, s, gap, fwd)
                           for gap in (range(m + 1) if s > 0 else range(m, -1, -1))
                           for fwd in (True, False)]
            slot_first.append(firsts)
        n_darts = len(labels) + 2 * sum(map(len, chords)) + 4 * n_cross

        # rotation at boundary item r: the segment leaving it forward, the
        # chord end there if any, the previous segment leaving it backward
        pred = [0] * n_darts
        for fi, M in enumerate(sizes):
            f, last = seg0[fi], seg0[fi] + 2 * M - 1
            pred[f], pred[last] = last, f
            for b in range(f + 1, last, 2):
                pred[b + 1], pred[b] = b, b + 1

        stops = self._stops
        chord_first: list[list[int]] = [[0] * len(c.events) for c in self.curves]
        for fi, ch in enumerate(chords):
            f, M = seg0[fi], sizes[fi]
            for ci, g, ra, rb in ch:
                first = len(labels)
                labels += [("C", ci, g, k, fwd)
                           for k in range(len(stops[ci][g]) + 1) for fwd in (True, False)]
                chord_first[ci][g] = first
                head, tail = first, len(labels) - 1
                pred[head] = f + 2 * ra
                pred[f + 2 * ((ra - 1) % M) + 1] = head
                pred[tail] = f + 2 * rb
                pred[f + 2 * ((rb - 1) % M) + 1] = tail
        # The outgoing darts at a crossing run along +-(chord of curve i)
        # and +-(chord of curve j), each leaving forward by dart i0 or j0
        # and backward by the dart before it; +j lies ccw of +i within a
        # half turn exactly when the frame (i, j) is positive: sign > 0.
        rank_i, rank_j = self._ranks
        for node, xg in enumerate(crossings):
            i0 = chord_first[xg.curve_i][xg.gap_i] + 2 * rank_i[node] + 2
            j0 = chord_first[xg.curve_j][xg.gap_j] + 2 * rank_j[node] + 2
            i1, j1 = i0 - 1, j0 - 1
            if xg.sign > 0:  # ccw: +i, +j, -i, -j
                pred[i0], pred[j0], pred[i1], pred[j1] = j1, i0, j0, i1
            else:  # ccw: +i, -j, -i, +j
                pred[i0], pred[j1], pred[i1], pred[j0] = j0, i0, j1, i1
        phi = [pred[d ^ 1] for d in range(n_darts)]

        # cells: orbits of phi, apart from each face's exterior walk, which
        # must run through the face's backward boundary darts
        unset = -2
        cell_of: list[int] = [unset] * n_darts
        for fi, M in enumerate(sizes):
            lo, hi = seg0[fi], seg0[fi] + 2 * M
            d = lo + 1
            for _ in range(M):
                if not (lo < d < hi and d & 1 and cell_of[d] == unset):
                    raise ComputationError("exterior walk left the face boundary")
                cell_of[d] = -1
                d = phi[d]
            if d != lo + 1:
                raise ComputationError("exterior walk left the face boundary")
        cells: list[list[int]] = []
        for did in range(n_darts):
            if cell_of[did] != unset:
                continue
            cycle = []
            cidx = len(cells)
            d = did
            while cell_of[d] == unset:
                cell_of[d] = cidx
                cycle.append(d)
                d = phi[d]
            if d != did:
                raise ComputationError("broken face orbit")
            cells.append(cycle)
        return labels, chord_first, phi, cells, cell_of, slot_first

    def _regions(self, labels, phi, cells, cell_of, slot_first) -> tuple:
        """Glue cells into regions: (partner, region_of_cell, regions).

        The forward boundary darts of the two slots of an interior edge
        that share an edge interval are partners; partner is -1 on the
        other darts.  The cells they bound are merged by a union-find,
        whose sorted roots order the regions.  A corner is named by the
        dart leaving it, and gluing x to its partner makes the corner x
        leaves the one phi[partner[x]] leaves.  That map is injective, so a
        corner class is a cycle of glued darts (an interior corner) or a
        chain that ends at the one unglued dart leaving a boundary corner:
        a region has V = unglued darts + cycles, and a boundary circuit
        steps from an unglued dart d to the end of the chain from phi[d].
        """
        surf = self.surface
        n_darts = len(labels)
        partner = [-1] * n_darts
        for e in surf.interior_edges:
            fa, ja = surf.slot_position(e, 1)
            fb, jb = surf.slot_position(e, -1)
            up, down = slot_first[fa][ja], slot_first[fb][jb]
            m = len(self.edge_order.get(e, ()))
            # interval g is segment g of the +1 slot, m - g of the -1 slot
            for g in range(m + 1):
                a, b = up + 2 * g, down + 2 * (m - g)
                if labels[a][3] != g or labels[b][3] != g:
                    raise ComputationError(f"unmatched edge interval {(e, g)}")
                partner[a], partner[b] = b, a

        # union cells across glued intervals in ascending dart order
        cell_parent = list(range(len(cells)))
        for a, b in enumerate(partner):
            if b > a:
                _union(cell_parent, cell_of[a], cell_of[b])
        by_root: dict[int, list[int]] = {}
        for cidx in range(len(cells)):
            by_root.setdefault(_find(cell_parent, cidx), []).append(cidx)
        groups = [by_root[root] for root in sorted(by_root)]
        region_of_cell: list[int] = [0] * len(cells)
        for ridx, cell_idxs in enumerate(groups):
            for cidx in cell_idxs:
                region_of_cell[cidx] = ridx

        # per region its darts and, ascending, its unglued darts; the
        # chain that starts at phi of each unglued dart is walked to its end
        size = [0] * len(groups)
        unglued: list[list[int]] = [[] for _ in groups]
        placed = bytearray(n_darts)  # darts already in a corner class
        chain_end: dict[int, int] = {}
        for d, cidx in enumerate(cell_of):
            if cidx < 0:
                continue
            ridx = region_of_cell[cidx]
            size[ridx] += 1
            if partner[d] >= 0:
                continue
            unglued[ridx].append(d)
            x = phi[d]
            while partner[x] >= 0 and not placed[x]:
                placed[x] = 1
                x = phi[partner[x]]
            if placed[x]:
                raise ComputationError("boundary corner with two outgoing darts")
            placed[x] = 1
            chain_end[d] = x
        # the glued darts left over lie on cycles
        cycles = [0] * len(groups)
        for d, b in enumerate(partner):
            if b >= 0 and not placed[d]:
                cycles[region_of_cell[cell_of[d]]] += 1
                x = d
                while not placed[x]:
                    placed[x] = 1
                    x = phi[partner[x]]

        regions: list[Region] = []
        seen = bytearray(n_darts)  # unglued darts already on a circuit
        for ridx, cell_idxs in enumerate(groups):
            bare = unglued[ridx]
            # V - E + F, with V = bare + cycles and E = glued pairs + bare
            chi = cycles[ridx] - (size[ridx] - len(bare)) // 2 + len(cell_idxs)
            circuits = []
            for did in bare:
                if seen[did]:
                    continue
                circuit = []
                d = did
                while not seen[d]:
                    seen[d] = 1
                    circuit.append(d)
                    d = chain_end[d]
                if d != did:
                    raise ComputationError("boundary walk did not close")
                circuits.append(tuple(circuit))
            regions.append(
                Region(index=ridx, chi=chi, circuits=tuple(circuits))
            )
        return partner, region_of_cell, tuple(regions)

    # ------------------------------------------------------------------
    # queries

    def dart_label(self, did: int) -> tuple:
        return self._labels[did]

    def slot(self, ci: int, x: Crossing) -> tuple[int, int]:
        """(gap, r): x is the r-th crossing on that gap of curve ci."""
        if ci == x.curve_i:
            return x.gap_i, self._ranks[0][x.node]
        if ci == x.curve_j:
            return x.gap_j, self._ranks[1][x.node]
        raise PreconditionError(f"crossing is not on curve {ci}")

    def _node(self, did: int) -> int:
        """The crossing chord dart did leaves from, or -1 at a chord end."""
        _, ci, g, k, fwd = self._labels[did]
        hits = self._stops[ci][g]
        r = k - 1 if fwd else k
        return hits[r] if 0 <= r < len(hits) else -1

    def arc(self, ci: int, x: Crossing, y: Crossing) -> list[int]:
        """Event indices of curve ci strictly between crossings x and y.

        The walk runs forward along ci.  From a crossing to itself the arc
        is empty; from a crossing to an earlier one on the same gap it runs
        once around the curve.
        """
        n = len(self.curves[ci].events)
        gx, rx = self.slot(ci, x)
        gy, ry = self.slot(ci, y)
        span = (gy - gx) % n
        if span == 0 and ry < rx:
            span = n
        return [(gx + 1 + t) % n for t in range(span)]

    def beside_keys(self, ci: int, idxs, hn: int, hd: int) -> list:
        """The events idxs of curve ci moved h = hn/hd joint spacings along
        their edges, keyed (e, d, k*hd + d*hn) for joint rank k.

        Over one hd the keys order each edge as p + d*h/(m + 1) would, at
        the joint position p = k/(m + 1).  With |hn| < hd a moved point stays
        strictly between its old neighbours.  One h moves every event of ci
        to the same side of ci, so a moved arc runs parallel to it.
        """
        evs, rank, out = self.curves[ci].events, self._frame_rank[ci], []
        for i in idxs:
            e, d, _ = evs[i]
            out.append((e, d, rank[i] * hd + d * hn))
        return out

    def moved(self, keyed: list, hd: int) -> tuple[EmbeddedCurve, EmbeddedCurve]:
        """The pair born from its keys with curve 1 moved to `keyed`, keyed
        as beside_keys keys with this hd, and curve 0 keyed k*hd.  The moved
        curve is validated; the slide and the reroute are isotopies, so each
        curve takes its source's cached topology."""
        a, b = self.curves
        a2, b2 = EmbeddedCurve._from_keys(self.surface, [
            (self.beside_keys(0, range(len(a.events)), 0, hd), a.oriented),
            (keyed, b.oriented)])
        b2._validate()
        return a._share_topology(a2), b._share_topology(b2)

    def crossings_on(self, ci: int, gap: int) -> list[Crossing]:
        """The crossings on gap `gap` of curve ci, in order along it."""
        return [self.crossings[node] for node in self._stops[ci][gap]]

    def crossing_order_along(self, ci: int) -> list[Crossing]:
        """All crossings met by curve ci, in traversal order (cyclically)."""
        crossings = self.crossings
        return [crossings[node] for hits in self._stops[ci] for node in hits]

    def circuit_curve_runs(self, circuit: tuple[int, ...]) -> list[tuple]:
        """Maximal blocks of consecutive chord darts of one curve.

        Returns [(curve, [dart ids]), ...] in circuit order; surface
        boundary darts appear as (None, [dart ids]) blocks.
        """
        blocks: list[tuple] = []
        for did in circuit:
            lab = self._labels[did]
            key = lab[1] if lab[0] == "C" else None
            if blocks and blocks[-1][0] == key:
                blocks[-1][1].append(did)
            else:
                blocks.append((key, [did]))
        if len(blocks) > 1 and blocks[0][0] == blocks[-1][0]:
            last = blocks.pop()
            blocks[0] = (blocks[0][0], last[1] + blocks[0][1])
        return blocks

    @cached_property
    def _disc_runs(self) -> list:
        """Per region, circuit_curve_runs of its circuit when it is a disc
        with one circuit, else None.

        The bigon search and the stack growth of a round read every region's
        runs from this one table of the round's arrangement; its lists are
        shared and never changed.
        """
        return [self.circuit_curve_runs(reg.circuits[0])
                if reg.is_disc and len(reg.circuits) == 1 else None
                for reg in self.regions]

    def certifies_no_bigon(self) -> bool:
        """Whether the crossings alone prove curves 0 and 1 bound no bigon.

        An innermost bigon (find_bigons) has its corners at two crossings of
        opposite sign that follow each other along both curves.  Its
        boundary, the arc of curve 0 from one corner to the other and the
        crossing-free arc of curve 1 back, bounds a disc, so it pairs to 0
        with every cocycle.  So if every such loop pairs nonzero with the
        surface's cocycle (CellSurface.cocycle), there is no bigon; with two
        crossings, both arcs of curve 1 are tried.  Reads the crossings,
        their slots and the events only, never a dart or a region.  False
        says nothing: some loop pairs to 0, or the cocycle is empty.
        """
        weight = self.surface.cocycle
        if not weight:
            return False

        def flux(ci: int, x: Crossing, y: Crossing) -> int:
            evs = self.curves[ci].events
            return sum(evs[t][1] * weight[evs[t][0]] for t in self.arc(ci, x, y))

        along_a = self.crossing_order_along(0)
        place_b = {x.node: t for t, x in enumerate(self.crossing_order_along(1))}
        k = len(place_b)
        for x, y in zip(along_a, along_a[1:] + along_a[:1]):
            if x.sign == y.sign:
                continue
            # back from y to x along curve 1, against it or along it
            tx, ty = place_b[x.node], place_b[y.node]
            against, along = (tx + 1) % k == ty, (ty + 1) % k == tx
            if not (against or along):
                continue
            around = flux(0, x, y)
            if (against and around == flux(1, x, y)
                    or along and around == -flux(1, y, x)):
                return False
        return True

    def find_bigons(self) -> list[Region]:
        """Innermost discs bounded by one run of curve 0 and one of curve 1."""
        return [reg for reg, runs in zip(self.regions, self._disc_runs)
                if runs is not None and [c for c, _ in runs] in _BIGONS]

    # ------------------------------------------------------------------
    # bigon removal

    def _bigon_runs(self, region: Region) -> tuple[list, list]:
        """(run of curve 0, run of curve 1) of a bigon, as dart lists."""
        runs = self._disc_runs[region.index]
        if runs is None or [c for c, _ in runs] not in _BIGONS:
            raise PreconditionError("region is not a bigon of curves 0 and 1")
        (_, a_run), (_, b_run) = runs if runs[0][0] == 0 else runs[::-1]
        return a_run, b_run

    def bigon_stack(self, region: Region) -> list[tuple[list, list]]:
        """The bigons nested around an innermost bigon, innermost first.

        Returns (stationary runs, moving run) for each bigon of the stack.
        Each bigon's moving run is one strand, pushed across the last of its
        stationary runs; the runs before that one are cleared on the way.

        Crossing a side of a bigon leads into the regions beside it.  When
        they are rectangles (discs with one circuit whose runs alternate
        stationary, moving, stationary, moving) the union of the bigon and
        the rectangles is again a bigon (Farb-Margalit, Primer, Prop. 1.7).
        The stack grows across the stationary side first, as far as it
        goes: the union's stationary side is the rectangle's far run and its
        moving side is the bigon's, extended by the rectangle's two moving
        sides, so after r rectangles one strand clears r + 1 stationary
        runs.  Its moving side then runs through crossings with the inner
        stationary runs, in pieces.  The stack then grows across the moving
        side for as long as the region across every piece is a rectangle:
        the union's moving side is the rectangles' far runs, and each of the
        stationary runs is extended by the rectangle sides at its two ends.
        A grid of nested rectangles is peeled in one round this way, and
        every strand of the stack clears all of the stationary runs.
        """
        a_run, b_run = self._bigon_runs(region)
        seen = {region.index}
        # a run is kept as its pieces between crossings
        cleared, b_pieces = [[a_run]], [b_run]
        while (grown := self._grow_bigon(cleared[-1], [b_pieces], seen)) is not None:
            far, (b_pieces,) = grown
            cleared.append(far)
        stack = [(cleared, b_pieces)]
        while (grown := self._grow_bigon(b_pieces, cleared, seen)) is not None:
            b_pieces, cleared = grown
            stack.append((cleared, b_pieces))
        return [([_joined(run) for run in runs_a], _joined(b)) for runs_a, b in stack]

    def _grow_bigon(self, side: list, others: list, seen: set):
        """A bigon grown across its side `side`.

        `side` is given as its pieces in circuit order, the runs of one curve
        between consecutive crossings, and `others` are runs of the other
        curve, each a list of pieces, that start and end at crossings on
        `side`.  Returns (far pieces, grown others): the far run of the
        rectangle across each piece, in the order of the pieces, and each run
        of `others` extended at both ends by the rectangle sides that end and
        start at its end crossings.  Returns None when the region across a
        piece is in `seen`, lies across another piece, or is not a rectangle
        of the two curves with that piece as a side; or when an end of a run
        has no rectangle side or an extension would change direction.  The
        rectangles taken join `seen`.
        """
        labels = self._labels
        taken: list[int] = []
        far: list[list] = []
        ending: dict[int, list] = {}  # crossing -> the rectangle side ending there
        starting: dict[int, list] = {}  # crossing -> the one starting there
        for piece in side:
            nxt = self.region_of_cell[self._cell_of[piece[0] ^ 1]]
            rect = self._disc_runs[nxt]
            if (nxt in seen or nxt in taken or rect is None
                    or [c for c, _ in rect] not in _RECTANGLES):
                return None
            twins = sorted(d ^ 1 for d in piece)
            k = next((k for k, (_, darts) in enumerate(rect)
                      if sorted(darts) == twins), None)
            if k is None:
                return None
            before, after = rect[k - 1][1], rect[(k + 1) % 4][1]
            ending[self._node(before[-1] ^ 1)] = before
            starting[self._node(after[0])] = after
            far.append(rect[(k + 2) % 4][1])
            taken.append(nxt)
        grown = []
        for run in others:
            head = ending.get(self._node(run[0][0]))
            tail = starting.get(self._node(run[-1][-1] ^ 1))
            if head is None or tail is None:
                return None
            fwd = labels[run[0][0]][4]
            if any(labels[d][4] != fwd for d in head + tail):
                return None
            grown.append([head, *run, tail])
        seen.update(taken)
        return far, grown

    def _run_arc(self, darts: list) -> tuple[Crossing, Crossing, list[int]]:
        """(P, Q, events) of a run of one curve's darts from corner P to Q.

        The events are those of its curve between P and Q, in the curve's
        own order.
        """
        labels = [self._labels[d] for d in darts]
        _, ci, _, _, fwd = labels[0]
        if any(l[4] != fwd for l in labels):
            raise ComputationError("bigon run changes direction",
                                   self.surface, self.curves)
        p, q = self._node(darts[0]), self._node(darts[-1] ^ 1)
        if p < 0 or q < 0:
            raise ComputationError("bigon runs do not share their corners",
                                   self.surface, self.curves)
        P, Q = self.crossings[p], self.crossings[q]
        return P, Q, self.arc(ci, P, Q) if fwd else self.arc(ci, Q, P)

    def _bigon_splice(self, darts_a: list, darts_b: list, sn: int, sd: int):
        """Splice data for pushing curve 1's side of a bigon across.

        The bigon's last run of curve 0 goes from corner P to corner Q, as
        darts_a, and its run of curve 1 back from Q to P, as darts_b.
        Returns (g_enter, m, new_events): curve 1 keeps its event at gap
        g_enter, drops the next m events and runs new_events in their place.
        Each replacement event is curve 0's event moved sn/sd joint spacings
        to the far side, keyed over hd = sd (beside_keys).
        """
        a_fwd = self._labels[darts_a[0]][4]
        b_fwd = self._labels[darts_b[0]][4]
        P, Q, a_arc = self._run_arc(darts_a)
        # b_arc: the events the moving run drops, in curve 1's own order
        Q_b, P_b, b_arc = self._run_arc(darts_b)
        if (Q_b.node, P_b.node) != (Q.node, P.node):
            raise ComputationError("bigon runs do not share their corners",
                                   self.surface, self.curves)

        # In curve 1's own direction the run enters at one corner and leaves
        # at the other; the replacement strand walks curve 0's side between
        # them, along curve 0 iff exactly one of the runs follows its curve.
        enter = Q if b_fwd else P
        along_a = a_fwd != b_fwd
        # The bigon sits on curve 0's left iff its run is forward; the
        # rerouted strand is pushed across curve 0 to the far side.
        hn = -sn if a_fwd else sn
        new_events = self.beside_keys(0, a_arc, hn, sd)
        if not along_a:
            new_events = [(e, -d, p) for e, d, p in reversed(new_events)]
        return self.slot(1, enter)[0], len(b_arc), new_events

    def reroute_through_bigons(self, regions: Sequence[Region]) -> tuple:
        """Push curve 1 across the stack of the first bigon with curve 0.

        The innermost bigon regions[0] brings the stack of bigons nested
        around it (see bigon_stack), and every strand of the stack is pushed
        across in this one call: strand i follows the last stationary run of
        the i-th bigon, and the parallel copies are ordered the way one
        bigon per call would leave them, the outermost strand nearest the
        stationary curve.  A strand whose events of curve 1 overlap those of
        a strand already taken ends the stack there, so the splices never
        interfere.  The other bigons are left to later rounds.  Returns
        (pair, cleared): the pair with curve 1 rerouted (moved), and the
        number of stationary runs the taken strands clear; a strand that
        clears r runs drops the raw crossing count by exactly 2r.
        """
        nb = len(self.curves[1].events)
        stack = self.bigon_stack(regions[0])
        depth = len(stack)
        hd = 3 * depth
        splices: list[tuple[int, int, list]] = []
        cleared = 0
        used_b: set[int] = set()
        for i, (runs_a, darts_b) in enumerate(stack):
            g, m, new_events = self._bigon_splice(runs_a[-1], darts_b, depth - i, hd)
            if m >= nb:
                # Run wraps the whole curve: every old event is replaced.
                if splices:
                    break
                if not new_events:
                    raise ComputationError(
                        "bigon removal would erase the curve",
                        self.surface, self.curves)
                return self.moved(new_events, hd), len(runs_a)
            block = {(g + t) % nb for t in range(m + 1)}
            if block & used_b:
                break
            splices.append((g, m, new_events))
            cleared += len(runs_a)
            used_b |= block

        kept = self.beside_keys(1, range(nb), 0, hd)
        skip = {g: (m, evs) for g, m, evs in splices}
        out: list[tuple[str, int, int]] = []
        start = t = splices[0][0]
        while t < start + nb:
            m, evs = skip.get(t % nb, (0, ()))
            out += [kept[t % nb], *evs]
            t += m + 1
        return self.moved(out, hd), cleared


def _joined(pieces: list) -> list:
    """A run kept as its pieces, as one dart list."""
    return [d for piece in pieces for d in piece]


# ----------------------------------------------------------------------
# minimal position


def minimal_position(a: EmbeddedCurve, b: EmbeddedCurve) -> JointSystem:
    """Isotope b until no bigon with a remains; a is never rerouted.

    Returns the final arrangement; its curves (a', b') are the pair in
    minimal position.  a' differs from a only by where its points sit on
    their edges, in the same order (JointSystem.moved).
    The common case returns after one arrangement build, with only its
    crossings made, by one of two exits: crossings of at most one sign,
    none included; or crossings of both signs that the cocycle certifies
    bigon-free (JointSystem.certifies_no_bigon).  The darts and regions of
    an arrangement are built only when a round's certificate fails and it
    looks for bigons, or when a caller reads them.

    Each curve is spaced in its own frame, so the order of two curves'
    points on a shared edge is arbitrary and parallel strands cross for
    nothing.  So the first time the certificate fails, b slides along its
    edges into walk order against a (_slid), ordering strands by where they
    part (the linking rule of Cohen-Lustig), before any bigon is looked
    for.  Strands that never part go to a's left, so two curves with the
    same cyclic itinerary come out disjoint.  b keeps its own order on
    every edge and a does not move: an isotopy, so the slid count must keep
    the parity of the count as placed.  When some point moved, the slid
    pair is kept, even if it crosses more, and its certificate and bigons
    are taken as below.  It slides at most once per call: sliding every
    round walks long parallel strands of pairs that are nearly tight.

    Each further round builds one arrangement and peels the first innermost
    bigon together with the stack of bigons nested around it (see
    JointSystem.bigon_stack and reroute_through_bigons), so a stack costs
    one round whatever its depth; a stack grows across both sides of its
    bigon, so a grid of nested rectangles costs one round too.  A round
    removes at least one bigon, so k crossings take at most k/2 rounds.

    If the slid curve does not assemble into an embedded curve, the slide
    changes the parity of the crossing count, or a round's reroute does not
    assemble or drops the crossing count by other than two per stationary
    run its strands clear, the ComputationError raised carries the input
    pair (a, b), which replays it.
    """
    if a.surface.faces != b.surface.faces:
        raise PreconditionError("curves live on different surfaces")
    pair = (a, b)
    system = JointSystem(a.surface, pair)
    slide = True
    while True:
        k = len(system.crossings)
        if len({c.sign for c in system.crossings}) <= 1 or system.certifies_no_bigon():
            return system
        if slide:
            slide = False
            try:
                slid = _slid(system)
            except ValidationError as exc:
                raise ComputationError(
                    f"slid curve did not assemble: {exc}", a.surface, pair
                ) from exc
            if slid is not None:
                system = JointSystem(a.surface, slid)
                if (len(system.crossings) - k) % 2:
                    raise ComputationError(
                        f"sliding changed the crossing parity: {k} to "
                        f"{len(system.crossings)}", a.surface, pair)
                continue
        bigons = system.find_bigons()
        if not bigons:
            return system
        try:
            moved, removed = system.reroute_through_bigons(bigons)
        except ValidationError as exc:
            raise ComputationError(
                f"bigon reroute did not assemble: {exc}", a.surface, pair
            ) from exc
        system = JointSystem(a.surface, moved)
        if len(system.crossings) != k - 2 * removed:
            raise ComputationError(
                f"bigon removal changed crossings to {len(system.crossings)}",
                a.surface, pair)


def _slid(system: JointSystem) -> Optional[tuple]:
    """The pair with curve 1 slid along its edges into walk order against
    curve 0 (JointSystem.moved), or None when no point of it changes its
    place.

    On each edge the curves' points are merged, each keeping its own order.
    Two points are compared by walking their strands forward across the
    edges in curve 0's direction (curve 1 reversed if it crosses the other
    way) until they part, in the face entered at their last shared
    crossing: the strand that leaves it fewer ccw slots after the entry
    slot runs on the travellers' right.  Strands that agree for na + nb - 1
    steps never part (Fine-Wilf: itineraries of periods na and nb that
    agree that long are powers of one word, and an essential simple curve's
    itinerary is primitive, so the two are the same cyclic word), and
    curve 0 runs on their right, so that curve 1 lies on curve 0's left on
    every edge.  The walk from a later pair of points it passed, one step
    on along both strands, parts at the same place, so its side is kept
    for those pairs and no walk is repeated within a call.  Crossing in
    direction -1 the edge's head is on the right, so curve 0's point goes
    above exactly when "curve 0 on the right" equals "direction -1".
    With hd = nb + 1, which exceeds every run, the t-th point of a run of
    curve 1 in the gap above curve 0's point of joint rank r (0 below the
    lowest) is keyed r*hd + t, and the moved curve is validated.
    """
    surf = system.surface
    # the joint frame moves points along their edges only, so the curves'
    # own events give every edge and direction
    ea, eb = (c.events for c in system.curves)
    na, nb = len(ea), len(eb)

    # "curve 0 on the right" for each pair of points a walk has passed
    side: dict[tuple[int, int], bool] = {}

    def a_above(i: int, j: int) -> bool:
        right = side.get((i, j))
        if right is None:
            # curve 1 walks the way that crosses the edge as curve 0 does
            sb = ea[i][1] * eb[j][1]
            right = True
            for t in range(1, na + nb):
                e, d, _ = ea[(i + t) % na]
                f, g, _ = eb[(j + sb * t) % nb]
                if e != f or d != g * sb:
                    last, ld, _ = ea[(i + t - 1) % na]
                    face, s0 = surf.slot_position(last, -ld)
                    n = len(surf.faces[face])
                    right = ((surf.slot_position(e, d)[1] - s0) % n
                             < (surf.slot_position(f, g * sb)[1] - s0) % n)
                    break
            # the walk from each later pair it passed parts at the same place
            for u in range(1, t):
                side[(i + u) % na, (j + sb * u) % nb] = right
        return right == (ea[i][1] == -1)

    keys = None
    hd = nb + 1
    for e, order in system.edge_order.items():
        a_pts = [(k, i) for k, (ci, i) in enumerate(order, 1) if ci == 0]
        if not a_pts or len(a_pts) == len(order):
            continue
        # each point of curve 1 up the edge with its gap, the number of
        # curve 0's points below it, after the merge and as placed
        gaps, placed, p = [], [], 0
        for k, (ci, j) in enumerate(order, 1):
            if ci == 1:
                placed.append(k - 1 - len(placed))
                while p < len(a_pts) and not a_above(a_pts[p][1], j):
                    p += 1
                gaps.append((j, p))
        if [g for _, g in gaps] == placed:
            continue
        if keys is None:
            keys = system.beside_keys(1, range(nb), 0, hd)
        # a run of curve 1's points in order in its gap of curve 0's
        ranks = [0, *(k for k, _ in a_pts)]
        for p, run in groupby(gaps, key=itemgetter(1)):
            for t, (j, _) in enumerate(run, 1):
                keys[j] = (e, eb[j][1], ranks[p] * hd + t)
    if keys is None:
        return None
    return system.moved(keys, hd)


def geometric_intersection_number(a: EmbeddedCurve, b: EmbeddedCurve) -> int:
    return len(minimal_position(a, b).crossings)


# ----------------------------------------------------------------------
# region-based predicates (single curve)


def _circuit_side(system: JointSystem, circuit):
    """What a boundary circuit runs along: "B" when it is surface boundary
    only, i when it is one full traversal of curve i, else None."""
    sides = {lab[1] if lab[0] == "C" else "B"
             for lab in map(system.dart_label, circuit)}
    if len(sides) != 1:
        return None
    (side,) = sides
    if side == "B" or len(circuit) == len(system.curves[side].events):
        return side
    return None


def _region_with(system: JointSystem, chi: int, sides: set) -> Optional[Region]:
    """The first region of Euler characteristic chi with one boundary
    circuit of each side in `sides` (_circuit_side), or None."""
    for reg in system.regions:
        if (reg.chi == chi and len(reg.circuits) == len(sides)
                and {_circuit_side(system, c) for c in reg.circuits} == sides):
            return reg
    return None


@dataclass(frozen=True)
class CurveTopology:
    """What the arrangement of a curve alone says about it."""

    null_homotopic: bool  # bounds a disc
    boundary_parallel: bool  # cobounds an annulus with a boundary circuit
    separating: bool  # its complement has two regions


_NON_SEPARATING = CurveTopology(False, False, False)


def _region_topology(c: EmbeddedCurve) -> CurveTopology:
    """Topology of c read off the regions of its own arrangement."""
    system = JointSystem(c.surface, (c,))
    return CurveTopology(
        null_homotopic=_region_with(system, 1, {0}) is not None,
        boundary_parallel=_region_with(system, 0, {0, "B"}) is not None,
        separating=len(system.regions) == 2,
    )


def _cocycle_decides(c: EmbeddedCurve) -> bool:
    """Whether the cocycle shows c non-separating, so neither null-homotopic
    nor boundary-parallel.

    The pairing of c with CellSurface.cocycle depends only on its class in
    H1(S).  A null-homotopic curve has class 0, and so does a separating
    one when S has at most one boundary component: one side of it holds no
    boundary, and c bounds that side.  A boundary-parallel curve separates.
    So a nonzero pairing decides, on such a surface; with two or more
    boundary components a separating curve can pair nonzero.  False says
    nothing.
    """
    surf = c.surface
    weight = surf.cocycle
    return (surf.num_boundary <= 1 and bool(weight)
            and sum(d * weight[e] for e, d, _ in c.events) != 0)


def _curve_topology(c: EmbeddedCurve) -> CurveTopology:
    """Topology of c, cached on c and its copies.

    A curve that the cocycle decides (_cocycle_decides) builds nothing;
    any other is answered from one arrangement of its own, of which only
    the answers are kept.
    """
    topology = c.__dict__.get(TOPOLOGY_KEY)
    if topology is None:
        topology = _NON_SEPARATING if _cocycle_decides(c) else _region_topology(c)
        c.__dict__[TOPOLOGY_KEY] = topology
    return topology


def is_null_homotopic(c: EmbeddedCurve) -> bool:
    return _curve_topology(c).null_homotopic


def is_boundary_parallel(c: EmbeddedCurve) -> bool:
    return _curve_topology(c).boundary_parallel


def is_separating(c: EmbeddedCurve) -> bool:
    return _curve_topology(c).separating


def curves_isotopic(a: EmbeddedCurve, b: EmbeddedCurve) -> bool:
    """Free (ambient) isotopy; orientation must match if both are oriented."""
    if a.surface.faces != b.surface.faces:
        return False
    oriented = a.oriented and b.oriented
    if a.with_orientation(oriented) == b.with_orientation(oriented):
        return True
    return isotopic_in(minimal_position(a, b), oriented)


def isotopic_in(system: JointSystem, oriented: bool) -> bool:
    """Whether curves 0 and 1 of a minimal-position arrangement are isotopic.

    They are when they do not cross and cobound an annulus; with `oriented`
    their orientations must agree as well.
    """
    if system.crossings:
        return False
    reg = _region_with(system, 0, {0, 1})
    if reg is None or not oriented:
        return reg is not None
    # With the region kept on the left, parallel same-oriented curves are
    # walked in opposite senses (one forward, one backward).
    return len({system.dart_label(c[0])[4] for c in reg.circuits}) == 2


# ----------------------------------------------------------------------
# connector construction


def _disjoint_cell_paths(adj, sources, sinks):
    """Cell-disjoint paths from every source, each to a sink of its own.

    A unit flow in which every cell carries at most one path: cell u splits
    into an in-node 2u and an out-node 2u + 1.  One augmenting BFS per
    source, trying neighbours in adj order, finds the paths exactly when
    they exist (Menger).  A cell that is both a source and a sink is a path
    by itself.  Each path is [(cell, None), (cell, dart), ...] with the dart
    on the previous cell's side of the glued interval; the k-th path starts
    at sources[k].  Returns None when some source cannot be routed.
    """
    S, T = -1, -2
    res: dict[int, dict[int, int]] = defaultdict(dict)  # residual capacities
    for u, nbrs in adj.items():
        res[2 * u][2 * u + 1] = 1
        for v, _ in nbrs:
            if v != u:
                res[2 * u + 1][2 * v] = 1
    for s in sources:
        res[S][2 * s] = 1
    for t in sinks:
        res[2 * t + 1][T] = 1

    for _ in sources:
        prev = {S: S}
        queue = deque([S])
        while queue and T not in prev:
            u = queue.popleft()
            for v, free in res[u].items():
                if free and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if T not in prev:
            return None
        v = T
        while v != S:
            u = prev[v]
            res[u][v] -= 1
            res[v][u] = res[v].get(u, 0) + 1
            v = u

    def walk(u):
        # the flow leaves a cell's out-node along exactly one arc; it goes
        # through the first dart to that cell in adj order
        path = [(u, None)]
        while not res[T].get(2 * u + 1):
            u, d = next((v, d) for v, d in adj[u] if res[2 * v].get(2 * u + 1))
            path.append((u, d))
        return path

    return [walk(s) for s in sources]


def connecting_curve(system: JointSystem, j: Optional[int] = None,
                     max_candidates: Optional[int] = None) -> Optional[EmbeddedCurve]:
    """Embedded loop crossing system curves 0 and j once each, others never.

    Such a loop meets the complement of the system in two arcs, each inside
    a single region, pinned at one crossing with curve 0 and one with
    curve j.  Candidates pair a chord segment of curve 0 with one of curve
    j whose flanking regions agree and whose four flank cells hold at least
    three distinct cells.  The two arcs are cell-disjoint paths, one from
    each flank cell of the first segment to a flank cell of the second,
    found by one flow search (_disjoint_cell_paths) through glued edge
    intervals; the loop is read off as one event per interval crossed.  A
    flank cell shared by the two segments holds a whole arc, the straight
    piece from the crossing with curve 0 to the crossing with curve j, and
    crosses no interval.  Cells are convex, each hosts at most one piece
    of the loop, and the arcs never touch a chord, so the crossing counts
    are exactly 1, 1, and 0 by construction; a final check guards the
    bookkeeping.  Returns None when no candidate pairing routes, or after
    max_candidates candidates.

    With j omitted the loop crosses curve 0 once and no other curve: it is
    pinned at a single crossing with curve 0 and meets the complement in
    one arc, the path from one flank cell of the segment to the other.
    """
    labels = system._labels
    partner = system._partner
    cell_of = system._cell_of
    region_of = system.region_of_cell

    adj: dict[int, list[tuple[int, int]]] = {c: [] for c in range(len(system._cells))}
    for f_id, other in enumerate(partner):
        if other >= 0:
            adj[cell_of[f_id]].append((cell_of[other], f_id))
    for u in adj:
        adj[u].sort(key=lambda t: (t[0], labels[t[1]][1:]))

    def flanks(ci):
        out = []
        for first, hits in zip(system._chord_first[ci], system._stops[ci]):
            for f_id in range(first, first + 2 * len(hits) + 2, 2):
                out.append((cell_of[f_id], cell_of[f_id + 1]))
        return out

    def event_of(f_id):
        # keyed by the glued edge interval, the gap-th up the edge between
        # the joint frame's points
        _, e, s, gap, _ = labels[partner[f_id]]
        return (e, -s, gap)

    def reversed_path(path):
        out = [(path[-1][0], None)]
        for k in range(len(path) - 1, 0, -1):
            out.append((path[k - 1][0], partner[path[k][1]]))
        return out

    def synthesize(*strands):
        evs = [event_of(d) for strand in strands for _, d in strand[1:]]
        try:
            (c,) = EmbeddedCurve._from_keys(system.surface, [(evs, False)])
            c._validate()
        except ValidationError:
            return None
        for m, cm in enumerate(system.curves):
            if geometric_intersection_number(c, cm) != (1 if m in (0, j) else 0):
                return None
        return c

    def candidates():
        for af, ab in flanks(0):
            if j is None:
                if region_of[af] == region_of[ab]:
                    yield (af,), (ab,)
                continue
            for bf, bb in flanks(j):
                if (len({af, ab, bf, bb}) >= 3
                        and {region_of[af], region_of[ab]} == {region_of[bf], region_of[bb]}):
                    yield (af, ab), (bf, bb)

    for tried, (sources, sinks) in enumerate(candidates(), 1):
        if max_candidates is not None and tried > max_candidates:
            return None
        paths = _disjoint_cell_paths(adj, sources, sinks)
        if paths is not None:
            c = synthesize(paths[0], *map(reversed_path, paths[1:]))
            if c is not None:
                return c
    return None
