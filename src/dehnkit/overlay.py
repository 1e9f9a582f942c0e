"""Exact overlay arrangements of curve systems on a cell surface.

A JointSystem places several embedded curves on one surface in general
position and builds their arrangement in five phases:

  frame      surface.joint_frame renormalises the crossing points of each
             edge jointly (ties broken by curve index, a legal isotopy):
             the k-th of the m points on an edge moves to (k + 1)/(m + 1),
             so its integer rank carries all the information;
  chords     every face is walked as a ccw list of boundary items (slot
             corners and points), and each curve gap becomes a chord
             between two items;
  crossings  the face is realised as a convex polygon with its items at
             integer points (t, t^2) of a parabola, the chords as straight
             segments; chords cross iff their end ranks interleave, and
             each crossing's sign is that of an integer cross product.
             The crossing parameters along a chord are exact Fractions
             that order the crossings on it;
  darts      a doubly-connected edge list whose cells are the
             complementary pieces inside single faces; the rotation at a
             crossing follows from its sign.  Each crossing's slot on
             both of its curves, (gap, rank on that gap), is recorded;
  regions    cells glue across the skeleton edges into regions, the
             connected components of the complement of the curve system.
             Each region knows its Euler characteristic and its boundary
             circuits, computed on the abstract cut complex by an integer
             union-find over corners (each named by the dart arriving at
             it), so no geometry enters.

A boundary dart is labelled ("B", e, s, gap, fwd): the segment of face
slot (e, s) on the gap-th interval of edge e, counted from 0 up the edge
between the m points, in the direction fwd.  The two forward darts with
the same (e, gap) are glued.  A chord dart is labelled ("C", curve, gap,
k, fwd), the k-th segment of the chord of that curve gap.

That is enough to recognise discs, annuli, bigons, and to cut the surface
along a curve.  Minimal position removes bigons by pushing one curve across
them; a bigon and the rectangles stacked on it (nested bigons) are pushed
across together.

Every curve surgery reads its new curve off the joint frame: `arc` lists
the events of a curve between two of its crossings, from their slots, and
`beside` moves an event a fraction of the joint spacing to one side of
its curve.  Bigon removal, the twist spiral (twisting) and the reduction
splice (reduction) build all their new points this way.

The single-curve predicates (null-homotopic, boundary-parallel,
separating) share one arrangement per curve, and their answers are cached
on the curve and on its isotopic copies.

Degenerate triple concurrencies cannot occur for two curves and are
dissolved for larger systems by retrying with polygon points perturbed by
an integer wobble quadratic in their rank; the region structure does not
depend on the choice.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ComputationError, PreconditionError, ValidationError
from .surface import TOPOLOGY_KEY, CellSurface, EmbeddedCurve, joint_frame

Vec = tuple[int, int]


def _sub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def _cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _find(parent: list[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent: list[int], a: int, b: int) -> int:
    """Merge the classes of a and b; 1 if they were apart, else 0."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return 0
    parent[ra] = rb
    return 1


class _Degenerate(Exception):
    """Triple concurrency in one face; rebuild with perturbed points."""


@dataclass(frozen=True)
class Crossing:
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
    node: tuple


@dataclass(frozen=True)
class Region:
    """Connected component of the complement of the curve system."""

    index: int
    cells: frozenset
    chi: int
    circuits: tuple[tuple[int, ...], ...]  # dart ids along each boundary circuit

    @property
    def is_disc(self) -> bool:
        return self.chi == 1

    @property
    def is_annulus(self) -> bool:
        return self.chi == 0 and len(self.circuits) == 2


class JointSystem:
    """Exact arrangement of one or more curves on a common surface."""

    def __init__(self, surface: CellSurface, curves: Sequence[EmbeddedCurve]):
        if not curves:
            raise PreconditionError("need at least one curve")
        for c in curves:
            if c.surface.faces != surface.faces:
                raise PreconditionError("curve lives on a different surface")
        self.surface = surface
        self.curves = tuple(curves)
        for attempt in range(32):
            try:
                self._build(attempt)
                return
            except _Degenerate:
                continue
        raise ComputationError("could not resolve arrangement degeneracies")

    # ------------------------------------------------------------------
    # construction

    def _build(self, attempt: int) -> None:
        """Build the arrangement; attempt > 0 perturbs the polygon points."""
        self.edge_order, self.events = joint_frame(self.curves)
        items, chords = self._chords(self.edge_order, self.events)
        self.crossings, self._cross_of_node, stops = self._crossings(
            items, chords, attempt
        )
        (self._starts, self._labels, self._chord_darts, self._slots, self._cells,
         self._cell_of) = self._darts(items, chords, stops, self._cross_of_node,
                                      self.events)
        self._partner, self.region_of_cell, self.regions = self._regions(
            self._labels, self._cells, self._cell_of
        )

    def _chords(self, edge_order: dict, events: list) -> tuple[list, list]:
        """Per-face boundary items and chords: (items, chords).

        items[fi] walks face fi ccw, slot by slot: the slot's first corner,
        then its points in edge order (reversed when the slot runs the edge
        backwards).  An item (e, s, gap, point) starts the boundary segment
        on edge interval `gap`, counted from 0 up the edge frame; point is
        (curve, event, s), or None at a corner.  chords[fi] holds one
        (curve, gap, ra, rb) per curve gap living in the face, with ra and rb
        the item ranks of its two ends.
        """
        surf = self.surface
        items: list[list[tuple]] = []
        rank_of: dict[tuple[int, int, int], int] = {}
        for face in surf.faces:
            row: list[tuple] = []
            for e, s in face:
                along = edge_order.get(e, ())
                m = len(along)
                row.append((e, s, 0 if s > 0 else m, None))
                for k in range(m) if s > 0 else reversed(range(m)):
                    ci, ei = along[k]
                    rank_of[(ci, ei, s)] = len(row)
                    # the segment leaving the k-th point in the slot's direction
                    row.append((e, s, k + 1 if s > 0 else k, (ci, ei, s)))
            items.append(row)

        chords: list[list[tuple]] = [[] for _ in surf.faces]
        for ci, evs in enumerate(events):
            n = len(evs)
            for g in range(n):
                e1, d1, _ = evs[g]
                d2 = evs[(g + 1) % n][1]
                chords[surf.face_of_slot(e1, -d1)].append(
                    (ci, g, rank_of[(ci, g, -d1)], rank_of[(ci, (g + 1) % n, d2)])
                )
        return items, chords

    def _crossings(self, items: list, chords: list, attempt: int) -> tuple:
        """The chords' crossings: (crossings, cross_of_node, stops).

        Face fi is the convex polygon with its items at (t, t^2), t the
        item's rank, or 10^4 times it plus a wobble quadratic in the rank
        when attempt > 0.
        stops[fi][x] lists the crossing nodes along chord x in order.  This
        is the only phase that depends on the points, so the only one that
        raises _Degenerate.
        """
        chirality = self.surface.chirality

        def t_of(rank: int) -> int:
            if attempt == 0:
                return rank
            # quadratic in the rank: an affine wobble would map the points
            # (t, t^2) affinely and keep their triple concurrencies.  This
            # is t = rank + wob/10^4 with x scaled by 10^4 and y by 10^8,
            # which changes no crossing parameter and no sign
            wob = (rank * rank * 7919 + rank * 104729 + attempt * 2654435761) % 997
            return rank * 10000 + wob

        crossings: list[Crossing] = []
        cross_of_node: dict[tuple, Crossing] = {}
        stops: list[list[list[tuple]]] = []
        for fi, ch in enumerate(chords):
            pts = [(t, t * t) for t in map(t_of, range(len(items[fi])))]
            # Straight chords in convex position cross iff their endpoint
            # ranks interleave.  Sweep the cut boundary circle once; when a
            # chord closes, the still-open chords that opened inside it are
            # exactly its interleaving partners (a sorted suffix), so the
            # work is proportional to the crossings found, not all pairs.
            ends = []
            for x, (_, _, ra, rb) in enumerate(ch):
                ends.append((min(ra, rb), x))
                ends.append((max(ra, rb), x))
            ends.sort()
            open_at: dict[int, int] = {}  # chord -> its lo rank
            open_by_lo: list[tuple[int, int]] = []  # sorted (lo, chord)
            pairs: list[tuple[int, int]] = []
            for rank, x in ends:
                if x not in open_at:
                    open_at[x] = rank
                    insort(open_by_lo, (rank, x))
                    continue
                pos = bisect_left(open_by_lo, (open_at[x], x))
                for _, y in open_by_lo[pos + 1:]:
                    if ch[x][0] != ch[y][0]:
                        pairs.append((min(x, y), max(x, y)))
                open_by_lo.pop(pos)
                del open_at[x]
            pairs.sort()
            hits: list[list[tuple]] = [[] for _ in ch]
            for x, y in pairs:
                A, B = ch[x], ch[y]
                p, q = pts[A[2]], pts[A[3]]
                a, b = pts[B[2]], pts[B[3]]
                d1v, d2v = _sub(q, p), _sub(b, a)
                den = _cross(d1v, d2v)
                if den == 0:
                    raise _Degenerate
                w = _sub(a, p)
                s = Fraction(_cross(w, d2v), den)
                t = Fraction(_cross(w, d1v), den)
                if not (0 < s < 1 and 0 < t < 1):
                    raise ComputationError("interleaved chords failed to cross")
                node = ("x", fi, len(crossings))
                # (direction of the lower curve, direction of the other) is
                # (A, B) or (B, A): den's sign, flipped in the second case
                a_first = A[0] < B[0]
                ij, ji = (A, B) if a_first else (B, A)
                xg = Crossing(
                    face=fi,
                    curve_i=ij[0],
                    gap_i=ij[1],
                    curve_j=ji[0],
                    gap_j=ji[1],
                    sign=(1 if (den > 0) == a_first else -1) * chirality,
                    node=node,
                )
                crossings.append(xg)
                cross_of_node[node] = xg
                hits[x].append((s, node))
                hits[y].append((t, node))
            face_stops = []
            for h in hits:
                h.sort(key=lambda hit: (float(hit[0]), hit[0]))
                if len({lam for lam, _ in h}) != len(h):
                    raise _Degenerate
                face_stops.append([node for _, node in h])
            stops.append(face_stops)
        return crossings, cross_of_node, stops

    def _darts(self, items, chords, stops, cross_of_node, events) -> tuple:
        """Doubly-connected edge list: (starts, labels, chord_darts, slots,
        cells, cell_of).

        Nodes are boundary items ("b", face, rank) and crossings.  Darts
        come in twin pairs 2k, 2k + 1, each with a start node and a label:
        ("B", e, s, gap, fwd) for the boundary segment of face slot (e, s)
        on edge interval gap, ("C", curve, gap, k, fwd) for the k-th segment
        of a chord.  slots[(node, curve)] is (gap, r) for the r-th crossing
        on that curve gap.  Cells are the orbits of phi(d) = sigma-predecessor
        of twin(d) apart from the face exteriors; cell_of is -1 on those.
        """
        chirality = self.surface.chirality
        starts: list[tuple] = []
        labels: list[tuple] = []
        # boundary segment r of face fi runs from item r to the next one;
        # its forward dart is seg0[fi] + 2r
        seg0: list[int] = []
        for fi, row in enumerate(items):
            seg0.append(len(starts))
            M = len(row)
            for r, (e, s, gap, _) in enumerate(row):
                starts.extend((("b", fi, r), ("b", fi, (r + 1) % M)))
                labels.extend((("B", e, s, gap, True), ("B", e, s, gap, False)))

        # chord segment darts; at each crossing node, the outgoing pair
        # (forward, backward) each of its two chords contributes
        chord_darts: dict[tuple[int, int], list[tuple[int, int]]] = {}
        slots: dict[tuple, tuple[int, int]] = {}
        node_outs: dict[tuple, dict[tuple[int, int], tuple[int, int]]] = {}
        for fi, ch in enumerate(chords):
            for (ci, g, ra, rb), hits in zip(ch, stops[fi]):
                nodes = [("b", fi, ra), *hits, ("b", fi, rb)]
                segs = []
                for k in range(len(nodes) - 1):
                    segs.append((len(starts), len(starts) + 1))
                    starts.extend((nodes[k], nodes[k + 1]))
                    labels.extend((("C", ci, g, k, True), ("C", ci, g, k, False)))
                chord_darts[(ci, g)] = segs
                for k in range(1, len(nodes) - 1):
                    slots[(nodes[k], ci)] = (g, k - 1)
                    node_outs.setdefault(nodes[k], {})[(ci, g)] = (
                        segs[k][0], segs[k - 1][1]
                    )

        # rotation at each node (ccw order of outgoing darts)
        sigma: dict[tuple, list[int]] = {}
        for fi, row in enumerate(items):
            M = len(row)
            for r, item in enumerate(row):
                f_next = seg0[fi] + 2 * r
                b_prev = seg0[fi] + 2 * ((r - 1) % M) + 1
                if item[3] is None:
                    sigma[("b", fi, r)] = [f_next, b_prev]
                    continue
                ci, ei, s = item[3]
                # chord end here: exit end of gap ei or entry end of gap
                # ei-1, by which slot side the point occupies
                if s == -events[ci][ei][1]:
                    out = chord_darts[(ci, ei)][0][0]
                else:
                    out = chord_darts[(ci, (ei - 1) % len(events[ci]))][-1][1]
                sigma[("b", fi, r)] = [f_next, out, b_prev]
        # The outgoing darts at a crossing run along +-(chord of curve i)
        # and +-(chord of curve j); +j lies ccw of +i within a half turn
        # exactly when cross(d_i, d_j) > 0, the sign the crossing records.
        for node, xg in cross_of_node.items():
            outs = node_outs.get(node, {})
            pi = outs.get((xg.curve_i, xg.gap_i))
            pj = outs.get((xg.curve_j, xg.gap_j))
            if len(outs) != 2 or pi is None or pj is None:
                raise ComputationError("crossing node without four darts")
            if xg.sign * chirality > 0:
                sigma[node] = [pi[0], pj[0], pi[1], pj[1]]
            else:
                sigma[node] = [pi[0], pj[1], pi[1], pj[0]]

        # cells: orbits of phi, apart from each face's exterior walk
        n_darts = len(starts)
        phi: list[int] = [0] * n_darts
        for did in range(n_darts):
            tw = did ^ 1
            rot = sigma[starts[tw]]
            phi[did] = rot[(rot.index(tw) - 1) % len(rot)]

        cell_of: list[int] = [-1] * n_darts  # -1 on face exteriors
        exterior: set[int] = set()
        for fi, row in enumerate(items):
            orbit = set()
            d = seg0[fi] + 1
            while d not in orbit:
                orbit.add(d)
                d = phi[d]
            if orbit != set(range(seg0[fi] + 1, seg0[fi] + 2 * len(row), 2)):
                raise ComputationError("exterior walk left the face boundary")
            exterior |= orbit
        cells: list[list[int]] = []
        for did in range(n_darts):
            if cell_of[did] >= 0 or did in exterior:
                continue
            cycle = []
            d = did
            while cell_of[d] < 0:
                cell_of[d] = len(cells)
                cycle.append(d)
                d = phi[d]
            if d != did:
                raise ComputationError("broken face orbit")
            cells.append(cycle)
        return starts, labels, chord_darts, slots, cells, cell_of

    def _regions(self, labels, cells, cell_of) -> tuple:
        """Glue cells into regions: (partner, region_of_cell, regions).

        The forward boundary darts of the two slots of an interior edge
        that share an edge interval are partners; the cells they bound are
        merged.  Each region's topology is read off the abstract cut
        complex by a union-find over corners, so no geometry enters.
        """
        interior = self.surface.interior_edges
        by_key: dict[tuple, list[int]] = {}
        for did in range(0, len(labels), 2):
            lab = labels[did]
            if lab[0] != "B":
                break  # boundary darts come first
            if lab[1] in interior:
                by_key.setdefault((lab[1], lab[3]), []).append(did)
        partner: dict[int, int] = {}
        for key, pair in by_key.items():
            if len(pair) != 2:
                raise ComputationError(f"unmatched edge interval {key}")
            a, b = pair
            partner[a] = b
            partner[b] = a

        cell_parent = list(range(len(cells)))
        for a, b in partner.items():
            _union(cell_parent, cell_of[a], cell_of[b])

        # A corner is named by the dart arriving at it, so the corner a dart
        # leaves from is the one its predecessor in the cell arrives at.
        pred: list[int] = list(range(len(labels)))
        for cyc in cells:
            for k, did in enumerate(cyc):
                pred[did] = cyc[k - 1]
        corner_parent: list[int] = list(range(len(labels)))

        groups: dict[int, list[int]] = {}
        for cidx in range(len(cells)):
            groups.setdefault(_find(cell_parent, cidx), []).append(cidx)

        regions: list[Region] = []
        region_of_cell: dict[int, int] = {}
        for root in sorted(groups):
            cell_idxs = groups[root]
            ridx = len(regions)
            for cidx in cell_idxs:
                region_of_cell[cidx] = ridx
            region_darts = [d for cidx in cell_idxs for d in cells[cidx]]
            merges = 0
            glued_pairs = 0
            unglued: list[int] = []
            for did in region_darts:
                other = partner.get(did)
                if other is None:
                    unglued.append(did)
                elif did < other:
                    glued_pairs += 1
                    merges += _union(corner_parent, did, pred[other])
                    merges += _union(corner_parent, pred[did], other)
            V = len(region_darts) - merges
            E = glued_pairs + len(unglued)
            F = len(cell_idxs)
            chi = V - E + F

            # boundary circuits: at each boundary corner class exactly one
            # unglued dart departs
            out_at: dict[int, int] = {}
            for did in unglued:
                key = _find(corner_parent, pred[did])
                if key in out_at:
                    raise ComputationError("boundary corner with two outgoing darts")
                out_at[key] = did
            circuits = []
            seen: set[int] = set()
            for did in sorted(unglued):
                if did in seen:
                    continue
                circuit = []
                d = did
                while d not in seen:
                    seen.add(d)
                    circuit.append(d)
                    d = out_at[_find(corner_parent, d)]
                if d != did:
                    raise ComputationError("boundary walk did not close")
                circuits.append(tuple(circuit))
            regions.append(
                Region(index=ridx, cells=frozenset(cell_idxs), chi=chi,
                       circuits=tuple(circuits))
            )
        return partner, region_of_cell, tuple(regions)

    # ------------------------------------------------------------------
    # queries

    def dart_label(self, did: int) -> tuple:
        return self._labels[did]

    def crossings_between(self, i: int, j: int) -> list[Crossing]:
        i, j = min(i, j), max(i, j)
        return [c for c in self.crossings if (c.curve_i, c.curve_j) == (i, j)]

    def renormalized_curve(self, i: int) -> EmbeddedCurve:
        """Curve i with its events respaced to the joint coordinate frame."""
        return EmbeddedCurve._respaced(
            self.surface, tuple(self.events[i]), self.curves[i]
        )

    def crossing_count(self, i: int, j: int) -> int:
        return len(self.crossings_between(i, j))

    def crossing_params(self, ci: int) -> dict[Crossing, Fraction]:
        """Annulus coordinate of each crossing met by curve ci.

        The r-th of the k crossings on gap g sits at g + (r + 1)/(k + 1),
        strictly inside the gap; only the cyclic order matters.
        """
        params = {}
        for g in range(len(self.events[ci])):
            hits = self._chord_darts[(ci, g)][1:]
            for r, (f_id, _) in enumerate(hits):
                node = self._starts[f_id]
                params[self._cross_of_node[node]] = g + Fraction(r + 1, len(hits) + 1)
        return params

    def arc(self, ci: int, x: Crossing, y: Crossing) -> list[int]:
        """Event indices of curve ci strictly between crossings x and y.

        The walk runs forward along ci.  From a crossing to itself the arc
        is empty; from a crossing to an earlier one on the same gap it runs
        once around the curve.
        """
        n = len(self.events[ci])
        gx, rx = self._slots[(x.node, ci)]
        gy, ry = self._slots[(y.node, ci)]
        span = (gy - gx) % n
        if span == 0 and ry < rx:
            span = n
        return [(gx + 1 + t) % n for t in range(span)]

    def beside(self, ci: int, idx: int, h: Fraction) -> tuple:
        """Event idx of curve ci moved h joint spacings along its direction.

        That is p + d*h/(m + 1) for the m points of its edge, which sit
        1/(m + 1) apart in the joint frame, edge ends included: with |h| < 1
        the moved point stays strictly between its old neighbours.  One h
        moves every event of ci to the same side of ci, so the moved events
        of an arc run parallel to it; the sign of h picks the side.
        """
        e, d, p = self.events[ci][idx]
        return e, d, p + d * h / (len(self.edge_order[e]) + 1)

    def crossing_order_along(self, ci: int) -> list[Crossing]:
        """All crossings met by curve ci, in traversal order (cyclically)."""
        out = []
        for g in range(len(self.events[ci])):
            # interior stops of the gap's chord are crossing nodes, in order
            for f_id, _ in self._chord_darts[(ci, g)][1:]:
                out.append(self._cross_of_node[self._starts[f_id]])
        return out

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

    def find_bigons(self, i: int, j: int) -> list[Region]:
        """Innermost discs bounded by one run of curve i and one of curve j."""
        out = []
        for reg in self.regions:
            if not reg.is_disc or len(reg.circuits) != 1:
                continue
            runs = self.circuit_curve_runs(reg.circuits[0])
            if len(runs) != 2:
                continue
            curves = {runs[0][0], runs[1][0]}
            if curves == {i, j}:
                out.append(reg)
        return out

    # ------------------------------------------------------------------
    # bigon removal

    def _bigon_runs(self, region: Region, move: int) -> tuple[list, list]:
        """(stationary run, moving run) of a bigon, as dart lists."""
        if not region.is_disc or len(region.circuits) != 1:
            raise PreconditionError("region is not a bigon")
        runs = self.circuit_curve_runs(region.circuits[0])
        if len(runs) != 2 or None in {runs[0][0], runs[1][0]}:
            raise PreconditionError("region is not a bigon")
        if runs[1][0] != move:
            runs.reverse()
        if runs[1][0] != move or runs[0][0] == move:
            raise PreconditionError(f"bigon does not involve curve {move}")
        return runs[0][1], runs[1][1]

    def bigon_stack(self, region: Region, move: int) -> list[tuple[list, list]]:
        """The bigons nested around an innermost bigon, innermost first.

        Crossing the moving curve's side of the bigon leads into the next
        region.  While that region is a rectangle (a disc with one circuit
        whose runs alternate stationary, moving, stationary, moving) the
        union of the bigon and the rectangle is again a bigon: its
        stationary side is the bigon's, extended by the rectangle's two
        stationary sides, and its moving side is the rectangle's far side.
        Returns (stationary run, moving run) for each bigon of the stack.
        """
        a_run, b_run = self._bigon_runs(region, move)
        _, stay, _, _, fwd = self._labels[a_run[0]]
        stack = [(a_run, b_run)]
        seen = {region.index}
        while True:
            nxt = self.region_of_cell[self._cell_of[b_run[0] ^ 1]]
            reg = self.regions[nxt]
            if nxt in seen or not reg.is_disc or len(reg.circuits) != 1:
                return stack
            seen.add(nxt)
            rect = self.circuit_curve_runs(reg.circuits[0])
            if [c for c, _ in rect] not in ([stay, move] * 2, [move, stay] * 2):
                return stack
            twins = sorted(d ^ 1 for d in b_run)
            k = next((k for k, (_, darts) in enumerate(rect)
                      if sorted(darts) == twins), None)
            if k is None:
                return stack
            before, after = rect[k - 1][1], rect[(k + 1) % 4][1]
            if any(self._labels[d][4] != fwd for d in before + after):
                return stack
            a_run = before + a_run + after
            b_run = rect[(k + 2) % 4][1]
            stack.append((a_run, b_run))

    def _bigon_splice(self, darts_a: list, darts_b: list, move: int, shift: Fraction):
        """Splice data for pushing curve `move`'s side of a bigon across.

        The bigon is given by its two runs of darts in circuit order, the
        stationary curve's and the moving curve's; the stationary run goes
        from corner P to corner Q and the moving run back from Q to P.
        Returns (g_enter, m, new_events, a_used): the moved curve keeps its
        event at gap g_enter, drops the next m events and runs new_events in
        their place; a_used names the stationary curve's events the
        replacement strand shadows.  Each replacement event is the
        stationary curve's event moved `shift` joint spacings to the far
        side (see beside).
        """
        cb = move
        ca = self._labels[darts_a[0]][1]
        labels_a = [self._labels[d] for d in darts_a]
        labels_b = [self._labels[d] for d in darts_b]
        a_fwd = labels_a[0][4]
        b_fwd = labels_b[0][4]
        if any(l[4] != a_fwd for l in labels_a) or any(l[4] != b_fwd for l in labels_b):
            raise ComputationError("bigon run changes direction")
        starts, corner = self._starts, self._cross_of_node
        P, Q = corner[starts[darts_a[0]]], corner[starts[darts_a[-1] ^ 1]]
        if (starts[darts_b[0]], starts[darts_b[-1] ^ 1]) != (Q.node, P.node):
            raise ComputationError("bigon runs do not share their corners")

        # the stationary side, in ca's own order
        a_arc = self.arc(ca, P, Q) if a_fwd else self.arc(ca, Q, P)
        # In cb's own direction the run enters at one corner and leaves at
        # the other; the replacement strand walks ca's side between them,
        # along ca iff exactly one of the runs follows its curve.
        enter, leave = (Q, P) if b_fwd else (P, Q)
        along_a = a_fwd != b_fwd
        walk = a_arc if along_a else a_arc[::-1]
        # The bigon sits on ca's left iff its run is forward; the rerouted
        # strand is pushed across ca to the far side.
        h = -shift if a_fwd else shift
        new_events: list[tuple[str, int, Fraction]] = []
        for ev_idx in walk:
            e, d_a, p = self.beside(ca, ev_idx, h)
            new_events.append((e, d_a if along_a else -d_a, p))

        a_used = frozenset((ca, ev) for ev in a_arc)
        g_enter = self._slots[(enter.node, cb)][0]
        return g_enter, len(self.arc(cb, enter, leave)), new_events, a_used

    def reroute_through_bigons(
        self, regions: Sequence[Region], move: int, stacks: bool = True
    ) -> tuple[EmbeddedCurve, int]:
        """Push curve `move` across several independent bigons at once.

        With `stacks`, each innermost bigon brings the stack of bigons
        nested around it (see bigon_stack), and every strand of the stack
        is pushed across in this one call: strand i follows the stationary
        side of the i-th bigon, and the parallel copies are ordered the way
        one bigon per call would leave them, the outermost strand nearest
        the stationary curve.  A strand whose support overlaps one already
        taken ends its stack there, and a stack whose first strand does is
        skipped, so the splices never interfere.  Returns (curve, taken);
        each taken strand drops the raw crossing count by exactly two.
        """
        nb = len(self.curves[move].events)
        splices: list[tuple[int, int, list]] = []
        used_b: set[int] = set()
        used_a: set = set()
        for region in regions:
            if stacks:
                stack = self.bigon_stack(region, move)
            else:
                stack = [self._bigon_runs(region, move)]
            depth = len(stack)
            stack_a: set = set()
            for i, (darts_a, darts_b) in enumerate(stack):
                g, m, new_events, a_used = self._bigon_splice(
                    darts_a, darts_b, move, Fraction(depth - i, 3 * depth)
                )
                if m >= nb:
                    # Run wraps the whole curve: every old event is replaced.
                    if splices:
                        break
                    if not new_events:
                        raise ComputationError("bigon removal would erase the curve")
                    whole = EmbeddedCurve(
                        self.surface, tuple(new_events),
                        oriented=self.curves[move].oriented,
                    )
                    return whole, 1
                block = {(g + t) % nb for t in range(m + 1)}
                if block & used_b or a_used & used_a:
                    break
                splices.append((g, m, new_events))
                used_b |= block
                # nested strands shadow nested runs of the stationary curve
                stack_a |= a_used
            used_a |= stack_a

        joint_b = self.events[move]
        skip = {g: (m, evs) for g, m, evs in splices}
        out: list[tuple[str, int, Fraction]] = []
        t = splices[0][0]
        steps = 0
        while steps < nb:
            idx = t % nb
            out.append(joint_b[idx])
            if idx in skip:
                m, evs = skip[idx]
                out.extend(evs)
                t += m + 1
                steps += m + 1
            else:
                t += 1
                steps += 1
        curve = EmbeddedCurve(
            self.surface, tuple(out), oriented=self.curves[move].oriented
        )
        return curve, len(splices)


# ----------------------------------------------------------------------
# minimal position


def minimal_position(a: EmbeddedCurve, b: EmbeddedCurve) -> JointSystem:
    """Isotope b until no bigon with a remains; a is never rerouted.

    Returns the final arrangement; its curves (a', b') are the pair in
    minimal position.  a' differs from a only by sliding points along their
    edges: rerouting works in the joint coordinate frame, so once b moves, a
    must be respaced to that frame as well or the new points land on the
    wrong side of it.
    A pair with all crossings of equal sign is already minimal, so the
    common case returns after one arrangement build.

    Each further round builds one arrangement and peels every innermost
    bigon together with the stack of bigons nested around it (see
    JointSystem.bigon_stack), so a stack costs one round whatever its
    depth.  A round removes at least one bigon, so k crossings take at
    most k/2 rounds; further rounds come only from bigons that pass the
    same events of a or b as one peeled before them, and from bigons
    that peeling uncovers.
    """
    if a.surface.faces != b.surface.faces:
        raise PreconditionError("curves live on different surfaces")
    expect = None
    while True:
        system = JointSystem(a.surface, (a, b))
        k = system.crossing_count(0, 1)
        if expect is not None and k != expect:
            raise ComputationError(f"bigon removal changed crossings to {k}")
        if k == 0:
            return system
        signs = {c.sign for c in system.crossings_between(0, 1)}
        if len(signs) == 1:
            return system
        bigons = system.find_bigons(0, 1)
        if not bigons:
            return system
        a = system.renormalized_curve(0)
        try:
            b, removed = system.reroute_through_bigons(bigons, move=1)
        except ValidationError:
            # Independence filtering is conservative, not airtight; one
            # bigon at a time always assembles.
            b, removed = system.reroute_through_bigons(
                bigons[:1], move=1, stacks=False
            )
        expect = k - 2 * removed


def geometric_intersection_number(a: EmbeddedCurve, b: EmbeddedCurve) -> int:
    return minimal_position(a, b).crossing_count(0, 1)


# ----------------------------------------------------------------------
# region-based predicates (single curve)


def _full_copy_circuit(system: JointSystem, circuit, curve: int) -> bool:
    """Circuit consisting of one full traversal of `curve`, no other darts."""
    labels = [system.dart_label(d) for d in circuit]
    if any(l[0] != "C" or l[1] != curve for l in labels):
        return False
    return len(labels) == len(system.curves[curve].events)


@dataclass(frozen=True)
class CurveTopology:
    """What the arrangement of a curve alone says about it."""

    null_homotopic: bool  # bounds a disc
    boundary_parallel: bool  # cobounds an annulus with a boundary circuit
    separating: bool  # its complement has two regions


def _bounds_disc(system: JointSystem) -> bool:
    return any(
        reg.is_disc and len(reg.circuits) == 1
        and _full_copy_circuit(system, reg.circuits[0], 0)
        for reg in system.regions
    )


def _cobounds_collar(system: JointSystem) -> bool:
    for reg in system.regions:
        if not reg.is_annulus:
            continue
        sides = []
        for circuit in reg.circuits:
            labels = [system.dart_label(d) for d in circuit]
            kinds = {l[0] for l in labels}
            if kinds == {"C"} and _full_copy_circuit(system, circuit, 0):
                sides.append("curve")
            elif kinds == {"B"}:
                sides.append("boundary")
            else:
                sides.append("mixed")
        if sorted(sides) == ["boundary", "curve"]:
            return True
    return False


def _curve_topology(c: EmbeddedCurve) -> CurveTopology:
    """Topology of c from one arrangement, cached on c and its copies.

    Only the answers are kept, not the arrangement.
    """
    topology = c.__dict__.get(TOPOLOGY_KEY)
    if topology is None:
        system = JointSystem(c.surface, (c,))
        topology = CurveTopology(
            null_homotopic=_bounds_disc(system),
            boundary_parallel=_cobounds_collar(system),
            separating=len(system.regions) == 2,
        )
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
    system = minimal_position(a, b)
    if system.crossing_count(0, 1) != 0:
        return False
    for reg in system.regions:
        if not reg.is_annulus:
            continue
        found_a = found_b = None
        for circuit in reg.circuits:
            if _full_copy_circuit(system, circuit, 0):
                found_a = circuit
            elif _full_copy_circuit(system, circuit, 1):
                found_b = circuit
        if found_a is None or found_b is None:
            continue
        if not oriented:
            return True
        # With the region kept on the left, parallel same-oriented curves
        # are walked in opposite senses (one forward, one backward).
        sense_a = system.dart_label(found_a[0])[4]
        sense_b = system.dart_label(found_b[0])[4]
        return sense_a != sense_b
    return False


# ----------------------------------------------------------------------
# connector construction


def _two_disjoint_cell_paths(adj, sources, sinks):
    """Two cell-disjoint paths joining {s1, s2} to {t1, t2}, either pairing.

    Unit vertex capacities via node splitting; two augmenting rounds find
    the pair exactly when it exists (Menger). Each returned path is
    [(cell, None), (cell, dart), ...] with the dart on the previous cell's
    side of the glued interval; the first path starts at s1.
    """
    s1, s2 = sources
    res: dict = {}
    orig: set = set()

    def arc(u, v):
        res.setdefault(u, {})
        if res[u].get(v, 0) == 0:
            res[u][v] = 1
        res.setdefault(v, {}).setdefault(u, 0)
        orig.add((u, v))

    pair_dart = {}
    for u in sorted(adj):
        arc(("in", u), ("out", u))
        for v, d in adj[u]:
            if (u, v) not in pair_dart:
                pair_dart[(u, v)] = d
            arc(("out", u), ("in", v))
    for s in sources:
        arc("S", ("in", s))
    for t in sinks:
        arc(("out", t), "T")

    def augment():
        prev = {"S": None}
        queue = deque(["S"])
        while queue:
            u = queue.popleft()
            for v in sorted(res.get(u, {}), key=repr):
                if v not in prev and res[u][v] > 0:
                    prev[v] = u
                    if v == "T":
                        queue.clear()
                        break
                    queue.append(v)
        if "T" not in prev:
            return False
        v = "T"
        while prev[v] is not None:
            u = prev[v]
            res[u][v] -= 1
            res[v][u] = res[v].get(u, 0) + 1
            v = u
        return True

    if not (augment() and augment()):
        return None

    def flow(u, v):
        return res[v].get(u, 0) if (u, v) in orig else 0

    def walk(start):
        path = [(start, None)]
        node = ("out", start)
        while True:
            nxt = next(v for v in sorted(res.get(node, {}), key=repr)
                       if flow(node, v) > 0)
            res[nxt][node] -= 1
            if nxt == "T":
                return path
            cell = nxt[1]
            path.append((cell, pair_dart[(node[1], cell)]))
            node = ("out", cell)

    return walk(s1), walk(s2)


def connecting_curve(system: JointSystem, i: int, j: Optional[int] = None,
                     max_candidates: Optional[int] = None) -> Optional[EmbeddedCurve]:
    """Embedded loop crossing system curves i and j once each, others never.

    Such a loop meets the complement of the system in two arcs, each inside
    a single region, pinned at one crossing with curve i and one with
    curve j. Candidates pair a chord segment of i with one of j whose
    flanking regions agree; the two arcs are then routed cell by cell
    through glued edge intervals, and the loop is read off as one event
    per interval crossed. Cells are convex, each hosts at most one piece
    of the loop, and the arcs never touch a chord, so the crossing counts
    are exactly 1, 1, and 0 by construction; a final check guards the
    bookkeeping. Returns None when no candidate pairing routes.

    With j omitted the loop is pinned at a single crossing with curve i
    and meets the complement in one arc joining the two sides.
    """
    labels = system._labels
    partner = system._partner
    cell_of = system._cell_of
    region_of = system.region_of_cell

    adj: dict[int, list[tuple[int, int]]] = {c: [] for c in range(len(system._cells))}
    for f_id in sorted(partner):
        adj[cell_of[f_id]].append((cell_of[partner[f_id]], f_id))
    for u in adj:
        adj[u].sort(key=lambda t: (t[0], labels[t[1]][1:]))

    def flanks(ci):
        out = []
        for g in range(len(system.events[ci])):
            for f_id, b_id in system._chord_darts[(ci, g)]:
                out.append((cell_of[f_id], cell_of[b_id]))
        return out

    def bfs(start, goal):
        prev = {start: (None, None)}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if u == goal:
                path = []
                while u is not None:
                    pu, d = prev[u]
                    path.append((u, d))
                    u = pu
                path.reverse()
                return path
            for v, d in adj[u]:
                if v not in prev:
                    prev[v] = (u, d)
                    queue.append(v)
        return None

    def event_of(f_id):
        # the midpoint of the glued edge interval in the joint frame
        _, e, s, gap, _ = labels[partner[f_id]]
        m = len(system.edge_order.get(e, ()))
        return (e, -s, Fraction(2 * gap + 1, 2 * (m + 1)))

    def reversed_path(path):
        out = [(path[-1][0], None)]
        for k in range(len(path) - 1, 0, -1):
            out.append((path[k - 1][0], partner[path[k][1]]))
        return out

    def synthesize(*strands):
        evs = [event_of(d) for strand in strands for _, d in strand[1:]]
        try:
            c = EmbeddedCurve(system.surface, tuple(evs), oriented=False)
        except ValidationError:
            return None
        for m, cm in enumerate(system.curves):
            if geometric_intersection_number(c, cm) != (1 if m in (i, j) else 0):
                return None
        return c.renormalized()

    tried = 0
    if j is None:
        for af, ab in flanks(i):
            if af == ab or region_of[af] != region_of[ab]:
                continue
            tried += 1
            if max_candidates is not None and tried > max_candidates:
                return None
            path = bfs(af, ab)
            if path is None:
                continue
            c = synthesize(path)
            if c is not None:
                return c
        return None

    for af, ab in flanks(i):
        if af == ab:
            continue
        for bf, bb in flanks(j):
            if len({af, ab, bf, bb}) != 4:
                continue
            ra = {region_of[af], region_of[ab]}
            if ra != {region_of[bf], region_of[bb]}:
                continue
            tried += 1
            if max_candidates is not None and tried > max_candidates:
                return None
            if len(ra) == 2:
                bx, by = (bf, bb) if region_of[bf] == region_of[af] else (bb, bf)
                p1 = bfs(af, bx)
                p2 = bfs(by, ab)
                if p1 is None or p2 is None:
                    continue
                c = synthesize(p1, p2)
            else:
                pair = _two_disjoint_cell_paths(adj, (af, ab), (bf, bb))
                if pair is None:
                    continue
                c = synthesize(pair[0], reversed_path(pair[1]))
            if c is not None:
                return c
    return None


# ----------------------------------------------------------------------
# cutting


@dataclass(frozen=True)
class CutPiece:
    surface: CellSurface
    # new boundary edge -> ("cut", "left"/"right") or ("boundary", old edge)
    boundary_labels: dict
    # (old edge, interval index) -> (new edge name, +1 if the new edge runs
    # up the old positions, -1 if down); intervals count gaps between the
    # cut curve's points, 0 .. m along each old edge
    interval_edges: dict


@dataclass(frozen=True)
class CutResult:
    pieces: tuple[CutPiece, ...]
    piece_of_region: dict
    transferred: tuple  # (piece index, EmbeddedCurve) per carried curve


def cut_along_curve(
    c: EmbeddedCurve, carry: Sequence[EmbeddedCurve] = ()
) -> CutResult:
    """Cut the surface along c; carried curves must be disjoint from c.

    Every piece must be hyperbolic-type (negative Euler characteristic).
    Carried curves reappear on the piece containing them, crossing each new
    edge in the order the joint frame of (c, carried curve) gives them.
    """
    surf = c.surface
    system = JointSystem(surf, (c,))
    for reg in system.regions:
        if reg.chi >= 0:
            raise PreconditionError(
                f"cutting would create a piece with Euler characteristic {reg.chi}"
            )

    pieces: list[CutPiece] = []
    piece_of_region: dict[int, int] = {}
    for reg in system.regions:
        piece_of_region[reg.index] = len(pieces)
        glued_name: dict[int, tuple[str, int]] = {}
        interval_edges: dict[tuple[str, int], tuple[str, int]] = {}
        boundary_labels: dict[str, tuple] = {}
        faces: list[tuple[tuple[str, int], ...]] = []
        for cidx in sorted(reg.cells):
            word: list[tuple[str, int]] = []
            for did in system._cells[cidx]:
                if did in system._partner:
                    if did in glued_name:
                        name, sgn = glued_name[did]
                    else:
                        name = f"g{len(interval_edges)}"
                        sgn = 1
                        glued_name[system._partner[did]] = (name, -1)
                        glued_name[did] = (name, 1)
                        # the label's gap counts the cut points below the
                        # interval, 0..m; +1 side forward darts ascend
                        _, e, s, gap, _ = system.dart_label(did)
                        interval_edges[(e, gap)] = (name, 1 if s > 0 else -1)
                    word.append((name, sgn))
                else:
                    lab = system.dart_label(did)
                    name = f"u{did}"
                    if lab[0] == "C":
                        side = "left" if lab[4] else "right"
                        boundary_labels[name] = ("cut", side)
                    else:
                        boundary_labels[name] = ("boundary", lab[1])
                    word.append((name, 1))
            faces.append(tuple(word))
        piece = CellSurface(tuple(faces), chirality=surf.chirality)
        if piece.euler_characteristic != reg.chi:
            raise ComputationError("piece does not match its region")
        pieces.append(CutPiece(piece, boundary_labels, interval_edges))

    transferred = []
    for k in carry:
        joint = JointSystem(surf, (c, k))
        if joint.crossing_count(0, 1) != 0:
            raise PreconditionError("carried curve is not disjoint from the cut curve")
        # k's events by edge interval, in order up the edge: the interval
        # counts the cut curve's points below them in the joint frame
        runs: dict[tuple[str, int], list[int]] = {}
        for e, along in joint.edge_order.items():
            gap = 0
            for ci, ei in along:
                if ci == 0:
                    gap += 1
                else:
                    runs.setdefault((e, gap), []).append(ei)
        home: set[int] = set()
        new_events: list = [None] * len(k.events)
        for key, eis in runs.items():
            owner = next((pi for pi, piece in enumerate(pieces)
                          if key in piece.interval_edges), None)
            if owner is None:
                raise ComputationError(f"no piece owns interval {key}")
            home.add(owner)
            name, ascends = pieces[owner].interval_edges[key]
            n = len(eis)
            for r, ei in enumerate(eis):
                d = k.events[ei][1]
                if ascends > 0:
                    new_events[ei] = (name, d, Fraction(r + 1, n + 1))
                else:
                    new_events[ei] = (name, -d, Fraction(n - r, n + 1))
        if len(home) != 1:
            raise ComputationError("carried curve straddles several pieces")
        pi = home.pop()
        transferred.append(
            (pi, EmbeddedCurve(pieces[pi].surface, tuple(new_events),
                               oriented=k.oriented))
        )
    return CutResult(tuple(pieces), piece_of_region, tuple(transferred))
