"""Combinatorial model of compact oriented surfaces and embedded curves.

A surface is given by a cell decomposition: a list of faces, each face a
cyclic word of signed edge references.  Reading a face counterclockwise,
sign +1 means the face lies on the left of the (directed) edge, sign -1 on
the right.  Each signed reference may appear at most once globally, which
forces orientability; an edge referenced from both sides is interior, an
edge referenced once lies on the boundary.

Vertices are not part of the input.  They are recovered from the corner
structure: walking a face boundary, the head end of one reference and the
tail end of the next meet at a vertex, and that corner also records the
counterclockwise rotation there.  Around an interior vertex the rotation
closes into a cycle; around a boundary vertex it forms a path.

Curves are itineraries: a cyclic sequence of transverse edge crossings,
each crossing recording the edge, the crossing direction (+1 for crossing
the edge left-to-right, i.e. from the side of the +1 slot), and an exact
rational position along the edge.  Between consecutive crossings the curve
runs as a chord through a single face, so embeddedness is a finite check
on chord interleaving along face boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import PreconditionError, ValidationError

# An edge end: (edge name, 0) is the tail, (edge name, 1) the head.
End = tuple[str, int]
# A slot: (edge name, sign).  Sign +1 iff the referencing face is on the
# left of the directed edge.
Slot = tuple[str, int]
# A crossing event: (edge, direction, position), position in (0, 1) along
# the edge from tail to head.
Event = tuple[str, int, Fraction]


def head_end(edge: str, sign: int) -> End:
    """End at which a face walk along this slot arrives."""
    return (edge, 1 if sign > 0 else 0)


def tail_end(edge: str, sign: int) -> End:
    """End from which a face walk along this slot departs."""
    return (edge, 0 if sign > 0 else 1)


def end_crossing(end: End, offset: Fraction) -> Event:
    """Where a small ccw loop round a vertex crosses one of its edge ends.

    A tail end is crossed right-to-left (-1) `offset` up the edge, a head
    end left-to-right (+1) `offset` down it.  Flux signs and vertex links
    both follow this one rule.
    """
    edge, which = end
    return (edge, 1, 1 - offset) if which else (edge, -1, offset)


# Instance-__dict__ key under which overlay caches a curve's single-curve
# topology (see overlay._curve_topology). Isotopic copies (reversed,
# reoriented, renormalised, moved by overlay.JointSystem.moved) share it,
# and so do twist images (twisting.apply_twist): a homeomorphism keeps it.
TOPOLOGY_KEY = "_topology"


def _find(parent: list[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent: list[int], a: int, b: int) -> None:
    parent[_find(parent, a)] = _find(parent, b)


def _exact(p) -> Fraction:
    """A position given as an int (a bool is no int); nothing else is coerced."""
    if type(p) is not int:
        raise ValidationError(f"crossing position {p!r} is not a Fraction or an int")
    return Fraction(p)


def _json_field(value, key: str, kind: type):
    """A JSON field that must hold a `kind` itself: nothing is coerced, and
    a bool is no int."""
    if type(value) is not kind:
        raise ValidationError(f"bad {key} field: {value!r} is not {kind.__name__}")
    return value


@dataclass(frozen=True)
class CellSurface:
    """Compact connected oriented surface with a cell decomposition.

    `faces` is a tuple of faces; each face is a tuple of (edge, sign)
    slots read counterclockwise, each sign the int 1 or -1 (a bool or a
    float is refused, not coerced).  That face order is the orientation:
    crossing an edge from its +1 side to its -1 side is a left-to-right
    crossing, and crossing signs and the positive twist direction follow
    from it.  The mirror surface is the same faces, each reversed, with
    every slot sign negated.

    All topology (vertices, rotations, boundary circuits, genus) is
    derived in __post_init__ and cached on the instance; a generic integer
    cocycle (`cocycle`) is derived on first use and cached there too.
    """

    faces: tuple[tuple[Slot, ...], ...]

    def __post_init__(self):
        faces = tuple(tuple((str(e), s) for e, s in face) for face in self.faces)
        object.__setattr__(self, "faces", faces)
        self._validate_and_index()

    # -- construction-time validation and indexing --

    def _validate_and_index(self) -> None:
        if not self.faces:
            raise ValidationError("surface needs at least one face")
        slot_map: dict[Slot, tuple[int, int]] = {}
        for fi, face in enumerate(self.faces):
            if not face:
                raise ValidationError(f"face {fi} is empty")
            for ei, (edge, sign) in enumerate(face):
                if not edge:
                    raise ValidationError("empty edge name")
                if type(sign) is not int or sign not in (1, -1):
                    raise ValidationError(f"bad sign {sign!r} on edge {edge!r}")
                slot = (edge, sign)
                if slot in slot_map:
                    raise ValidationError(
                        f"slot {slot} appears twice; same-side regluing is not orientable"
                    )
                slot_map[slot] = (fi, ei)

        edges = sorted({e for e, _ in slot_map})
        interior = frozenset(
            e for e in edges if (e, 1) in slot_map and (e, -1) in slot_map
        )
        boundary = frozenset(e for e in edges if e not in interior)

        # Corners: consecutive slots f[i], f[i+1] meet at a vertex, with
        # head_end(f[i]) the immediate ccw neighbour of tail_end(f[i+1]).
        ccw_next: dict[End, End] = {}
        for face in self.faces:
            m = len(face)
            for i in range(m):
                ccw_next[tail_end(*face[(i + 1) % m])] = head_end(*face[i])

        # Each end has at most one ccw successor and one predecessor, so the
        # ends around a vertex form one orbit of ccw_next: a path from an end
        # without predecessor (boundary vertex), or else a cycle (interior
        # vertex).
        has_pred = set(ccw_next.values())
        ends = [(e, k) for e in edges for k in (0, 1)]
        rotations: list[tuple[End, ...]] = []
        is_interior_vertex: list[bool] = []
        vertex_of_end: dict[End, int] = {}
        for start in [x for x in ends if x not in has_pred] + ends:
            if start in vertex_of_end:
                continue
            rot = [start]
            cur = ccw_next.get(start)
            while cur is not None and cur != start:
                rot.append(cur)
                cur = ccw_next.get(cur)
            for end in rot:
                vertex_of_end[end] = len(rotations)
            rotations.append(tuple(rot))
            is_interior_vertex.append(cur is not None)

        # Connectivity through interior edges.
        parent = list(range(len(self.faces)))
        for e in interior:
            _union(parent, slot_map[(e, 1)][0], slot_map[(e, -1)][0])
        if len({_find(parent, fi) for fi in range(len(parent))}) != 1:
            raise ValidationError("surface is disconnected")

        # Boundary circuits: after walking boundary slot (e, s) the walk
        # resumes at the source end of the vertex at head_end(e, s).
        boundary_slot_of_source = {}
        for e in boundary:
            s = 1 if (e, 1) in slot_map else -1
            boundary_slot_of_source[tail_end(e, s)] = (e, s)
        circuits: list[tuple[Slot, ...]] = []
        seen: set[Slot] = set()
        for e in sorted(boundary):
            s = 1 if (e, 1) in slot_map else -1
            if (e, s) in seen:
                continue
            circuit = []
            slot = (e, s)
            while slot not in seen:
                seen.add(slot)
                circuit.append(slot)
                v = vertex_of_end[head_end(*slot)]
                source = rotations[v][0]
                slot = boundary_slot_of_source[source]
            circuits.append(tuple(circuit))

        V = len(rotations)
        E = len(edges)
        F = len(self.faces)
        chi = V - E + F
        n = len(circuits)
        if (2 - n - chi) % 2 or chi + n > 2:
            raise ValidationError(f"inconsistent cell structure: chi={chi}, boundary={n}")
        genus = (2 - n - chi) // 2

        object.__setattr__(self, "_slot_map", slot_map)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "interior_edges", interior)
        object.__setattr__(self, "boundary_edges", boundary)
        object.__setattr__(self, "rotations", tuple(rotations))
        object.__setattr__(self, "_is_interior_vertex", tuple(is_interior_vertex))
        object.__setattr__(self, "_vertex_of_end", vertex_of_end)
        object.__setattr__(self, "ccw_next", ccw_next)
        object.__setattr__(self, "boundary_circuits", tuple(circuits))
        object.__setattr__(self, "euler_characteristic", chi)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "num_boundary", n)

    # -- queries --

    def has_slot(self, edge: str, sign: int) -> bool:
        return (edge, sign) in self._slot_map

    def slot_position(self, edge: str, sign: int) -> tuple[int, int]:
        """(face index, entry index) of a slot."""
        try:
            return self._slot_map[(edge, sign)]
        except KeyError:
            raise ValidationError(f"no slot ({edge!r}, {sign})") from None

    def face_of_slot(self, edge: str, sign: int) -> int:
        return self.slot_position(edge, sign)[0]

    def vertex_at(self, end: End) -> int:
        return self._vertex_of_end[end]

    def vertex_is_interior(self, vi: int) -> bool:
        return self._is_interior_vertex[vi]

    @property
    def is_closed(self) -> bool:
        return self.num_boundary == 0

    @property
    def norm(self) -> int:
        """3g - 3 + n, the number of curves in a maximal disjoint system."""
        return 3 * self.genus - 3 + self.num_boundary

    def flux(self, weights: Mapping[str, int], vi: int) -> int:
        """Net weight a small ccw loop round vertex vi crosses, signed by end_crossing."""
        return sum(end_crossing(end, 0)[1] * weights.get(end[0], 0)
                   for end in self.rotations[vi])

    @cached_property
    def cocycle(self) -> dict[str, int]:
        """A generic integer cocycle: edge -> weight, for every interior edge.

        The weights have zero flux at every interior vertex (the Flow
        condition), so a loop pairs with them by its homology class alone,
        and a loop that bounds a disc pairs to 0.  They are peeled off a BFS
        tree over the interior edges in sorted order: each edge off the tree
        draws a fixed pseudo-random weight, then each tree edge, leaves
        first, zeroes its child's flux.  So a loop whose class is not zero
        pairs nonzero unless the draws cancel.  Empty when no edge is off the tree.

        The flux at a boundary vertex is free, so all boundary vertices are
        one node, the root (vertex 0 roots a closed surface): the weights
        are a cycle relative to the boundary.  With two or more boundary
        components a separating curve can pair nonzero (the four-holed
        sphere's boundary curves do); with at most one, it bounds a piece
        without boundary and pairs to 0.
        """
        node = [vi if inner else -1 for vi, inner in enumerate(self._is_interior_vertex)]
        edges = sorted(self.interior_edges)
        # per node: (edge, node at its other end, the edge's sign there)
        neighbours: dict[int, list[tuple[str, int, int]]] = {}
        for e in edges:
            tail, head = (node[self.vertex_at((e, k))] for k in (0, 1))
            neighbours.setdefault(tail, []).append((e, head, 1))
            neighbours.setdefault(head, []).append((e, tail, -1))
        order = [-1 if self.num_boundary else 0]
        up = {order[0]: (None, 0)}
        for n in order:
            for e, m, sign in neighbours.get(n, ()):
                if m not in up:
                    up[m] = (e, sign)
                    order.append(m)
        tree = {e for e, _ in up.values()}
        draw = random.Random(len(edges))
        weights = {e: draw.randrange(1, 1 << 30) for e in edges if e not in tree}
        if not weights:
            return {}
        for n in reversed(order[1:]):
            e, sign = up[n]
            weights[e] = 0
            weights[e] = -sign * self.flux(weights, n)
        return {e: weights[e] for e in edges}

    def __repr__(self) -> str:
        return (
            f"CellSurface(genus={self.genus}, boundary={self.num_boundary}, "
            f"faces={len(self.faces)}, edges={len(self.edges)})"
        )

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "format": 1,
            "genus": self.genus,
            "boundary": self.num_boundary,
            "faces": [[[e, s] for e, s in face] for face in self.faces],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CellSurface":
        if not isinstance(data, Mapping) or data.get("format") != 1:
            raise ValidationError("surface JSON must carry format: 1")
        try:
            faces = tuple(
                tuple((_json_field(e, "faces", str), _json_field(s, "faces", int))
                      for e, s in face)
                for face in data["faces"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad faces field: {exc}") from exc
        if data.get("chirality", 1) != 1:
            raise ValidationError(
                "chirality other than 1 is not supported; "
                "give the mirrored faces instead"
            )
        surf = cls(faces=faces)
        for key, got in (("genus", surf.genus), ("boundary", surf.num_boundary)):
            if _json_field(data.get(key, got), key, int) != got:
                raise ValidationError(
                    f"declared {key}={data[key]} but cell structure gives {got}"
                )
        return surf


@dataclass(frozen=True, eq=False)
class EmbeddedCurve:
    """Simple closed curve on a CellSurface, given by its crossing itinerary.

    Each event (edge, direction, position) crosses an interior edge at an
    exact rational position; direction +1 crosses from the face of the +1
    slot to the face of the -1 slot, and a direction is the int 1 or -1,
    never coerced.  Consecutive events must exit into
    and enter from a common face, and the chords drawn inside each face
    must be pairwise non-crossing (embeddedness).

    Curves are oriented by default; set oriented=False for a free curve.
    Equality and hashing compare isotopy-representative normal forms only
    to the extent of reparametrisation (rotation of the itinerary and
    per-edge position renormalisation), not full isotopy.

    A position is a Fraction or an int; anything else raises ValidationError.

    Each curve sorts its points along every edge once, on first use
    (`_edge_points`); validation, renormalisation and the frame of every
    arrangement the curve enters (overlay.JointSystem) read that order, and
    a renormalised copy is handed the order it keeps, so it never sorts.
    Every curve the engine makes is laid out on int keys and born
    renormalised from them (`_from_keys`), with one Fraction per point.
    """

    surface: CellSurface
    events: tuple[Event, ...]
    oriented: bool = True

    def __post_init__(self):
        events = tuple(
            (str(e), d, p if isinstance(p, Fraction) else _exact(p))
            for e, d, p in self.events
        )
        object.__setattr__(self, "events", events)
        self._validate()

    @cached_property
    def _edge_points(self) -> dict[str, list[tuple[float, Fraction, int]]]:
        """Per edge, the curve's points (float(p), p, event) up the edge.

        The float leads and the exact value breaks the (rare) float ties:
        rounding to nearest is monotone, so the composite order is the
        exact one.
        """
        points: dict[str, list[tuple[float, Fraction, int]]] = {}
        for ei, (e, _, p) in enumerate(self.events):
            run = points.get(e)
            if run is None:
                points[e] = run = []
            run.append((p.numerator / p.denominator, p, ei))  # float(p)
        for run in points.values():
            run.sort()
        return points

    def _validate(self) -> None:
        surf = self.surface
        events = self.events
        n = len(events)
        if not n:
            raise ValidationError("curve needs at least one crossing event")
        # each point's rank up its edge; the first event that repeats an
        # earlier point of its edge is reported where the scan reaches it
        rank = [0] * n
        first_repeat = n
        for run in self._edge_points.values():
            for k, (f, p, ei) in enumerate(run):
                rank[ei] = k
                # equal points sit together, the earliest event first
                if k and f == run[k - 1][0] and p == run[k - 1][1]:
                    first_repeat = min(first_repeat, ei)
        interior = surf.interior_edges
        for e, d, p in events[:first_repeat + 1]:
            if e not in interior:
                raise ValidationError(f"curve crosses non-interior edge {e!r}")
            if type(d) is not int or d not in (1, -1):
                raise ValidationError(f"bad crossing direction {d!r}")
            if not 0 < p.numerator < p.denominator:
                raise ValidationError(f"crossing position {p} outside (0, 1)")
        if first_repeat < n:
            e, _, p = events[first_repeat]
            raise ValidationError(f"repeated crossing point ({e!r}, {p})")

        # A chord end is keyed by one int in its face, entry*(2n + 1) +
        # walk key + n, ordered as (slot entry, walk key): the face walks a
        # +1 slot up the edge and a -1 slot down it, so the walk key is the
        # point's rank up the edge or minus that rank, in (-n, n).
        slot_position = surf.slot_position
        span = 2 * n + 1
        chords_by_face: dict[int, list[tuple[int, int]]] = {}
        for i in range(n):
            e1, d1, _ = events[i]
            j = (i + 1) % n
            e2, d2, _ = events[j]
            f_exit, ent_exit = slot_position(e1, -d1)
            f_enter, ent_enter = slot_position(e2, d2)
            if f_exit != f_enter:
                raise ValidationError(
                    f"events {i} and {j} do not share a face: "
                    f"exit into face {f_exit}, enter from face {f_enter}"
                )
            key_a = ent_exit * span + (n - rank[i] if d1 > 0 else n + rank[i])
            key_b = ent_enter * span + (n + rank[j] if d2 > 0 else n - rank[j])
            chords_by_face.setdefault(f_exit, []).append(
                (key_a, key_b) if key_a < key_b else (key_b, key_a))

        # Pairwise non-crossing chords of a disc nest like brackets: cut the
        # boundary circle before the smallest key; taken by their lower
        # ends, each chord must close before the innermost one still open.
        for f, chords in chords_by_face.items():
            chords.sort()
            stack: list[int] = []  # upper ends of the chords still open
            for lo, hi in chords:
                while stack and stack[-1] < lo:
                    stack.pop()
                if stack and stack[-1] < hi:
                    raise ValidationError(f"curve crosses itself inside face {f}")
                stack.append(hi)

    # -- basic manipulations --

    @classmethod
    def _made(cls, surface: CellSurface, events: tuple, oriented: bool,
              points: dict) -> "EmbeddedCurve":
        """The curve on canonical `events`, with `points` as its per-edge
        order (_edge_points): nothing is validated or sorted."""
        self = object.__new__(cls)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "oriented", oriented)
        self.__dict__["_edge_points"] = points
        return self

    def _share_topology(self, copy: "EmbeddedCurve") -> "EmbeddedCurve":
        """Hand this curve's cached topology to an isotopic copy."""
        topology = self.__dict__.get(TOPOLOGY_KEY)
        if topology is not None:
            copy.__dict__[TOPOLOGY_KEY] = topology
        return copy

    def __len__(self) -> int:
        return len(self.events)

    def reverse(self) -> "EmbeddedCurve":
        ev = tuple((e, -d, p) for e, d, p in reversed(self.events))
        return self._share_topology(
            EmbeddedCurve(self.surface, ev, oriented=self.oriented)
        )

    def with_orientation(self, oriented: bool) -> "EmbeddedCurve":
        if oriented == self.oriented:
            return self
        # the same events: nothing to validate again, and the same order
        return self._share_topology(EmbeddedCurve._made(
            self.surface, self.events, oriented, self._edge_points))

    @classmethod
    def _at_ranks(cls, surface: CellSurface, curves, runs: dict) -> list:
        """The curves (events, oriented) of `curves`, the point that runs[e]
        lists k-th of m up edge e, as (curve, event), moved to k/(m + 1);
        each curve is handed its own order up every edge."""
        events = [list(evs) for evs, _ in curves]
        points: list[dict] = [{} for _ in curves]
        for e, run in runs.items():
            m1 = len(run) + 1
            for k, (ci, ei) in enumerate(run, 1):
                p = Fraction(k, m1)
                events[ci][ei] = (e, events[ci][ei][1], p)
                points[ci].setdefault(e, []).append((k / m1, p, ei))
        return [cls._made(surface, tuple(evs), oriented, pts)
                for evs, (_, oriented), pts in zip(events, curves, points)]

    @classmethod
    def _from_keys(cls, surface: CellSurface, keyed) -> list:
        """The curves (events, oriented) of `keyed`, each event (edge,
        direction, int key), born together and renormalised.

        The curves' keys share one space per edge.  Each edge's keys are
        sorted once, a repeated key raises ValidationError, and that order
        places the points (_at_ranks).  Nothing is validated and no topology
        is shared: callers validate each new curve and pass topology on.
        """
        runs: dict[str, list] = {}
        for ci, (evs, _) in enumerate(keyed):
            for ei, (e, _, key) in enumerate(evs):
                runs.setdefault(e, []).append((key, ci, ei))
        for e, run in runs.items():
            run.sort()
            if len({key for key, _, _ in run}) < len(run):
                raise ValidationError(f"repeated crossing point on edge {e!r}")
            runs[e] = [(ci, ei) for _, ci, ei in run]
        return cls._at_ranks(surface, keyed, runs)

    def renormalized(self) -> "EmbeddedCurve":
        """Move crossing positions to (k+1)/(m+1) by per-edge rank."""
        runs = {e: [(0, ei) for _, _, ei in run] for e, run in self._edge_points.items()}
        (copy,) = EmbeddedCurve._at_ranks(self.surface, [(self.events, self.oriented)], runs)
        return self._share_topology(copy)

    @cached_property
    def canonical_key(self) -> tuple:
        ev = self.renormalized().events
        variants = [ev]
        if not self.oriented:
            variants.append(tuple((e, -d, p) for e, d, p in reversed(ev)))
        best = None
        for var in variants:
            n = len(var)
            for r in range(n):
                rot = var[r:] + var[:r]
                if best is None or rot < best:
                    best = rot
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedCurve):
            return NotImplemented
        return (
            self.surface.faces == other.surface.faces
            and self.oriented == other.oriented
            and self.canonical_key == other.canonical_key
        )

    def __hash__(self) -> int:
        return hash((self.surface.faces, self.oriented, self.canonical_key))

    def __repr__(self) -> str:
        ev = ", ".join(f"({e!r},{d:+d},{p})" for e, d, p in self.events)
        tag = "" if self.oriented else ", unoriented"
        return f"EmbeddedCurve([{ev}]{tag})"

    # -- serialization --

    def to_json(self) -> dict:
        rank = [0] * len(self.events)
        for run in self._edge_points.values():
            for k, (_, _, ei) in enumerate(run):
                rank[ei] = k
        return {
            "format": 1,
            "itinerary": [[e, rank[ei], d] for ei, (e, d, _) in enumerate(self.events)],
            "oriented": self.oriented,
        }

    @classmethod
    def from_json(cls, surface: CellSurface, data: Mapping) -> "EmbeddedCurve":
        if not isinstance(data, Mapping) or data.get("format") != 1:
            raise ValidationError("curve JSON must carry format: 1")
        try:
            raw = [(_json_field(e, "itinerary", str), _json_field(k, "itinerary", int),
                    _json_field(d, "itinerary", int)) for e, k, d in data["itinerary"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad itinerary field: {exc}") from exc
        counts: dict[str, int] = {}
        for e, _, _ in raw:
            counts[e] = counts.get(e, 0) + 1
        events = []
        for e, k, d in raw:
            m = counts[e]
            if not 0 <= k < m:
                raise ValidationError(f"crossing index {k} out of range on edge {e!r}")
            events.append((e, d, Fraction(k + 1, m + 1)))
        oriented = _json_field(data.get("oriented", True), "oriented", bool)
        return cls(surface, tuple(events), oriented=oriented)


@dataclass(frozen=True)
class Flow:
    """Integer edge weights with zero net flux around every interior vertex.

    The flux is CellSurface.flux, checked on construction.  Such a
    weighting pairs with oriented curves (sum of direction times weight
    over the itinerary) and the pairing only depends on the isotopy class,
    so a family of flows computes homology coordinates.  A weight is an
    int (a bool is no int); anything else raises ValidationError.
    """

    name: str
    surface: CellSurface
    weights: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "weights", {str(e): w for e, w in self.weights.items()})
        surf = self.surface
        for e, w in self.weights.items():
            if type(w) is not int:
                raise ValidationError(f"flow {self.name!r} weight {w!r} is not an int")
            if e not in surf.interior_edges:
                raise ValidationError(f"flow {self.name!r} weights non-interior edge {e!r}")
        for vi in range(len(surf.rotations)):
            flux = surf.flux(self.weights, vi)
            if flux and surf.vertex_is_interior(vi):
                raise ValidationError(
                    f"flow {self.name!r} has flux {flux} at vertex {vi}"
                )

    def pair(self, curve: EmbeddedCurve) -> int:
        if not curve.oriented:
            raise PreconditionError("homology pairing needs an oriented curve")
        return sum(d * self.weights.get(e, 0) for e, d, _ in curve.events)
