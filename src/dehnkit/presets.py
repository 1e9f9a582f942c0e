"""Shipped surface models and their reference curve systems.

Each preset bundles a cell structure with named curves, an integer flow basis
that reads off first-homology coordinates, and (beyond the torus) a maximal
disjoint curve system with chosen dual curves. Every stored curve is validated
on build: disjointness and dual-crossing patterns are recomputed, not trusted.
`build_preset` caches each preset; `homology_class` finds a surface's flow
basis by looking for the preset built on that surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import ComputationError, PreconditionError
from .overlay import (
    JointSystem,
    geometric_intersection_number,
    is_boundary_parallel,
    minimal_position,
)
from .surface import CellSurface, EmbeddedCurve, Flow, end_crossing

__all__ = [
    "PRESET_NAMES",
    "PantsSystem",
    "PresetSurface",
    "boundary_parallel_curve",
    "build_preset",
    "homology_class",
    "subgraph_link",
    "torus_curve",
]

PRESET_NAMES = ("torus", "one_holed_torus", "four_holed_sphere", "genus2_closed")

_QUARTER = Fraction(1, 4)
_EIGHTH = Fraction(1, 8)


# ---------------------------------------------------------------------------
# curve constructors


def subgraph_link(surface: CellSurface, edges) -> tuple[EmbeddedCurve, ...]:
    """Boundary components of a ribbon neighbourhood of a subgraph.

    `edges` is a set of interior edges of the 1-skeleton whose endpoints are
    interior vertices. The neighbourhood boundary is traced by walking ccw
    around each vertex disc: ends outside the subgraph are crossed a quarter
    of the way in (surface.end_crossing), ends inside it jump the walk to the
    edge's other end. One component per orbit, unoriented.
    """
    edges = frozenset(edges)
    for e in edges:
        if e not in surface.interior_edges:
            raise PreconditionError(f"{e!r} is not an interior edge")
    sub_ends = {(e, j) for e in edges for j in (0, 1)}
    for end in sub_ends:
        if not surface.vertex_is_interior(surface.vertex_at(end)):
            raise PreconditionError(
                f"subgraph edge {end[0]!r} touches a boundary vertex"
            )

    # every end here sits at an interior vertex, whose rotation is one
    # cycle of ccw_next
    ccw_next = surface.ccw_next
    seen = set()
    components = []
    for start in sorted(sub_ends):
        if start in seen:
            continue
        events = []
        state = start
        while True:
            seen.add(state)
            x = ccw_next[state]
            while x not in sub_ends:
                events.append(end_crossing(x, _QUARTER))
                x = ccw_next[x]
            state = (x[0], 1 - x[1])
            if state == start:
                break
        if not events:
            raise ComputationError("subgraph link component carries no edge events")
        components.append(EmbeddedCurve(surface, tuple(events), oriented=False))
    return tuple(components)


def boundary_parallel_curve(surface: CellSurface, circuit_index: int) -> EmbeddedCurve:
    """Simple closed curve running parallel to one boundary circuit.

    Walks the circuit and crosses, at each vertex it passes, the interior
    edge-ends of that vertex in rotation order, an eighth of the way in
    (surface.end_crossing).
    """
    if not 0 <= circuit_index < len(surface.boundary_circuits):
        raise PreconditionError(f"no boundary circuit {circuit_index}")
    circuit = surface.boundary_circuits[circuit_index]
    events = []
    for edge, sign in circuit:
        vi = surface.vertex_at((edge, 1 if sign > 0 else 0))
        rot = surface.rotations[vi]
        for end in rot[1:-1]:  # first and last end lie on the boundary
            events.append(end_crossing(end, _EIGHTH))
    if not events:
        raise ComputationError("boundary circuit has no interior link")
    curve = EmbeddedCurve(surface, tuple(events), oriented=False)
    if not is_boundary_parallel(curve):
        raise ComputationError("boundary link walk produced a non-parallel curve")
    return curve


def torus_curve(surface: CellSurface, p: int, q: int) -> EmbeddedCurve:
    """Simple closed curve of slope (p, q) on a square model with edges h, v.

    Traces the straight line (x0 + p t, y0 + q t) on the unit square, picking
    the base point off every lattice line through the origin so the curve
    misses the vertex. Crossings of the vertical edge get direction sign(p),
    crossings of the horizontal edge -sign(q).  A slope that is no pair of
    ints, bools included, raises PreconditionError.
    """
    if type(p) is not int or type(q) is not int:
        raise PreconditionError(f"slope ({p!r}, {q!r}) is not a pair of ints")
    for slot in (("h", 1), ("h", -1), ("v", 1), ("v", -1)):
        if not surface.has_slot(*slot):
            raise PreconditionError("surface is not a square model with edges h, v")
    if math.gcd(abs(p), abs(q)) != 1:
        raise PreconditionError(f"({p}, {q}) is not a primitive slope")
    # q*x0 - p*y0 must be non-integral or the line hits the vertex.
    half = Fraction(1, 2)
    if (p + q) % 2:
        x0, y0 = half, half
    else:  # p, q both odd
        x0, y0 = half, Fraction(1, 4)
    timed = []
    ks = range(1, p + 1) if p > 0 else range(0, p, -1)
    for k in ks:
        t = Fraction(k - x0, p)
        timed.append((t, "v", 1 if p > 0 else -1, (y0 + q * t) % 1))
    ms = range(1, q + 1) if q > 0 else range(0, q, -1)
    for m in ms:
        t = Fraction(m - y0, q)
        timed.append((t, "h", -1 if q > 0 else 1, (x0 + p * t) % 1))
    timed.sort(key=lambda item: item[0])
    return EmbeddedCurve(surface, tuple((e, d, pos) for _, e, d, pos in timed))


# ---------------------------------------------------------------------------
# pants systems


@dataclass(frozen=True)
class PantsSystem:
    """Maximal disjoint curve system with dual curves.

    `pants_curves` lists the 3g-3+n interior curves first, then one curve
    parallel to each boundary circuit (indices 3g-3+n .. 3g-4+2n). Dual
    curves exist only for the interior entries: nothing crosses a
    boundary-parallel curve essentially, so boundary entries have no dual.
    `partners` maps an interior index i to a curve crossing pants curve i
    exactly once, where one is available.  `dual_counts[i]` is i(a_i, b_i),
    1 or 2, as measured when the system is built.
    """

    surface: CellSurface
    pants_curves: tuple[EmbeddedCurve, ...]
    interior_count: int
    dual_curves: tuple[EmbeddedCurve, ...]
    partners: Mapping[int, EmbeddedCurve]
    dual_counts: tuple[int, ...]

    @property
    def interior_curves(self) -> tuple[EmbeddedCurve, ...]:
        return self.pants_curves[: self.interior_count]

    @property
    def boundary_curves(self) -> tuple[EmbeddedCurve, ...]:
        return self.pants_curves[self.interior_count :]

    def dual_for(self, i: int) -> EmbeddedCurve:
        if not 0 <= i < self.interior_count:
            raise PreconditionError(f"pants curve {i} has no dual")
        return self.dual_curves[i]


def _build_pants(surface, interior, boundary, duals, partners) -> PantsSystem:
    g, n = surface.genus, surface.num_boundary
    if len(interior) != surface.norm or len(boundary) != n:
        raise ComputationError("pants system has the wrong curve count")
    curves = tuple(interior) + tuple(boundary)

    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if geometric_intersection_number(curves[i], curves[j]):
                raise ComputationError(f"pants curves {i}, {j} are not disjoint")
    dual_counts = []
    for i, d in enumerate(duals):
        for j, a in enumerate(curves):
            pair = minimal_position(d, a)
            k = len(pair.crossings)
            if j == i:
                dual_counts.append(k)
                if k == 2:
                    signs = sorted(c.sign for c in pair.crossings)
                    if signs != [-1, 1]:
                        raise ComputationError(
                            f"dual {i} meets its curve twice with equal signs"
                        )
                elif k != 1:
                    raise ComputationError(f"dual {i} meets its curve {k} times")
            elif k:
                raise ComputationError(f"dual {i} crosses pants curve {j}")
    for i, partner in partners.items():
        if geometric_intersection_number(partner, curves[i]) != 1:
            raise ComputationError(f"partner of curve {i} does not cross it once")

    # Complement of the interior curves: every piece a 3-holed sphere.
    system = JointSystem(surface, interior)
    for region in system.regions:
        if region.chi != -1 or len(region.circuits) != 3:
            raise ComputationError("complement piece is not a 3-holed sphere")
    return PantsSystem(surface, curves, len(interior), tuple(duals), dict(partners),
                       tuple(dual_counts))


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class PresetSurface:
    """A shipped surface: cell structure, named curves, flow basis, pants."""

    name: str
    surface: CellSurface
    curves: Mapping[str, EmbeddedCurve]
    flows: tuple[Flow, ...]
    pants: PantsSystem | None

    def curve(self, name: str) -> EmbeddedCurve:
        try:
            return self.curves[name]
        except KeyError:
            known = ", ".join(sorted(self.curves))
            raise PreconditionError(
                f"preset {self.name!r} has no curve {name!r} (known: {known})"
            ) from None


_TORUS_FACES = ((("h", 1), ("v", 1), ("h", -1), ("v", -1)),)

_ONE_HOLED_FACES = ((("h", 1), ("v", 1), ("h", -1), ("v", -1), ("bdy", 1)),)

_FOUR_HOLED_FACES = (
    (("p", 1), ("d1", 1), ("p", -1), ("q", 1), ("d2", 1), ("q", -1), ("w", 1)),
    (("p2", 1), ("d3", 1), ("p2", -1), ("q2", 1), ("d4", 1), ("q2", -1), ("w", -1)),
)

_GENUS2_FACES = (
    (("b0", 1), ("c1", 1), ("b1", 1), ("c1", -1), ("c2", 1), ("b2", 1), ("c2", -1)),
    (("b0", -1), ("c1p", 1), ("b1", -1), ("c1p", -1), ("c2p", 1), ("b2", -1), ("c2p", -1)),
)


def homology_class(surface: CellSurface, c: EmbeddedCurve) -> tuple[int, ...]:
    """Integer homology coordinates of c in a preset's fixed flow basis.

    The basis is the flows of the preset whose surface equals `surface`
    (same faces), found by scanning PRESET_NAMES through the cached
    build_preset, so any curve on a preset surface has coordinates without
    the preset wrapper.  A surface that no preset carries has no basis.
    """
    if not c.oriented:
        raise PreconditionError("homology class needs an oriented curve")
    if c.surface is not surface and c.surface != surface:
        raise PreconditionError("curve does not live on this surface")
    for name in PRESET_NAMES:
        preset = build_preset(name)
        if preset.surface == surface:
            return tuple(f.pair(c) for f in preset.flows)
    raise PreconditionError("no preset carries this surface")


@lru_cache(maxsize=None)
def build_preset(name: str) -> PresetSurface:
    """Construct a named preset surface with its curve system, once."""
    if name == "torus":
        return _build_torus()
    if name == "one_holed_torus":
        return _build_one_holed_torus()
    if name == "four_holed_sphere":
        return _build_four_holed_sphere()
    if name == "genus2_closed":
        return _build_genus2()
    raise PreconditionError(
        f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
    )


def _build_torus() -> PresetSurface:
    s = CellSurface(_TORUS_FACES)
    flows = (Flow("x", s, {"v": 1}), Flow("y", s, {"h": -1}))
    curves = {"x": torus_curve(s, 1, 0), "y": torus_curve(s, 0, 1)}
    return PresetSurface("torus", s, curves, flows, None)


def _build_one_holed_torus() -> PresetSurface:
    s = CellSurface(_ONE_HOLED_FACES)
    a1 = EmbeddedCurve(s, (("v", 1, Fraction(1, 2)),), oriented=False)
    dual1 = EmbeddedCurve(s, (("h", -1, Fraction(1, 2)),), oriented=False)
    bp1 = boundary_parallel_curve(s, 0)
    flows = (Flow("x", s, {"v": 1}), Flow("y", s, {"h": -1}))
    pants = _build_pants(s, [a1], [bp1], [dual1], {0: dual1})
    curves = {"a1": a1, "dual1": dual1, "bp1": bp1}
    return PresetSurface("one_holed_torus", s, curves, flows, pants)


def _build_four_holed_sphere() -> PresetSurface:
    s = CellSurface(_FOUR_HOLED_FACES)
    a1 = EmbeddedCurve(
        s, (("q", -1, Fraction(1, 4)), ("p", -1, Fraction(1, 4))), oriented=False
    )
    dual1 = EmbeddedCurve(
        s,
        (
            ("q", 1, Fraction(1, 4)),
            ("w", 1, Fraction(1, 3)),
            ("q2", 1, Fraction(1, 4)),
            ("w", -1, Fraction(2, 3)),
        ),
        oriented=False,
    )
    bps = [boundary_parallel_curve(s, k) for k in range(4)]
    flows = (
        Flow("f1", s, {"p": 1, "q": -1}),
        Flow("f2", s, {"q": 1, "p2": -1}),
        Flow("f3", s, {"p2": 1, "q2": -1}),
    )
    pants = _build_pants(s, [a1], bps, [dual1], {})
    curves = {"a1": a1, "dual1": dual1}
    curves.update({f"bp{k + 1}": bp for k, bp in enumerate(bps)})
    return PresetSurface("four_holed_sphere", s, curves, flows, pants)


def _build_genus2() -> PresetSurface:
    s = CellSurface(_GENUS2_FACES)
    # A loop's ribbon neighbourhood is an annulus: both link components are
    # isotopic to the loop, so the first (sorted by start end) is taken.
    a1 = subgraph_link(s, {"b0"})[0]
    a2 = subgraph_link(s, {"b1"})[0]
    a3 = subgraph_link(s, {"b2"})[0]
    (dual1,) = subgraph_link(s, {"b1", "c1", "c1p"})
    (dual2,) = subgraph_link(s, {"b0", "c1", "c1p"})  # the separating waist
    (dual3,) = subgraph_link(s, {"b0", "c2", "c2p"})
    t1 = EmbeddedCurve(
        s, (("b0", 1, Fraction(1, 2)), ("b1", -1, Fraction(1, 2))), oriented=False
    )
    t2 = EmbeddedCurve(
        s, (("b1", 1, Fraction(1, 2)), ("b2", -1, Fraction(1, 2))), oriented=False
    )
    flows = (
        Flow("h1", s, {"c1": 1, "c1p": -1}),
        Flow("m1", s, {"b0": 1}),
        Flow("h2", s, {"c2": 1, "c2p": -1}),
        Flow("m2", s, {"b2": -1}),
    )
    pants = _build_pants(s, [a1, a2, a3], [], [dual1, dual2, dual3], {0: t1})
    curves = {
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "dual1": dual1,
        "dual2": dual2,
        "dual3": dual3,
        "waist": dual2,
        "t1": t1,
        "t2": t2,
    }
    return PresetSurface("genus2_closed", s, curves, flows, pants)
