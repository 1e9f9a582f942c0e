"""Intersection calculus: guarded counts, patterns and pair classes.

A thin layer over the arrangement engine in overlay, which owns the pair
API (minimal_position, geometric_intersection_number, curves_isotopic) and
the single-curve predicates, unguarded so that they apply to peripheral
curves too.  This module holds only what adds something: the precondition
guards (essentiality, orientation) and the record types the reduction
pipeline consumes.  Essentiality reads the single-curve topology that
overlay caches on each curve, so checking a curve again, a reversed,
reoriented or respaced copy of it, or its image under a twist, builds no
new arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .overlay import (
    JointSystem,
    geometric_intersection_number,
    is_boundary_parallel,
    is_null_homotopic,
)
from .overlay import minimal_position as _joint_minimal_position
from .surface import EmbeddedCurve

__all__ = [
    "IntersectionPattern",
    "PairClass",
    "algebraic_intersection",
    "classify_pair",
    "geometric_intersection",
    "intersection_pattern",
    "is_essential",
    "pair_class",
]


def is_essential(c: EmbeddedCurve) -> bool:
    return not is_null_homotopic(c) and not is_boundary_parallel(c)


def _require_essential(*curves: EmbeddedCurve) -> None:
    for c in curves:
        if not is_essential(c):
            raise PreconditionError("curve is not essential")


def geometric_intersection(a: EmbeddedCurve, b: EmbeddedCurve) -> int:
    _require_essential(a, b)
    return geometric_intersection_number(a, b)


def algebraic_intersection(a: EmbeddedCurve, b: EmbeddedCurve) -> int:
    """Signed crossing sum; invariant under isotopy, so any position works."""
    if not (a.oriented and b.oriented):
        raise PreconditionError("algebraic intersection needs oriented curves")
    if a.surface != b.surface:
        raise PreconditionError("curves live on different surfaces")
    system = JointSystem(a.surface, (a, b))
    return sum(c.sign for c in system.crossings_between(0, 1))


@dataclass(frozen=True)
class IntersectionPattern:
    """Crossing points of a minimal-position pair, in both cyclic orders.

    Point ids are assigned in traversal order along the first curve, so
    `along_a` is always ((0, s0), (1, s1), ...); `along_b` carries the same
    ids in the second curve's order. `adjacency` lists consecutive id pairs
    along the first curve.
    """

    along_a: tuple[tuple[int, int], ...]
    along_b: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.along_a)

    @property
    def signed_total(self) -> int:
        return sum(s for _, s in self.along_a)

    def to_json(self) -> dict:
        return {
            "along_a": [list(p) for p in self.along_a],
            "along_b": [list(p) for p in self.along_b],
            "adjacency": [list(p) for p in self.adjacency],
        }


def intersection_pattern(a: EmbeddedCurve, b: EmbeddedCurve) -> IntersectionPattern:
    _require_essential(a, b)
    system = _joint_minimal_position(a, b)
    order_a = system.crossing_order_along(0)
    order_b = system.crossing_order_along(1)
    ids = {x: i for i, x in enumerate(order_a)}
    along_a = tuple((i, x.sign) for i, x in enumerate(order_a))
    along_b = tuple((ids[x], x.sign) for x in order_b)
    n = len(order_a)
    adjacency = tuple((i, (i + 1) % n) for i in range(n)) if n > 1 else ()
    return IntersectionPattern(along_a, along_b, adjacency)


@dataclass(frozen=True)
class PairClass:
    """Terminal classification of a curve pair by minimal crossing data."""

    tag: str  # disjoint | one_point | two_zero | other
    count: int

    def to_json(self) -> dict:
        return {"tag": self.tag, "count": self.count}


def pair_class(system: JointSystem) -> PairClass:
    """Class of curves 0 and 1 of a minimal-position arrangement.

    The algebraic intersection, needed only at two crossings, is the sum of
    the crossing signs: bigon removal keeps it, so any position gives it.
    """
    k = system.crossing_count(0, 1)
    if k == 0:
        return PairClass("disjoint", 0)
    if k == 1:
        return PairClass("one_point", 1)
    if k == 2 and sum(c.sign for c in system.crossings_between(0, 1)) == 0:
        return PairClass("two_zero", 2)
    return PairClass("other", k)


def classify_pair(a: EmbeddedCurve, b: EmbeddedCurve) -> PairClass:
    _require_essential(a, b)
    return pair_class(_joint_minimal_position(a, b))
