"""Intersection calculus: essentiality and pair classes.

A thin layer over the arrangement engine in overlay, which owns the pair
API (minimal_position, geometric_intersection_number, curves_isotopic) and
the single-curve predicates, unguarded so that they apply to peripheral
curves too.  This module holds only what adds something: essentiality,
the orientation guard of the algebraic count, and the pair classes the
reduction pipeline consumes, which guard essentiality.  A count has one
name: there is no guarded twin of geometric_intersection_number.
Essentiality reads the single-curve topology that overlay caches on each
curve, so checking a curve again, a reversed, reoriented or respaced copy
of it, or its image under a twist, builds no new arrangement.  A curve
that pairs nonzero with the surface's cocycle, on a surface with at most
one boundary component, is essential without any arrangement, even the
first time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .overlay import JointSystem, is_boundary_parallel, is_null_homotopic
from .overlay import minimal_position as _joint_minimal_position
from .surface import EmbeddedCurve

__all__ = [
    "PairClass",
    "algebraic_intersection",
    "classify_pair",
    "is_essential",
    "pair_class",
]


def is_essential(c: EmbeddedCurve) -> bool:
    return not is_null_homotopic(c) and not is_boundary_parallel(c)


def _require_essential(*curves: EmbeddedCurve) -> None:
    for c in curves:
        if not is_essential(c):
            raise PreconditionError("curve is not essential")


def algebraic_intersection(a: EmbeddedCurve, b: EmbeddedCurve) -> int:
    """Signed crossing sum; invariant under isotopy, so any position works."""
    if not (a.oriented and b.oriented):
        raise PreconditionError("algebraic intersection needs oriented curves")
    if a.surface != b.surface:
        raise PreconditionError("curves live on different surfaces")
    system = JointSystem(a.surface, (a, b))
    return sum(c.sign for c in system.crossings)


@dataclass(frozen=True)
class PairClass:
    """Terminal classification of a curve pair by minimal crossing data."""

    tag: str  # disjoint | one_point | two_zero | other
    count: int


def pair_class(system: JointSystem) -> PairClass:
    """Class of curves 0 and 1 of a minimal-position arrangement.

    The algebraic intersection, needed only at two crossings, is the sum of
    the crossing signs: bigon removal keeps it, so any position gives it.
    """
    k = len(system.crossings)
    if k == 0:
        return PairClass("disjoint", 0)
    if k == 1:
        return PairClass("one_point", 1)
    if k == 2 and sum(c.sign for c in system.crossings) == 0:
        return PairClass("two_zero", 2)
    return PairClass("other", k)


def _classified(a: EmbeddedCurve, b: EmbeddedCurve) -> tuple[PairClass, JointSystem]:
    """(PairClass, minimal-position arrangement) of an essential pair."""
    _require_essential(a, b)
    system = _joint_minimal_position(a, b)
    return pair_class(system), system


def classify_pair(a: EmbeddedCurve, b: EmbeddedCurve) -> PairClass:
    return _classified(a, b)[0]
