"""Positive factorization of twist words over a pants system.

The driver walks the interior pants curves in order. For each one it pulls
the curve back through the map built so far, drives the pullback to a
terminal class with positive twists, matches it back onto the pants curve
(through a connector when they ended up disjoint), and repairs orientation
with the six-letter involution word when needed. What remains after all
pants curves are fixed is a product of twists on the pants curves
themselves; its exponents are read off from how it moves each dual curve.

Every ComputationError raised here carries the surface and the curves that
replay its failed check (see ComputationError.replay_json).
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import PairClass, _require_essential, classify_pair
from .errors import BudgetExceededError, ComputationError, PreconditionError
from .overlay import (
    JointSystem,
    connecting_curve,
    curves_isotopic,
    geometric_intersection_number,
    is_separating,
    isotopic_in,
    minimal_position,
)
from .presets import PantsSystem
from .reduction import _reduce_counted
from .surface import EmbeddedCurve
from .twisting import TwistWord, apply_twist, apply_word

__all__ = [
    "FactorizationResult",
    "factorize",
    "find_connector_curve",
    "fix_orientation",
    "match_curve",
]

# How many segment pairings the connector router tries before giving up.
CONNECTOR_BUDGET = 800


def find_connector_curve(a: EmbeddedCurve, a_prime: EmbeddedCurve,
                         *, avoid=()) -> EmbeddedCurve:
    """A simple loop crossing each of a, a_prime exactly once.

    The loop also misses every curve in `avoid`. It is routed through the
    complement of the joint arrangement of all the input curves, so the
    crossing counts hold by construction; the router tries at most
    CONNECTOR_BUDGET segment pairings.  A pairing may have one cell beside
    both segments, as every pairing of two disjoint genus-2 pants curves
    does; the loop then crosses from a to a_prime inside that cell (see
    overlay.connecting_curve).  That arrangement refuses three of
    the curves crossing pairwise in one face (PreconditionError, see
    JointSystem), which cannot happen when a and the curves of `avoid` are
    pairwise disjoint as placed, as the pants curves of a preset are.
    """
    if a.surface is not a_prime.surface and a.surface != a_prime.surface:
        raise PreconditionError("curves live on different surfaces")
    if is_separating(a) or is_separating(a_prime):
        raise PreconditionError("connector endpoints must be non-separating")
    cls = classify_pair(a, a_prime)
    if cls.tag not in ("disjoint", "two_zero"):
        raise PreconditionError(f"pair class {cls.tag} admits no connector step")

    system = JointSystem(a.surface, (a, a_prime, *avoid))
    c = connecting_curve(system, 1, max_candidates=CONNECTOR_BUDGET)
    if c is None:
        raise BudgetExceededError(
            "no connector routes through the joint complement", budget=CONNECTOR_BUDGET
        )
    return c


def match_curve(a_prime: EmbeddedCurve, a: EmbeddedCurve, *, avoid=()) -> TwistWord:
    """All-positive word of at most four letters sending a_prime onto a."""
    for c in (a_prime, a):
        if is_separating(c):
            raise PreconditionError("match_curve requires non-separating curves")
    return _match(a_prime, a, classify_pair(a_prime, a), avoid)[0]


def _match(a_prime: EmbeddedCurve, a: EmbeddedCurve, cls: PairClass, avoid):
    """match_curve's word for a non-separating pair of class cls, and the image
    of a_prime under it.

    Isotopic curves do not cross, so only a disjoint pair is tested for
    isotopy.  The image keeps a_prime's orientation; the check that it lands
    on a ignores orientation.
    """
    a_flat = a.with_orientation(False)
    if cls.count == 0 and curves_isotopic(a_prime.with_orientation(False), a_flat):
        return TwistWord(()), a_prime
    if cls.tag == "one_point":
        word = TwistWord(((a, 1), (a_prime, 1)))
    elif cls.tag in ("disjoint", "two_zero"):
        c = find_connector_curve(a, a_prime, avoid=avoid)
        word = TwistWord(((c, 1), (a_prime, 1), (a, 1), (c, 1)))
    else:
        raise PreconditionError(f"pair class {cls.tag} is not terminal")
    image = apply_word(word, a_prime)
    if not curves_isotopic(image.with_orientation(False), a_flat):
        raise ComputationError("match word failed to align the curves",
                               a.surface, (a_prime, a, *avoid))
    return word, image


def fix_orientation(a: EmbeddedCurve, partner: EmbeddedCurve) -> TwistWord:
    """Six positive letters reversing the orientations of both curves.

    The word is (D_a D_p D_a) squared; it fixes each curve setwise and acts
    as the hyperelliptic flip on the one-holed torus they span.
    """
    if geometric_intersection_number(a, partner) != 1:
        raise PreconditionError("orientation fix needs a partner crossing once")
    return TwistWord(((a, 1), (partner, 1), (a, 1), (a, 1), (partner, 1), (a, 1)))


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of factorize: f agrees with (pants twists) after (positive p).

    `q_exponents` has one entry per pants curve, in the order of
    PantsSystem.pants_curves.  The boundary-parallel entries are always 0:
    curves are taken up to isotopies that may rotate the boundary, so a
    twist along a boundary curve is not seen.  `certificate` has one entry
    per tracked curve of the filling family.
    """

    p: TwistWord
    q_exponents: tuple[int, ...]
    certificate: tuple[bool, ...]
    step_log: tuple[dict, ...]

    @property
    def verified(self) -> bool:
        return bool(self.certificate) and all(self.certificate)


def _orientation_partner(sys: PantsSystem, i: int, frozen):
    """A curve crossing pants curve i once and missing every frozen curve.

    Stored system curves are preferred; otherwise the partner is routed
    through the complement of pants curve i and the frozen curves.  Only
    stored curves that can cross a_i once are tried: pants curves are
    pairwise disjoint, and dual j misses every pants curve but a_j (the
    pants system checks both when it is built), so the pool is partner i,
    dual i when it crosses a_i once, then the other partners.
    """
    a_i = sys.pants_curves[i]
    pool = [sys.partners[i]] if i in sys.partners else []
    if sys.dual_counts[i] == 1:
        pool.append(sys.dual_for(i))
    pool.extend(p for k, p in sys.partners.items() if k != i)
    for cand in pool:
        if geometric_intersection_number(cand, a_i) != 1:
            continue
        if all(geometric_intersection_number(cand, fr) == 0 for fr in frozen):
            return cand
    system = JointSystem(sys.surface, (a_i, *frozen))
    return connecting_curve(system)


def _filling_family(sys: PantsSystem):
    family = []
    seen = set()
    for c in (*sys.pants_curves, *sys.dual_curves, *sys.partners.values()):
        key = (c.canonical_key, c.surface.faces)
        if key not in seen:
            seen.add(key)
            family.append(c)
    return tuple(family)


def _exponents_from_images(sys: PantsSystem, pants_images, dual_images):
    """Exponents n_i with the measured map acting as the product of D_{a_i}^{n_i}.

    Takes the images of the oriented interior pants curves and of their
    duals under the map.  Each dual curve b_i crosses exactly one pants
    curve a_i, so the twist amount on that curve is i(image, b_i) divided by
    i(a_i, b_i)^2, the dual count the pants system stores, and is signed by
    an isotopy test.  The pair (image, b_i) is put in minimal position once:
    an untwisted image is tested for isotopy with b_i in that arrangement.

    There is one exponent per pants curve, interior curves first; the
    boundary-parallel entries are padded with 0.  Curves are taken up to
    isotopies that may rotate the boundary, and those undo a twist along a
    boundary curve, so no exponent is measured for one.

    Its isotopy tests are certificate entries too: each pants image is
    compared with its curve and each dual image with D_{a_i}^{n_i}(b_i),
    the twisted curve first, and a failed test raises.
    """
    exps = []
    for i in range(sys.interior_count):
        a_i = sys.pants_curves[i]
        src = a_i.with_orientation(True)
        if not curves_isotopic(pants_images[i], src):
            raise PreconditionError("residual moves a pants curve")
        b_i = sys.dual_for(i).with_orientation(True)
        img = dual_images[i]
        base = sys.dual_counts[i]
        _require_essential(img, b_i)
        pair = minimal_position(img, b_i)
        k = len(pair.crossings)
        # what the checks below read, and so what replays them
        replay = (sys.surface, (a_i, b_i, img))
        outside = "residual is not in the pants-twist subgroup"
        if k % (base * base):
            raise ComputationError(outside, *replay)
        m = k // (base * base)
        if m == 0:
            if not isotopic_in(pair, img.oriented):
                raise ComputationError(outside, *replay)
            exps.append(0)
            continue
        if curves_isotopic(apply_twist(a_i, m, b_i), img):
            exps.append(m)
        elif curves_isotopic(apply_twist(a_i, -m, b_i), img):
            exps.append(-m)
        else:
            raise ComputationError(outside, *replay)
    exps.extend(0 for _ in range(len(sys.pants_curves) - sys.interior_count))
    return tuple(exps)


def _certify(sys: PantsSystem, tracked, fam_index, images):
    """Pants exponents s of the residual map, and the certificate entries.

    `images` are the images of the tracked curves under the residual map,
    which must equal the product of the D_{a_i}^{s_i}; raises unless it
    does on every tracked curve.
    """
    dual_at = [fam_index[sys.dual_for(i).canonical_key]
               for i in range(sys.interior_count)]
    s = _exponents_from_images(sys, images[:sys.interior_count],
                               [images[t] for t in dual_at])
    s_word = TwistWord(tuple(
        (sys.pants_curves[i], n) for i, n in enumerate(s) if n != 0))

    # The read-off has already tested the interior pants images and the dual
    # images against what s_word makes of their curves.  s_word's letters
    # miss every pants curve, and dual i misses every pants curve but a_i
    # (the pants system checks that when it is built), so s_word sends b_i
    # to apply_twist(a_i, s_i, b_i) event for event, the curve read against
    # dual image i.  Only the other tracked curves are twisted and tested.
    read_off = {*range(sys.interior_count), *dual_at}
    expected = {t: apply_word(s_word, c)
                for t, c in enumerate(tracked) if t not in read_off}
    certificate = tuple(
        t in read_off or curves_isotopic(images[t], expected[t])
        for t in range(len(tracked))
    )
    if not all(certificate):
        t = certificate.index(False)
        raise ComputationError("factorization certificate failed",
                               sys.surface, (images[t], expected[t]))
    return s, certificate


def factorize(f: TwistWord, sys: PantsSystem) -> FactorizationResult:
    """Split f into pants twists following a positive word, with certificate.

    Walks interior pants curves in listed order; twists emitted for a later
    curve never touch an earlier one, so fixes persist: the pullback b_i of
    a_i misses each earlier pants curve, as a_i does, and every reduction
    letter is homotopic into a_i ∪ b_i, so it misses them too.  Images of a
    filling family are carried along one letter at a time, and the
    certificate compares each of them against the pants-twist word the
    leftover map has to equal: agreement on a filling family forces
    agreement everywhere.
    """
    if f.letters and f.surface != sys.surface:
        raise PreconditionError("word acts on a different surface")

    family = _filling_family(sys)
    tracked = tuple(c.with_orientation(True) for c in family)
    fam_index = {c.canonical_key: t for t, c in enumerate(family)}
    f_inv = f.inverse()
    # every tracked curve pulled back through f; from here on each emitted
    # letter is applied once per curve instead of re-walking the whole word
    images = [apply_word(f_inv, c) for c in tracked]

    p_word = TwistWord(())
    step_log = []
    for i in range(sys.interior_count):
        a_i = sys.pants_curves[i]
        frozen = sys.pants_curves[:i]
        src = a_i.with_orientation(True)
        b_i = images[i]
        # k0 = |a_i ∩ b_i|, read off the arrangement that classifies the pair
        reduce_word, b_term, cls, k0 = _reduce_counted(a_i, b_i)
        if is_separating(a_i):
            # homology pins separating curves: the terminal pullback must
            # already be the curve itself, and its orientation must agree
            if not curves_isotopic(b_term.with_orientation(False),
                                   a_i.with_orientation(False)):
                raise ComputationError(
                    "separating pants curve not recovered by reduction",
                    sys.surface, (b_term, a_i))
            match_word, image = TwistWord(()), b_term
        else:
            # cls, the class of (a_i, b_term), is that of (b_term, a_i)
            match_word, image = _match(b_term, a_i, cls, frozen)

        orient_word = TwistWord(())
        if not curves_isotopic(image, src):
            if not curves_isotopic(image, src.reverse()):
                raise ComputationError("matched curve is not the pants curve",
                                       sys.surface, (image, src))
            partner = _orientation_partner(sys, i, frozen)
            if partner is None:
                raise ComputationError(
                    "orientation flip with no partner available",
                    sys.surface, (a_i, *frozen))
            orient_word = fix_orientation(a_i, partner)

        h_i = reduce_word + match_word + orient_word
        if len(h_i) > k0 + 10:
            raise ComputationError("per-curve move budget exceeded",
                                   sys.surface, (a_i, b_i, *frozen))
        p_word = p_word + h_i
        for t in range(len(images)):
            if t != i:
                images[t] = apply_word(h_i, images[t])
        # the i-th image was just driven onto its pants curve; reuse that
        images[i] = apply_word(orient_word, image)
        step_log.append({
            "curve": i,
            "initial_crossings": k0,
            "reduce": len(reduce_word),
            "match": len(match_word),
            "orient": len(orient_word),
        })

    s, certificate = _certify(sys, tracked, fam_index, images)
    return FactorizationResult(
        p=p_word,
        q_exponents=tuple(-v for v in s),
        certificate=certificate,
        step_log=tuple(step_log),
    )
