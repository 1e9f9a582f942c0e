"""Seeded workloads for the dehnkit benchmark.

Each workload is a fixed list of ops. An op calls one public dehnkit entry
point (`reduce_pair` or `factorize`) on inputs made here from the seed, and
comes with a check that validates its output independently of the call.

The seed varies what the program sees (which slope of a residue class, the
symmetric image of a curve, where each itinerary starts, its direction, the
op order) while keeping the amount of work the same, so that one seed's
timings are comparable with another's. See README.md for why each workload
exists and what the seed changes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

# Entry points are looked up on their modules at call time, so that the
# tracer's rebinding of module attributes sees the benchmark's own calls.
from dehnkit import EmbeddedCurve, factorization, presets, reduction, twisting
from dehnkit.overlay import geometric_intersection_number
from dehnkit.presets import homology_class, torus_curve
from dehnkit.reduction import TERMINAL_TAGS

WORKLOADS = ("torus-slopes", "g2-growth", "factorize-words")


@dataclass(frozen=True)
class Op:
    """One call into dehnkit plus what is needed to judge its output.

    `run` performs the call and returns its output. `check` returns a list
    of problems with that output (empty when it is correct). `letters`
    counts the twist letters the output emits. `signature` reduces an
    output to a small comparable value, used to confirm that repeated
    passes produce the same results.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    letters: Callable[[object], int]
    signature: Callable[[object], object]
    inputs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]

    def describe(self) -> list:
        """The generated inputs as plain data, op by op."""
        return [(op.label, op.inputs) for op in self.ops]


def build(name: str, seed: int) -> Workload:
    if name == "torus-slopes":
        return torus_slopes(seed)
    if name == "g2-growth":
        return g2_growth(seed)
    if name == "factorize-words":
        return factorize_words(seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# input variation that keeps the curve (and so the work) the same


def automorphisms(surface) -> list[dict]:
    """Orientation-preserving symmetries of a cell structure, as edge maps.

    Each map sends an edge name to (image edge, +1 if directions agree,
    -1 if reversed). A symmetry sends every face onto a face with its
    cyclic slot order kept, so trying every face assignment and rotation
    finds them all. The identity comes first.
    """
    faces = surface.faces
    found = []
    for perm in itertools.permutations(range(len(faces))):
        if any(len(faces[f]) != len(faces[g]) for f, g in enumerate(perm)):
            continue
        for rots in itertools.product(*(range(len(faces[g])) for g in perm)):
            emap = {}
            ok = True
            for f, (g, r) in enumerate(zip(perm, rots)):
                src, dst = faces[f], faces[g]
                for k, (e, s) in enumerate(src):
                    e2, s2 = dst[(k + r) % len(dst)]
                    if emap.setdefault(e, (e2, s * s2)) != (e2, s * s2):
                        ok = False
                        break
                if not ok:
                    break
            if ok and len({e2 for e2, _ in emap.values()}) == len(emap):
                found.append(emap)
    found.sort(key=lambda m: any(m[e] != (e, 1) for e in m))
    return found


def map_curve(c: EmbeddedCurve, emap: dict) -> EmbeddedCurve:
    """Image of a curve under a symmetry from `automorphisms`."""
    events = []
    for e, d, p in c.events:
        e2, s = emap[e]
        events.append((e2, d * s, p if s > 0 else 1 - p))
    return EmbeddedCurve(c.surface, tuple(events), oriented=c.oriented)


def restart(c: EmbeddedCurve, rng: random.Random) -> EmbeddedCurve:
    """The same curve with its itinerary started at a random event.

    Unoriented curves may also be walked the other way round.
    """
    k = rng.randrange(len(c.events))
    events = c.events[k:] + c.events[:k]
    if not c.oriented and rng.random() < 0.5:
        events = tuple((e, -d, p) for e, d, p in reversed(events))
    return EmbeddedCurve(c.surface, events, oriented=c.oriented)


def _events_data(c: EmbeddedCurve) -> tuple:
    return tuple((e, d, str(p)) for e, d, p in c.events)


# ---------------------------------------------------------------------------
# homology checks
#
# These use only integer arithmetic on the presets' flow-basis coordinates,
# so they do not rely on the twisting or overlay code they check.

# Algebraic intersection forms of the presets' flow bases: entry [i][j] is
# the algebraic intersection of curves whose classes are e_i and e_j. The
# genus-2 flows are not a symplectic basis, so that form is written out. The
# four-holed sphere is planar: its form is zero and twists act trivially on
# its homology.
TORUS_FORM = ((0, 1), (-1, 0))
GENUS2_FORM = (
    (0, -1, 0, 1),
    (1, 0, 0, 1),
    (0, 0, 0, -1),
    (-1, -1, 1, 0),
)
INTERSECTION_FORMS = {
    "torus": TORUS_FORM,
    "one_holed_torus": TORUS_FORM,
    "four_holed_sphere": ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    "genus2_closed": GENUS2_FORM,
}


def algebraic(form, u, v) -> int:
    """Algebraic intersection of classes u and v under `form`."""
    return sum(u[i] * form[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _hom(c: EmbeddedCurve):
    return homology_class(c.surface, c.with_orientation(True))


def act_on_homology(form, letters, v: tuple) -> tuple:
    """Class of the image of a class-v curve under a word, letters left to right.

    The twist T_c^k acts on homology as the transvection
    v -> v + k * alg(c, v) * c, in the handedness apply_twist uses. The
    formula is even in c, so the letter curves' orientations do not matter.
    """
    for c, k in letters:
        u = _hom(c)
        s = k * algebraic(form, u, v)
        v = tuple(x + s * y for x, y in zip(v, u))
    return v


def _check_image_class(form, word, b, b_final) -> list:
    """b_final must be the word's image of b in homology, up to orientation."""
    expected = act_on_homology(form, word.letters, _hom(b))
    got = _hom(b_final)
    if got != expected and got != tuple(-x for x in expected):
        return [f"final class {got} is not the word's image {expected} of b"]
    return []


# ---------------------------------------------------------------------------
# torus-slopes

FIBONACCI_SLOPES = ((3, 5), (13, 21), (34, 55))
# Crossing counts d with the fixed curve 2/1. Each residue r of q modulo d
# (coprime to d) and each side s gives a class of slopes p/q = (2q - s*d)/q,
# q = r + d: the smallest lift with q > d.
TORUS_COUNTS = (3, 5, 7)


def torus_slope_list(seed: int) -> list[tuple[int, int]]:
    """The fixed Fibonacci slopes plus one slope from each class, in seeded order.

    The slopes themselves do not depend on the seed. Letting it pick the
    lift q = r + k*d as well moved the median op's time by up to 30% from
    seed to seed, which is the workload changing rather than the code.
    """
    slopes = list(FIBONACCI_SLOPES)
    for d in TORUS_COUNTS:
        for r in range(1, d):
            if math.gcd(r, d) != 1:
                continue
            for s in (1, -1):
                q = r + d
                slopes.append((2 * q - s * d, q))
    random.Random(seed).shuffle(slopes)
    return slopes


def torus_slopes(seed: int) -> Workload:
    surface = presets.build_preset("torus").surface
    a = torus_curve(surface, 2, 1)
    rng = random.Random(seed)
    ops = []
    for p, q in torus_slope_list(seed):
        b = torus_curve(surface, p, q)
        if seed != 0:
            a, b = restart(a, rng), restart(b, rng)
        ops.append(_torus_op(a, b, f"reduce_pair(2/1, {p}/{q})"))
    return Workload("torus-slopes", seed, tuple(ops))


def _reduce_op(a: EmbeddedCurve, b: EmbeddedCurve, label: str, check_final) -> Op:
    """reduce_pair(a, b); `check_final` adds the workload's own checks."""

    def check(out) -> list:
        word, b_final, cls = out
        problems = check_final(word, b_final, cls)
        if cls.tag not in TERMINAL_TAGS:
            problems.append(f"final class {cls.tag} is not terminal")
        if not word.is_positive:
            problems.append("reduction word is not positive")
        return problems

    def signature(out):
        word, b_final, cls = out
        return (len(word), cls.tag, cls.count, len(b_final.events))

    return Op(
        label=label,
        run=lambda: reduction.reduce_pair(a, b),
        check=check,
        letters=lambda out: len(out[0]),
        signature=signature,
        inputs=(_events_data(a), _events_data(b)),
    )


def _torus_op(a: EmbeddedCurve, b: EmbeddedCurve, label: str) -> Op:
    def check_final(word, b_final, cls) -> list:
        problems = []
        det0 = abs(algebraic(TORUS_FORM, _hom(a), _hom(b)))
        i0 = geometric_intersection_number(a, b)
        if i0 != det0:
            problems.append(f"initial count {i0} != |det| {det0}")
        det1 = abs(algebraic(TORUS_FORM, _hom(a), _hom(b_final)))
        if cls.count != det1:
            problems.append(f"final count {cls.count} != |det| {det1}")
        if len(word) > i0:
            problems.append(f"{len(word)} letters exceed the initial count {i0}")
        return problems + _check_image_class(TORUS_FORM, word, b, b_final)

    return _reduce_op(a, b, label, check_final)


# ---------------------------------------------------------------------------
# g2-growth

# The chain's next curve, c_5 with 290 events, takes about 8 s per
# reduce_pair at this commit: too long for several passes in one run.
G2_CHAIN_LENGTH = 4


def g2_growth(seed: int) -> Workload:
    """reduce_pair(a1, c_r) along c_r = T_t1(T_a2^-1(c_{r-1})), c_0 = dual1.

    This is the chain with 8, 18, 44 and 112 events. No other two-letter
    generator on this cell structure grows a1's crossings the same way, so
    the seed varies the representation instead: it picks a symmetry of the
    cell structure applied to all four curves, then where each input
    itinerary starts. Seed 0 keeps the stored preset curves.
    """
    preset = presets.build_preset("genus2_closed")
    names = ("a1", "dual1", "t1", "a2")
    curves = [preset.curve(n) for n in names]
    rng = random.Random(seed)
    if seed != 0:
        symmetries = automorphisms(preset.surface)
        emap = symmetries[rng.randrange(len(symmetries))]
        curves = [map_curve(c, emap) for c in curves]
    a1, c, t1, a2 = curves
    ops = []
    for r in range(1, G2_CHAIN_LENGTH + 1):
        c = twisting.apply_twist(t1, 1, twisting.apply_twist(a2, -1, c))
        a_in = a1 if seed == 0 else restart(a1, rng)
        c_in = c if seed == 0 else restart(c, rng)
        ops.append(_g2_op(a_in, c_in, f"reduce_pair(a1, c_{r}) [{len(c.events)} events]"))
    return Workload("g2-growth", seed, tuple(ops))


def _g2_op(a: EmbeddedCurve, b: EmbeddedCurve, label: str) -> Op:
    def check_final(word, b_final, cls) -> list:
        problems = []
        alg = algebraic(GENUS2_FORM, _hom(a), _hom(b_final))
        if abs(alg) > cls.count or (cls.count - alg) % 2:
            problems.append(f"algebraic {alg} does not fit geometric {cls.count}")
        i1 = geometric_intersection_number(a, b_final)
        if i1 != cls.count:
            problems.append(f"final pair crosses {i1} times, class says {cls.count}")
        i0 = geometric_intersection_number(a, b)
        if len(word) > i0:
            problems.append(f"{len(word)} letters exceed the initial count {i0}")
        return problems + _check_image_class(GENUS2_FORM, word, b, b_final)

    return _reduce_op(a, b, label, check_final)


# ---------------------------------------------------------------------------
# factorize-words

# Fixed words, written as (curve name, exponent) and applied left to right.
# The words on the two small presets all fail at this commit: factorize
# tracks boundary-parallel pants curves and apply_twist rejects them. The
# genus-2 list holds the word that trips the bigon-removal guard
# (waist^-1 t1^-1 dual1), another that does (dual3 t2^-1 a2), and the
# four-letter word dual1 t2^-1 a2 t1 used as a reference timing.
FACTORIZE_WORDS = {
    "one_holed_torus": (
        (("a1", 1),),
        (("dual1", -1), ("a1", 1)),
        (("a1", 1), ("dual1", 1), ("a1", -1)),
        (("dual1", 1), ("a1", 1), ("dual1", 1), ("a1", 1)),
    ),
    "four_holed_sphere": (
        (("a1", 1),),
        (("a1", 1), ("dual1", -1)),
        (("dual1", 1), ("a1", -1), ("dual1", 1)),
        (("a1", -1), ("dual1", 1), ("a1", -1), ("dual1", -1)),
    ),
    "genus2_closed": (
        (("t1", -1),),
        (("dual3", 1),),
        (("t2", 1),),
        (("a1", -1),),
        (("t1", 1), ("a2", -1)),
        (("dual1", 1), ("a1", -1)),
        (("t2", -1), ("a3", 1)),
        (("waist", -1), ("t1", -1), ("dual1", 1)),
        (("dual3", 1), ("t2", -1), ("a2", 1)),
        (("t2", 1), ("dual1", -1), ("a3", 1)),
        (("dual1", 1), ("t2", -1), ("a2", 1), ("t1", 1)),
        (("a3", -1), ("dual3", 1), ("a3", 1), ("a1", 1)),
    ),
}


def factorize_words(seed: int) -> Workload:
    """factorize on fixed words over three presets, each against its pants.

    The seed shuffles the op order. The letter curves keep their stored
    representations: a symmetry image or another start point makes
    t2^-1 a3 trip the bigon-removal guard on about half of all seeds,
    which would make the failure count, and with it every metric, depend
    on the seed.
    """
    ops = []
    for preset_name, words in FACTORIZE_WORDS.items():
        preset = presets.build_preset(preset_name)
        for word in words:
            letters = [(preset.curve(name), k) for name, k in word]
            spelled = "*".join(f"{n}^{k}" for n, k in word)
            ops.append(_factorize_op(letters, preset.pants, INTERSECTION_FORMS[preset_name],
                                     f"factorize({preset_name}: {spelled})"))
    random.Random(seed).shuffle(ops)
    return Workload("factorize-words", seed, tuple(ops))


def _factorize_op(letters, pants, form, label: str) -> Op:
    def run():
        return factorization.factorize(twisting.TwistWord(tuple(letters)), pants)

    def check(out) -> list:
        # verified, the per-curve budget and the exponent count repeat
        # factorize's own guards; the homology comparison does not.
        problems = []
        if not out.verified:
            problems.append("certificate not verified")
        if not out.p.is_positive:
            problems.append("p is not positive")
        for step in out.step_log:
            used = step["reduce"] + step["match"] + step["orient"]
            if used > step["initial_crossings"] + 10:
                problems.append(f"curve {step['curve']} used {used} letters")
        if len(out.q_exponents) != len(pants.pants_curves):
            problems.append("wrong number of pants exponents")
            return problems
        # f must act on homology as p followed by the pants twists q.
        q = [(c, n) for c, n in zip(pants.pants_curves, out.q_exponents) if n]
        for j in range(len(form)):
            e = tuple(int(i == j) for i in range(len(form)))
            want = act_on_homology(form, letters, e)
            got = act_on_homology(form, q, act_on_homology(form, out.p.letters, e))
            if got != want:
                problems.append(f"p then q sends e{j} to {got}, the word to {want}")
        return problems

    return Op(
        label=label,
        run=run,
        check=check,
        letters=lambda out: len(out.p),
        signature=lambda out: (len(out.p), out.q_exponents),
        inputs=tuple((_events_data(c), k) for c, k in letters),
    )
