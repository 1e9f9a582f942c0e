"""Tests of the benchmark itself: span arithmetic, tracer, generators.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import itertools

import pytest

import tracer as tracing
import workloads
from tracer import Span, covered_length, layer_metrics, self_times


# ---------------------------------------------------------------------------
# span arithmetic


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span(-1, "root", 0.0, 10.0),
        Span(0, "a", 1.0, 4.0),
        Span(1, "a.child", 2.0, 3.0),
        Span(0, "b", 5.0, 7.0),
        Span(-1, "root2", 11.0, 12.0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    # every instant inside a root span is some span's self time
    assert sum(self_times(spans)) == 11.0


def test_self_time_of_overlapping_children_counts_their_union():
    spans = [
        Span(-1, "root", 0.0, 10.0),
        Span(0, "x", 2.0, 6.0),
        Span(0, "y", 4.0, 8.0),
        Span(0, "z", 9.0, 12.0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_layer_metrics_rounds_and_twists_per_letter():
    spans = [
        Span(-1, "reduction.reduce_pair", 0.0, 10.0, size=2),
        Span(0, "overlay.minimal_position", 0.0, 3.0),
        Span(1, "overlay.JointSystem", 0.0, 1.0, size=8),
        Span(1, "overlay.JointSystem", 1.0, 2.0, size=8),
        Span(1, "overlay.JointSystem", 2.0, 3.0, size=6),
        Span(0, "twisting.apply_twist", 3.0, 5.0, size=4),
        Span(5, "overlay.minimal_position", 3.0, 4.0, outer=True),
        Span(6, "overlay.JointSystem", 3.0, 4.0, size=4),
        Span(0, "twisting.apply_twist", 5.0, 6.0, size=4),
        Span(0, "twisting.apply_twist", 6.0, 7.0, size=4),
        Span(-1, "twisting.apply_twist", 11.0, 12.0, size=9),
    ]
    m = layer_metrics(spans)
    assert m["overlay.minimal_position.calls"] == 2
    assert m["overlay.minimal_position.bigon_rounds"] == 2
    assert m["overlay.minimal_position.bigon_rounds_max"] == 2
    assert m["overlay.JointSystem.events"] == 26
    assert m["overlay.JointSystem.self_s"] == 4.0
    assert m["twisting.apply_twist.calls"] == 4
    assert m["twisting.apply_twist.out_events"] == 21
    assert m["twisting.apply_twist.self_s"] == 1.0 + 1.0 + 1.0 + 1.0
    assert m["reduction.reduce_pair.letters"] == 2
    assert m["reduction.reduce_pair.twists_per_letter"] == 1.5
    assert m["reduction.reduce_pair.self_s"] == 3.0
    assert m["factorization.factorize.calls"] == 0


def test_total_time_counts_nested_calls_of_one_name_once():
    spans = [
        Span(-1, "overlay.curves_isotopic", 0.0, 4.0),
        Span(0, "overlay.curves_isotopic", 1.0, 2.0, outer=False),
    ]
    m = layer_metrics(spans)
    assert m["overlay.curves_isotopic.calls"] == 2
    assert m["overlay.curves_isotopic.total_s"] == 4.0


# ---------------------------------------------------------------------------
# tracer


def _bindings():
    import dehnkit  # noqa: F401  (loads the package modules)

    seen = {}
    for name, module in sys.modules.items():
        if name == "dehnkit" or name.startswith("dehnkit."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
    for t in tracing.TARGETS:
        owner = getattr(sys.modules[t.module], t.attr)
        if isinstance(owner, type):
            seen[(t.name, "__init__")] = owner.__dict__["__init__"]
    return seen


def test_tracer_wraps_aliases_and_restores_every_binding():
    for layer in tracing.LAYERS:
        __import__("dehnkit." + layer)
    before = _bindings()
    tr = tracing.Tracer()
    with tr.installed():
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # private aliases are rebound along with the public names
        assert ("dehnkit.calculus", "_joint_minimal_position") in changed
        assert ("dehnkit.reduction", "_joint_minimal_position") in changed
        assert ("dehnkit.overlay", "minimal_position") in changed
        assert ("dehnkit", "build_preset") in changed
        assert ("surface.EmbeddedCurve", "__init__") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_bindings_after_an_exception():
    before = _bindings()
    tr = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_records_nested_spans_and_sizes():
    from dehnkit import build_preset, calculus

    c = build_preset("genus2_closed").curve("a1")
    tr = tracing.Tracer()
    with tr.installed():
        assert calculus.is_essential(c)
    spans = tr.take()
    names = [s.name for s in spans]
    assert names[0] == "calculus.is_essential"
    assert "overlay.is_null_homotopic" in names
    builds = [s for s in spans if s.name == "overlay.JointSystem"]
    assert builds and all(s.size == len(c.events) for s in builds)
    assert all(s.parent >= 0 for s in spans[1:])
    assert all(s.start <= s.end for s in spans)
    assert tr.take() == []


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    first = workloads.build(name, 5).describe()
    assert workloads.build(name, 5).describe() == first
    assert workloads.build(name, 6).describe() != first


def test_seed_zero_is_the_stored_g2_chain():
    ops = workloads.build("g2-growth", 0).describe()
    sizes = [len(inputs[1]) for _, inputs in ops]
    assert sizes == [8, 18, 44, 112]


def test_torus_slopes_are_primitive_and_the_same_set_for_every_seed():
    import math

    slopes = workloads.torus_slope_list(1)
    assert len(slopes) == len(set(slopes)) == 27
    for p, q in slopes:
        assert math.gcd(p, q) == 1 and abs(2 * q - p) > 1
    assert sorted(workloads.torus_slope_list(2)) == sorted(slopes)
    assert workloads.torus_slope_list(2) != slopes


@pytest.mark.parametrize("name", sorted(workloads.INTERSECTION_FORMS))
def test_forms_match_algebraic_intersection(name):
    from dehnkit import build_preset
    from dehnkit.calculus import algebraic_intersection

    preset = build_preset(name)
    form = workloads.INTERSECTION_FORMS[name]
    for x, y in itertools.combinations(sorted(preset.curves), 2):
        a = preset.curve(x).with_orientation(True)
        b = preset.curve(y).with_orientation(True)
        alg = workloads.algebraic(form, workloads._hom(a), workloads._hom(b))
        assert alg == algebraic_intersection(a, b), (x, y)


@pytest.mark.parametrize("name", ["torus", "one_holed_torus", "genus2_closed"])
def test_transvections_match_apply_twist(name):
    from dehnkit import build_preset
    from dehnkit.errors import DehnkitError
    from dehnkit.twisting import apply_twist

    preset = build_preset(name)
    form = workloads.INTERSECTION_FORMS[name]
    moved = 0
    for x, y in itertools.permutations(sorted(preset.curves), 2):
        c, b = preset.curve(x), preset.curve(y).with_orientation(True)
        for k in (1, -1, 2):
            try:
                image = apply_twist(c, k, b)
            except DehnkitError:  # boundary-parallel letters are rejected
                continue
            want = workloads.act_on_homology(form, [(c, k)], workloads._hom(b))
            assert workloads._hom(image) == want, (x, k, y)
            moved += want != workloads._hom(b)
    assert moved


def test_torus_check_rejects_a_final_curve_that_is_not_the_image():
    from dehnkit import build_preset
    from dehnkit.presets import torus_curve

    wl = workloads.build("torus-slopes", 3)
    op = next(o for o in wl.ops if "34/55" in o.label)
    word, b_final, cls = op.run()
    assert len(word) > 0 and op.check((word, b_final, cls)) == []
    # a curve with the same count against 2/1 that is not the word's image
    h = workloads._hom(b_final)
    surface = build_preset("torus").surface
    p, q = next(
        (p, q) for p, q in ((1, 0), (1, 1), (3, 2), (5, 3), (3, 1), (5, 2))
        if abs(workloads.algebraic(workloads.TORUS_FORM, (2, 1), (p, q))) == cls.count
        and (p, q) not in (h, (-h[0], -h[1]))
    )
    problems = op.check((word, torus_curve(surface, p, q), cls))
    assert problems and all("is not the word's image" in x for x in problems)


def test_factorize_check_compares_homology_actions():
    wl = workloads.build("factorize-words", 0)
    op = next(o for o in wl.ops if o.label == "factorize(genus2_closed: t1^1*a2^-1)")
    out = op.run()
    assert op.check(out) == []
    from dataclasses import replace

    from dehnkit.twisting import TwistWord

    shifted = tuple(n + 1 if i == 0 else n for i, n in enumerate(out.q_exponents))
    problems = op.check(replace(out, q_exponents=shifted))
    assert problems and all(x.startswith("p then q") for x in problems)
    problems = op.check(replace(out, p=TwistWord(out.p.letters[1:])))
    assert problems and all(x.startswith("p then q") for x in problems)


def test_symmetries_and_restarts_keep_the_curves():
    from dehnkit import build_preset
    from dehnkit.overlay import geometric_intersection_number as i

    preset = build_preset("genus2_closed")
    symmetries = workloads.automorphisms(preset.surface)
    assert len(symmetries) == 2
    assert all(v == (e, 1) for e, v in symmetries[0].items())
    import random

    rng = random.Random(0)
    names = ("a1", "a2", "dual1", "t1", "t2")
    for x, y in itertools.combinations(names, 2):
        a, b = preset.curve(x), preset.curve(y)
        for emap in symmetries:
            assert i(workloads.map_curve(a, emap), workloads.map_curve(b, emap)) == i(a, b)
        assert workloads.restart(a, rng) == a
