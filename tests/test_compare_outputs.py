"""The plain data tools/compare_outputs.py compares op outputs as.

Two trees give the same output on an op exactly when these records are
equal, so every position must be written exactly, as a string, and a
raised error must keep its type and text.  Up to isotopy, two outputs are
equal when they differ only in curves and each such pair is isotopic on
the op's surface: respaced and restarted copies of a curve are, genus-2 t1
and t2 are not, and an isotopic curve excuses no other difference.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from dehnkit.errors import PreconditionError
from dehnkit.factorization import FactorizationResult
from dehnkit.presets import build_preset
from dehnkit.surface import EmbeddedCurve
from dehnkit.twisting import TwistWord

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("_tools_compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _plain(obj):
    return compare_outputs._plain(obj, EmbeddedCurve)


def _torus_curves():
    s = build_preset("torus").surface
    a = EmbeddedCurve(s, (("v", 1, Fraction(1, 3)),))
    b = EmbeddedCurve(s, (("h", -1, Fraction(1, 2)),), oriented=False)
    return a, b


A_PLAIN = {"events": [["v", 1, "1/3"]], "oriented": True}
B_PLAIN = {"events": [["h", -1, "1/2"]], "oriented": False}


def test_a_curve_is_its_events_with_exact_positions():
    a, b = _torus_curves()
    assert _plain(a) == A_PLAIN
    assert _plain(b) == B_PLAIN
    # a position that differs past float precision still differs
    near = EmbeddedCurve(a.surface, (("v", 1, Fraction(10**17 + 1, 3 * 10**17)),))
    assert _plain(near) != A_PLAIN


def test_a_word_is_its_letters():
    a, b = _torus_curves()
    word = TwistWord(((a, 1), (b, -2)))
    assert _plain(word) == {"letters": [[A_PLAIN, 1], [B_PLAIN, -2]]}


def test_a_factorization_result_is_every_field():
    a, _ = _torus_curves()
    result = FactorizationResult(
        p=TwistWord(((a, 1),)),
        q_exponents=(0, -1),
        certificate=(True, True),
        step_log=({"curve": 0, "reduce": 2},),
    )
    plain = _plain(result)
    assert plain == {
        "p": {"letters": [[A_PLAIN, 1]]},
        "q_exponents": [0, -1],
        "certificate": [True, True],
        "step_log": [{"curve": 0, "reduce": 2}],
    }
    assert json.loads(json.dumps(plain)) == plain


def test_a_raised_error_is_its_type_and_text():
    def fails():
        raise PreconditionError("twisting needs essential curves")

    assert compare_outputs._outcome(fails, EmbeddedCurve) == {
        "raised": "PreconditionError: twisting needs essential curves"}
    a, _ = _torus_curves()
    assert compare_outputs._outcome(lambda: a, EmbeddedCurve) == {"output": A_PLAIN}


def _genus2():
    return build_preset("genus2_closed")


def _respaced(c):
    # squaring keeps every position in (0, 1) and their order on each edge
    return EmbeddedCurve(c.surface, tuple((e, d, p * p) for e, d, p in c.events),
                         oriented=c.oriented)


def _restarted(c, k):
    return EmbeddedCurve(c.surface, c.events[k:] + c.events[:k], oriented=c.oriented)


def test_respaced_and_restarted_copies_of_a_curve_are_isotopic():
    g = _genus2()
    t1 = g.curve("t1")
    copies = (_respaced(t1), _restarted(t1, 1), _restarted(_respaced(t1), 2))
    for copy in copies:
        assert _plain(copy) != _plain(t1)
        assert compare_outputs.isotopic_outputs(_plain(t1), _plain(copy), g.surface)
    # in place inside an output, next to equal data
    x = _plain((TwistWord(((t1, 1),)), t1, 3))
    y = _plain((TwistWord(((copies[0], 1),)), copies[1], 3))
    assert compare_outputs.isotopic_outputs(x, y, g.surface)


def test_different_curves_or_other_data_differ():
    g = _genus2()
    t1, t2 = g.curve("t1"), g.curve("t2")
    assert not compare_outputs.isotopic_outputs(_plain(t1), _plain(t2), g.surface)
    assert not compare_outputs.isotopic_outputs(
        _plain((t1, 1)), _plain((t2, 1)), g.surface)
    # an isotopic curve does not excuse other data, nor a flipped orientation
    copy = _respaced(t1)
    assert not compare_outputs.isotopic_outputs(
        _plain((t1, 1)), _plain((copy, 2)), g.surface)
    assert not compare_outputs.isotopic_outputs(
        _plain(t1), _plain(copy.with_orientation(not copy.oriented)), g.surface)
    assert not compare_outputs.isotopic_outputs(
        _plain((t1,)), _plain((t1, t1)), g.surface)


def test_an_op_record_names_the_preset_its_curves_live_on():
    g = _genus2()
    word = TwistWord(((g.curve("a1"), 1),))
    assert compare_outputs._surface_of((word, 3), EmbeddedCurve) == g.surface
    assert compare_outputs._surface_of({"q": (0, 1)}, EmbeddedCurve) is None


def test_isotopic_outputs_are_told_apart_by_kind():
    # a restarted or respaced copy is the same curve, EmbeddedCurve ==; t1
    # with a detour across edge b2 and back is isotopic only, and one such
    # curve makes the whole output so
    g = _genus2()
    t1 = g.curve("t1")
    detour = (("b2", -1, Fraction(1, 7)), ("b2", 1, Fraction(2, 7)))
    moved = EmbeddedCurve(g.surface, t1.events[:1] + detour + t1.events[1:],
                          oriented=t1.oriented)
    assert moved != t1
    same, isotopic = compare_outputs.SAME_CURVES, compare_outputs.ISOTOPIC_ONLY
    kind = compare_outputs.isotopy_kind
    for copy in (_restarted(t1, 1), _respaced(t1)):
        assert kind(_plain((t1, 1)), _plain((copy, 1)), g.surface) == same
    assert kind(_plain(t1), _plain(moved), g.surface) == isotopic
    assert kind(_plain((t1, t1)), _plain((_restarted(t1, 1), moved)), g.surface) == isotopic
    assert kind(_plain(t1), _plain(g.curve("t2")), g.surface) is None
