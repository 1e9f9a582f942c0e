"""The plain data tools/compare_outputs.py compares op outputs as.

Two trees give the same output on an op exactly when these records are
equal, so every position must be written exactly, as a string, and a
raised error must keep its type and text.
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
