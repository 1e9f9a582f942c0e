"""The verdicts of tools/bench_pairs.py on synthetic runs.

`compare` calls a metric a `gain` when the change wins at least 9 of every
10 pairs and its median beats the base's by more than the base's
interquartile range, `worse` when its median is worse than the base's by
more than the metric's relative bound, and `within bound` otherwise.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("_tools_bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
OK = {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.02}


def _runs(values, name="wall_s"):
    return [{"metrics": {name: {"value": v}}} for v in values]


def _judge(metric, base, change):
    name = metric["name"]
    return bench_pairs.compare([metric], _runs(base, name), _runs(change, name))[name]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_gains():
    out = _judge(WALL, BASE, [v - 0.1 for v in BASE])
    assert out["change_wins"] == 10
    assert out["verdict"] == "gain"


def test_nine_wins_in_ten_still_gain_and_eight_do_not():
    change = [v - 0.1 for v in BASE]
    change[0] = BASE[0] + 0.01
    assert _judge(WALL, BASE, change)["verdict"] == "gain"
    change[1] = BASE[1] + 0.01
    out = _judge(WALL, BASE, change)
    assert out["change_wins"] == 8
    assert out["verdict"] == "within bound"


def test_a_lead_inside_the_base_spread_is_no_gain():
    # every pair is won, but by less than the base's interquartile range
    out = _judge(WALL, BASE, [v - 0.005 for v in BASE])
    assert out["change_wins"] == 10
    assert out["verdict"] == "within bound"


@pytest.mark.parametrize("factor, verdict", [(1.2, "within bound"), (1.3, "worse")])
def test_a_slower_change_is_worse_only_beyond_the_bound(factor, verdict):
    assert _judge(WALL, BASE, [v * factor for v in BASE])["verdict"] == verdict


def test_a_higher_is_better_metric_is_judged_the_other_way():
    base = [0.6] * 10
    assert _judge(OK, base, [0.595] * 10)["verdict"] == "within bound"
    assert _judge(OK, base, [0.5] * 10)["verdict"] == "worse"
    assert _judge(OK, base, [0.7] * 10)["verdict"] == "gain"


def test_the_verdict_line_names_every_metric():
    metrics = bench_pairs.compare([WALL], _runs(BASE), _runs([v - 0.1 for v in BASE]))
    line = bench_pairs.verdict_line("torus-slopes", metrics, 10)
    assert line.startswith("torus-slopes: wall_s gain (10/10, ")
