"""tools/pass_counts.py, run as a script on one warm bench pass.

On g2-growth at seed 3 its counts agree with the pins of test_engine: 14
arrangements and no bigon round (test_a_warm_bench_pass_runs_few_darts_phases).
Its per-caller lines add up to their totals, and name the functions outside
`surface.py` that asked for the curves and their positions: the slide
validates its curve in JointSystem.moved.
"""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pass_counts.py"


def test_g2_growth_at_seed_3_counts_14_builds_and_no_round():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "g2-growth", "--seed", "3"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    assert out[:3] == ["JointSystem builds: 14",
                       "bigon rounds (find_bigons calls): 0",
                       "_slid calls: 2"]
    validate = out.index("_validate calls: 17")
    callers = dict(reversed(line.split()) for line in out[validate + 1:validate + 4])
    assert callers == {"dehnkit.reduction._reduction_step": "11",
                       "dehnkit.twisting._close_up": "4",
                       "dehnkit.overlay.JointSystem.moved": "2"}
    fractions = next(line for line in out if line.startswith("Fraction constructions"))
    made = int(fractions.split(": ")[1])
    by_caller = out[out.index(fractions) + 1:]
    assert sum(int(line.split()[0]) for line in by_caller) == made
    assert {line.split()[1] for line in by_caller} == {
        "dehnkit.reduction._reduction_step", "dehnkit.reduction._twist_pair",
        "dehnkit.overlay.JointSystem.moved", "dehnkit.twisting._close_up"}
