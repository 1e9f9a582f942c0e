"""Run one dehnkit benchmark workload and print its metrics.

    python3 bench/run.py --workload torus-slopes --seed 1 --seconds 30 --trace 0

Run from the repository root (the package is imported from ./src). One
process, one thread, one caller: each op starts when the previous one has
returned. The op list is run in passes until --seconds is used up (at
least one pass); every output of the first pass is checked and later passes
must reproduce it.

Every op is timed between two runs of a fixed calibration loop, and its
time is scaled to reference speed: multiplied by REFERENCE_CAL_S over the
mean of the two calibration times. Load from other tenants of a shared
machine slows the op and the loop next to it alike, so the scaled time
stays put while the raw time moves by up to 1.8x; a change to dehnkit
moves the op alone. The raw times are printed too.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the same
passes run with and without the external tracer (tracer.py) and the
per-layer metrics are printed instead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes used to time set-up; the median is reported.
SETUP_PROBES = 9

# Seconds one calibration loop takes at reference speed: its fastest time
# on a 2-vCPU x86-64 VM with Python 3.11. Scaled times are in seconds at
# that speed.
REFERENCE_CAL_S = 0.0032

# A failed op emits no usable word. It is charged more letters than any op
# of these workloads emits when it succeeds, so turning a failure into a
# success lowers letters_total and a new failure raises it.
FAILED_OP_LETTERS = 24


def _require_package() -> None:
    if not (SRC / "dehnkit" / "__init__.py").is_file():
        sys.exit(f"error: no dehnkit package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


class _Key:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return (self.a, self.b)


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now.

    The loop does what dehnkit spends its time on (small objects, tuple
    keys, dict updates, Fraction arithmetic, a sort) without touching
    dehnkit. The collector is held off so that its cost, which grows with
    whatever else the process holds, does not enter the measurement.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts, acc, items = {}, Fraction(0), []
    for i in range(4500):
        k = (i * 7919) % 1013
        key = _Key(k, i & 7).key()
        counts[key] = counts.get(key, 0) + 1
        if i % 10 == 0:
            acc += Fraction(i, k + 1)
            items.append((acc < 5, k))
    items.sort()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import dehnkit, build the presets and make the inputs.

    Scaled to reference speed by calibration loops run just before and
    just after. The standard-library modules this file imports (fractions
    among them, through statistics) are loaded before the clock starts.
    """
    before = statistics.median(calibrate() for _ in range(3))
    t0 = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    elapsed = time.perf_counter() - t0
    after = statistics.median(calibrate() for _ in range(3))
    return elapsed * REFERENCE_CAL_S / ((before + after) / 2)


def probe_in_subprocess(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return float(out.stdout.split()[-1])


@dataclass
class Pass:
    """Outcome of one pass over a workload's ops.

    `times` are the raw op times and `scaled` the same at reference speed;
    the calibration loops between the ops are in neither. `outcomes` holds
    what every pass must reproduce: per op, the output's signature or the
    error raised. Only a pass run with keep_outputs holds the outputs
    themselves, so that memory does not grow with the number of passes.
    """

    times: list
    scaled: list
    outcomes: list
    outputs: list | None  # per op: (output, None) or (None, the DehnkitError raised)

    @property
    def wall(self) -> float:
        return sum(self.times)


def op_medians(passes: list) -> list:
    """Each op's median scaled time over the passes.

    Their sum is the time of one pass. It is steadier than the median
    pass: a burst of load that the calibration misjudges spoils one op of
    one pass, and a per-op median drops it.
    """
    return [statistics.median(p.scaled[i] for p in passes) for i in range(len(passes[0].scaled))]


def run_pass(ops, keep_outputs: bool = False) -> Pass:
    from dehnkit import DehnkitError

    times, scaled, outcomes, outputs = [], [], [], []
    clock = time.perf_counter
    before = calibrate()
    for op in ops:
        t0 = clock()
        try:
            out, exc = op.run(), None
        except DehnkitError as e:
            out, exc = None, e
        t = clock() - t0
        after = calibrate()
        times.append(t)
        scaled.append(t * REFERENCE_CAL_S / ((before + after) / 2))
        before = after
        outcomes.append(op.signature(out) if exc is None else (type(exc).__name__, str(exc)))
        if keep_outputs:
            outputs.append((out, exc))
    return Pass(times, scaled, outcomes, outputs if keep_outputs else None)


def check_passes(ops, passes: list) -> tuple[list, int, list]:
    """Check the first pass's outputs; later passes must give the same outcomes.

    Returns (per-op failure flags, letters per pass, problems). An op fails
    if it raised a DehnkitError or its output failed a check; it is then
    charged FAILED_OP_LETTERS letters.
    """
    failed, problems, letters = [], [], 0
    for op, (out, exc) in zip(ops, passes[0].outputs):
        if exc is not None:
            failed.append(True)
            letters += FAILED_OP_LETTERS
            print(f"  FAIL {op.label}: {type(exc).__name__}: {exc}")
            continue
        found = op.check(out)
        failed.append(bool(found))
        problems += [f"{op.label}: {p}" for p in found]
        letters += FAILED_OP_LETTERS if found else op.letters(out)
    for later in passes[1:]:
        for op, first, again in zip(ops, passes[0].outcomes, later.outcomes):
            if first != again:
                problems.append(f"{op.label}: a later pass gave a different result")
    return failed, letters, problems


def _keep_going(started: float, seconds: float, durations: list) -> bool:
    """Room for another pass of typical length within the time budget."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


def end_to_end(args) -> dict:
    setups = [probe_in_subprocess(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    import workloads

    wl = workloads.build(args.workload, args.seed)
    started = time.perf_counter()
    passes, durations = [], []
    while not passes or _keep_going(started, args.seconds, durations):
        t0 = time.perf_counter()
        passes.append(run_pass(wl.ops, keep_outputs=not passes))
        durations.append(time.perf_counter() - t0)

    failed, letters, problems = check_passes(wl.ops, passes)
    n_ops = len(wl.ops)
    # op_p50_s is the median over ops of each op's median time. Pooling all
    # op times instead would put the median in the gap between two op sizes.
    op_median = op_medians(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(op_median), "s"),
        "op_p50_s": (statistics.median(op_median), "s"),
        "ok_ratio": ((n_ops - sum(failed)) / n_ops, "ratio"),
        "letters_total": (letters, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{wl.name} seed={wl.seed}: {len(passes)} passes x {n_ops} ops, "
          f"{len(setups)} set-ups")
    print(f"  fail_ratio {sum(failed) / n_ops:.4f} ({sum(failed)} of {n_ops} ops fail)")
    print(f"  op_p50_s over {n_ops} ops, each the median of {len(passes)} passes")
    raw = sorted(p.wall for p in passes)
    print(f"  raw pass times {raw[0]:.4f} to {raw[-1]:.4f} s, median "
          f"{statistics.median(raw):.4f} s; scaled wall_s "
          f"{metrics['wall_s'][0]:.4f} s")
    return _result(metrics, problems, n_ops * len(passes), sum(failed) * len(passes))


def traced(args) -> dict:
    import tracer as tracing
    import workloads

    tr = tracing.Tracer()
    with tr.installed():
        wl = workloads.build(args.workload, args.seed)
    setup_spans = tr.take()

    started = time.perf_counter()
    plain, traced_passes, per_pass, remainders, durations = [], [], [], [], []
    while not plain or _keep_going(started, args.seconds, durations):
        t0 = time.perf_counter()
        plain.append(run_pass(wl.ops, keep_outputs=not plain))
        with tr.installed():
            p = run_pass(wl.ops)
        durations.append(time.perf_counter() - t0)
        spans = tr.take()
        traced_passes.append(p)
        per_pass.append(tracing.layer_metrics(spans))
        covered = sum(tracing.self_times(spans))
        remainders.append(p.wall - covered)

    failed, _, problems = check_passes(wl.ops, plain + traced_passes)
    for name in per_pass[0]:
        if tracing.count_metric(name) and len({m[name] for m in per_pass}) > 1:
            problems.append(f"per-layer count {name} differs between passes")
    if min(remainders) < -1e-6:
        problems.append(f"span self times exceed the traced wall time by {-min(remainders):.3g} s")

    layer = tracing.median_metrics(per_pass)
    layer["presets.build_preset.total_s"] = tracing.layer_metrics(setup_spans)[
        "presets.build_preset.total_s"]
    plain_scaled = sum(op_medians(plain))
    traced_scaled = sum(op_medians(traced_passes))
    traced_wall = statistics.median(p.wall for p in traced_passes)
    metrics = {
        name: (value, _unit(name)) for name, value in layer.items()
    }
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_s"] = (statistics.median(remainders), "s")
    metrics["trace.overhead_ratio"] = (traced_scaled / plain_scaled - 1, "ratio")
    print(f"{wl.name} seed={wl.seed}: {len(traced_passes)} traced and "
          f"{len(plain)} plain passes x {len(wl.ops)} ops")
    print(f"  traced wall {traced_wall:.4f} s = span self times "
          f"{traced_wall - statistics.median(remainders):.4f} s + untraced "
          f"{statistics.median(remainders):.4f} s")
    n = len(wl.ops) * (len(plain) + len(traced_passes))
    return _result(metrics, problems, n, sum(failed) * (len(plain) + len(traced_passes)))


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last in ("twists_per_letter", "overhead_ratio"):
        return "ratio"
    return "count"


def _result(metrics: dict, problems: list, attempted: int, failed: int) -> dict:
    for p in problems:
        print(f"  CHECK FAILED {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_package()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose one of {', '.join(workloads.WORKLOADS)}")
    result = traced(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
