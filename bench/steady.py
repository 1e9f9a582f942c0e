"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 bench/steady.py --workload g2-growth --seeds 1 2 3 4 5
    python3 bench/steady.py --seeds 1 2 --trace

Run from the repository root. Each of two sets runs the benchmark command
from BENCHMARK.json once per workload and seed, in fresh processes. For
every end-to-end metric the report gives, per set, the median and the
spread (distance between the first and third quartile of the per-seed
values, as a share of the median), and the drift of the second set's median
from the first's in the metric's "worse" direction. A spread above a third
of the metric's bound, or a drift above the bound, is flagged; the spread
rule needs at least five seeds. setup_s is held to the drift rule only: its
per-seed values are medians of a few short set-ups, and only its median
over the seeds is compared between commits.
letters_total must repeat exactly for each seed; with --trace the per-layer
runs are made too and their counts (calls, events, bigon rounds, letters)
must repeat exactly. The exit status is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import count_metric  # noqa: E402

SETS = 2


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect outputs:\n{out.stdout}")
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: list, second: list, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    m1, m2 = statistics.median(first), statistics.median(second)
    worse = m2 - m1 if better == "lower" else m1 - m2
    return worse / m1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace", action="store_true", help="also compare per-layer counts")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {}  # (workload, trace, set) -> [result per seed]
    for s in range(SETS):
        for w in workloads:
            for trace in ((0, 1) if args.trace else (0,)):
                key = f"{w}|trace={trace}|set={s + 1}"
                results[key] = []
                for seed in args.seeds:
                    r = run_once(spec, w, seed, trace)
                    results[key].append(r)
                    print(f"  {key} seed={seed}: " + ", ".join(
                        f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()
                        if trace == 0), flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        sets = [results[f"{w}|trace=0|set={s + 1}"] for s in range(SETS)]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in values]
            drifts = [drift(values[0], v, metric["better"]) for v in values[1:]]
            flags = []
            # quartiles of fewer than five values say little about the spread
            if len(args.seeds) >= 5 and name != "setup_s" and max(spreads) > bound / 3:
                flags.append("SPREAD")
            if drifts and max(drifts) > bound:
                flags.append("DRIFT")
            ok &= not flags
            print(f"  {name:<14} bound {bound:<5} medians "
                  + " ".join(f"{statistics.median(v):.6g}" for v in values)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + "  drift " + " ".join(f"{x:+.3f}" for x in drifts)
                  + ("  " + " ".join(flags) if flags else ""))
        letters = [tuple(r["metrics"]["letters_total"]["value"] for r in runs) for runs in sets]
        if len(set(letters)) > 1:
            ok = False
            print(f"  letters_total differs between sets: {letters}")
        if args.trace:
            traced = [results[f"{w}|trace=1|set={s + 1}"] for s in range(SETS)]
            names = [n for n in traced[0][0]["metrics"] if count_metric(n)]
            for i, seed in enumerate(args.seeds):
                counts = {tuple(runs[i]["metrics"][n]["value"] for n in names) for runs in traced}
                if len(counts) > 1:
                    ok = False
                    print(f"  per-layer counts differ between sets for seed {seed}")
            print(f"  {len(names)} per-layer counts compared across sets")

    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
