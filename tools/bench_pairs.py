"""Benchmark a base revision against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --workload factorize-words --seed 41 \
        --out bench_pairs.json

Run from anywhere inside the repository. It runs 10 pairs unless --pairs
says otherwise, the count for which the gain rule below is stated. The
base is HEAD, the parent of the uncommitted change; it is exported with
`git archive` into a temporary directory, so it is measured from its
committed files alone, as a fresh checkout would be. The working tree is
copied next to it, its tracked files and its untracked files that are not
ignored, so that both sides run from fresh copies in the same place: a
checkout's start-up time depends on where it lives and what it has cached,
not only on its code. Pair i runs
`bench/run.py --workload W --seed S+i --seconds T --trace 0` once in each
copy, one process at a time, through the command and the run_seconds T
that BENCHMARK.json declares; the base runs first in even pairs and the
working tree first in odd ones, so drift in machine load favours neither.

For every workload the output file records, per end-to-end metric of
BENCHMARK.json, the median and quartiles of each side, the number of
pairs in which the working tree was strictly better and a verdict, and
per side the summed attempted and failed op counts of its runs. The
verdict is `gain` when the working tree wins at least 9 of every 10 pairs
and its median is better than the base's by more than the base's
interquartile range, `worse` when its median is worse than the base's by
more than the metric's relative bound, and `within bound` otherwise. One
line per workload prints the verdicts. Workloads already in the file and
not run again are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def _git(root: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, check=True, **kwargs)


def export_head(root: Path, dest: Path) -> str:
    """Write the committed files of HEAD under dest; returns its full hash."""
    sha = _git(root, "rev-parse", "--verify", "HEAD^{commit}",
               capture_output=True, text=True).stdout.strip()
    archive = dest.parent / "base.tar"
    with open(archive, "wb") as out:
        _git(root, "archive", "--format=tar", sha, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def export_worktree(root: Path, dest: Path) -> None:
    """Copy the working tree's tracked files, and its untracked files that
    are not ignored, under dest; a tracked file deleted from the working
    tree is left out."""
    names = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 capture_output=True).stdout.split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        src = root / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(command: list[str], checkout: Path, workload: str, seed: int,
              seconds: float) -> dict:
    """The JSON result line of one benchmark run in a checkout."""
    cmd = [*command, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True, timeout=20 * seconds + 300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(better: str, bound: float, base: dict, change: dict, wins: int,
            pairs: int) -> str:
    """`gain`, `worse` or `within bound` for one metric (see the module
    docstring); base and change are `summarize` results."""
    # how much better the change's median is, in the metric's unit
    lead = change["median"] - base["median"]
    if better == "lower":
        lead = -lead
    if 10 * wins >= 9 * pairs and lead > base["q3"] - base["q1"]:
        return "gain"
    if -lead > bound * abs(base["median"]):
        return "worse"
    return "within bound"


def compare(metrics: list[dict], base_runs: list[dict], change_runs: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        if m["better"] == "lower":
            wins = sum(c < b for b, c in zip(base, change))
        else:
            wins = sum(c > b for b, c in zip(base, change))
        base_sum, change_sum = summarize(base), summarize(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": base_sum,
            "change": change_sum,
            "change_wins": wins,
            "verdict": verdict(m["better"], m["bound"], base_sum, change_sum,
                               wins, len(base)),
        }
    return out


def verdict_line(workload: str, metrics: dict, pairs: int) -> str:
    """One line: each metric's verdict, pairs won and medians."""
    return f"{workload}: " + "; ".join(
        f"{name} {m['verdict']} ({m['change_wins']}/{pairs}, "
        f"{m['base']['median']:.4g} -> {m['change']['median']:.4g})"
        for name, m in metrics.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs (default: 10)")
    parser.add_argument("--seed", type=int, default=41, help="seed of the first pair")
    parser.add_argument("--out", required=True,
                        help="JSON file to write, relative to the repository root")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel",
                     capture_output=True, text=True).stdout.strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_path = root / args.out
    report = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}

    with tempfile.TemporaryDirectory() as tmp:
        base_dir, change_dir = Path(tmp) / "base", Path(tmp) / "change"
        sha = export_head(root, base_dir)
        export_worktree(root, change_dir)
        for workload in workloads:
            seeds = [args.seed + i for i in range(args.pairs)]
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    checkout = base_dir if side == "base" else change_dir
                    runs[side].append(
                        run_bench(spec["command"], checkout, workload, seed, seconds))
                print(f"{workload} seed {seed}: wall_s base "
                      f"{runs['base'][-1]['metrics']['wall_s']['value']:.4f} change "
                      f"{runs['change'][-1]['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
            report["workloads"][workload] = {
                "base": sha,
                "change": "working tree",
                "command": spec["command"],
                "seconds": seconds,
                "seeds": seeds,
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                "attempted_ops": {side: sum(r["attempted"] for r in rs)
                                  for side, rs in runs.items()},
                "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "metrics": compare(spec["end_to_end"], runs["base"], runs["change"]),
            }
            print(verdict_line(workload, report["workloads"][workload]["metrics"],
                               args.pairs))
    report["workloads"] = dict(sorted(report["workloads"].items()))
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
