"""Check that the working tree gives the same output as HEAD on every benchmark op.

    python3 tools/compare_outputs.py --seeds 2 3 [--isotopy]

Run from anywhere inside the repository. HEAD is exported with
`bench_pairs.export_head` into a temporary directory. Every op of the
workloads in bench/workloads.py is then run once per seed in each tree, one
subprocess per tree, importing that tree's `dehnkit` and `bench/workloads.py`.
An op's output is compared as plain data: curve events with exact
positions, word letters, pair classes, the p, q exponents, certificate and
step log of `factorize`, or the type and text of the error it raised.

With --isotopy an op whose exact output differs counts as equal up to
isotopy when its two outputs differ only in curves, and every such pair of
curves, rebuilt on the op's preset surface, passes `curves_isotopic` of the
working tree's `dehnkit` with the same orientation flag.  Such an op is
"same curves, other start" when every pair is even `EmbeddedCurve ==`, the
same itinerary started elsewhere or respaced, and "isotopic only" otherwise.

Prints every op whose output differs and how many differ, or else the
number of identical ops (and with --isotopy the ops equal up to isotopy,
per kind and workload); exits 1 on any difference, and quietly with 1 when
its reader closes the pipe early.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import _git, export_head  # noqa: E402


def _plain(obj, curve_type):
    """An op output as JSON data, with every position written exactly."""
    if isinstance(obj, curve_type):
        return {"events": [[e, d, str(p)] for e, d, p in obj.events],
                "oriented": obj.oriented}
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name), curve_type)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_plain(x, curve_type) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v, curve_type) for k, v in obj.items()}
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _outcome(run, curve_type) -> dict:
    """{"output": ...} of an op's output as plain data, or {"raised": ...}
    with the type and text of the error it raised."""
    try:
        return {"output": _plain(run(), curve_type)}
    except Exception as exc:  # an op's error is part of its output
        return {"raised": f"{type(exc).__name__}: {exc}"}


def _surface_of(obj, curve_type):
    """The surface of the first curve in an op output, or None."""
    if isinstance(obj, curve_type):
        return obj.surface
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    elif not isinstance(obj, (list, tuple)):
        return None
    return next(filter(None, (_surface_of(x, curve_type) for x in obj)), None)


def dump(seeds: list[int]) -> list[dict]:
    """Run every op of every workload in the checkout at the working
    directory; one record per op, with the preset its output curves live on."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from dehnkit.presets import PRESET_NAMES, build_preset
    from dehnkit.surface import EmbeddedCurve
    import workloads

    presets = {build_preset(name).surface: name for name in PRESET_NAMES}
    records = []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, seed).ops:
                kept = []  # the raw output, to find its surface

                def run(op=op):
                    kept.append(op.run())
                    return kept[0]

                record = {"workload": name, "seed": seed, "op": op.label,
                          **_outcome(run, EmbeddedCurve)}
                surface = _surface_of(kept, EmbeddedCurve)
                if surface is not None:
                    record["preset"] = presets[surface]
                records.append(record)
    return records


def _is_curve(x) -> bool:
    return isinstance(x, dict) and x.keys() == {"events", "oriented"}


def _curve_pairs(x, y):
    """The pairs of curves at the same place in two plain outputs, or None
    when they differ anywhere else, orientation flags included."""
    if _is_curve(x) and _is_curve(y):
        return [(x, y)] if x["oriented"] == y["oriented"] else None
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        parts = [_curve_pairs(x[k], y[k]) for k in x]
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        parts = [_curve_pairs(u, v) for u, v in zip(x, y)]
    else:
        return [] if x == y else None
    if any(part is None for part in parts):
        return None
    return [pair for part in parts for pair in part]


SAME_CURVES, ISOTOPIC_ONLY = "same curves, other start", "isotopic only"


def isotopy_kind(x, y, surface):
    """SAME_CURVES or ISOTOPIC_ONLY when two plain op outputs on `surface`
    differ only in curves that are isotopic there, else None."""
    from dehnkit.overlay import curves_isotopic
    from dehnkit.surface import EmbeddedCurve

    def curve(plain):
        events = tuple((e, d, Fraction(p)) for e, d, p in plain["events"])
        return EmbeddedCurve(surface, events, oriented=plain["oriented"])

    pairs = _curve_pairs(x, y)
    if pairs is None:
        return None
    pairs = [(curve(u), curve(v)) for u, v in pairs if u != v]
    if all(u == v for u, v in pairs):
        return SAME_CURVES
    if all(u == v or curves_isotopic(u, v) for u, v in pairs):
        return ISOTOPIC_ONLY
    return None


def isotopic_outputs(x, y, surface) -> bool:
    """Whether two plain op outputs on `surface` differ only in curves that
    are isotopic there."""
    return isotopy_kind(x, y, surface) is not None


def _isotopy_kind_of(b: dict, c: dict):
    """isotopy_kind of the outputs of two records of one op, or None."""
    from dehnkit.presets import build_preset

    def rest(record):
        return {k: v for k, v in record.items() if k != "output"}

    if "output" not in b or "preset" not in b or rest(b) != rest(c):
        return None
    return isotopy_kind(b["output"], c["output"], build_preset(b["preset"]).surface)


def run_tree(checkout: Path, seeds: list[int]) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump",
           "--seeds", *map(str, seeds)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 300 else text[:300] + "..."


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--isotopy", action="store_true",
                        help="count ops whose outputs differ only in isotopic curves")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        json.dump(dump(args.seeds), sys.stdout)
        return 0

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel",
                     capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "base"
        sha = export_head(root, base_dir)
        base = run_tree(base_dir, args.seeds)
    change = run_tree(root, args.seeds)
    if args.isotopy:
        sys.path.insert(0, str(root / "src"))

    differ = 0
    isotopic = Counter()
    for b, c in zip(base, change):
        if b == c:
            continue
        kind = _isotopy_kind_of(b, c) if args.isotopy else None
        if kind:
            isotopic[kind, b["workload"]] += 1
        else:
            differ += 1
            print(f"{b['workload']} seed {b['seed']}: {b['op']}")
            if (b["workload"], b["seed"], b["op"]) != (c["workload"], c["seed"], c["op"]):
                print(f"  the working tree runs {c['op']} here instead")
            print(f"  HEAD {sha[:12]}: {_short(b.get('output', b.get('raised')))}")
            print(f"  working tree: {_short(c.get('output', c.get('raised')))}")
    if len(base) != len(change):
        print(f"HEAD ran {len(base)} ops, the working tree {len(change)}")
        return 1
    same = len(base) - differ - sum(isotopic.values())
    print(f"{same} ops identical to HEAD {sha[:12]} on seeds "
          f"{' '.join(map(str, args.seeds))}")
    if args.isotopy:
        print(f"{sum(isotopic.values())} ops equal up to isotopy, {differ} differ")
        for kind in (SAME_CURVES, ISOTOPIC_ONLY):
            per = {name: n for (k, name), n in sorted(isotopic.items()) if k == kind}
            detail = ", ".join(f"{n} {name}" for name, n in per.items())
            print(f"  {kind}: {sum(per.values())}" + (f" ({detail})" if detail else ""))
    if differ:
        print(f"{differ} of {len(base)} ops differ from HEAD {sha[:12]}")
        return 1
    raised = Counter(r["raised"] for r in base if "raised" in r)
    for text, n in sorted(raised.items()):
        print(f"  {n} ops raise in both trees: {text}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader (say, `head`) has closed the pipe: stop quietly, and
        # point stdout at devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
