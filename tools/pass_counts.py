"""Count what one warm pass of a benchmark workload builds and makes.

    python3 tools/pass_counts.py --workload factorize-words --seed 3

Run from anywhere; it imports `dehnkit` from the `src/` and the workloads
from the `bench/` of the checkout it lives in.  The workload's ops run once
to warm the curves' caches, as every pass of `bench/run.py` after the first
finds them, and then once more under counting wrappers.  An op that raises
a `DehnkitError` (the bordered words of defect 2a) counts up to where it
raised.  For that second pass it prints:

  - the `JointSystem` builds, and how many of them a slide or a bigon
    reroute built from its keys (`JointSystem._moved`, which skips
    `__init__`);
  - the bigon rounds, one per `JointSystem.find_bigons` call;
  - the `overlay._slid` calls;
  - the `EmbeddedCurve._validate` calls, per function that asked for the
    curve (the first caller outside `surface.py`);
  - the curves born in `EmbeddedCurve._from_keys`, per function that asked
    for them, new layouts and copies of a curve's own events apart;
  - of those, the curves of a moved arrangement born on the first read of
    its `curves`, per function that read them;
  - the `Fraction` constructions, counted at `Fraction.__new__`, per
    function that asked for them (the first caller outside `surface.py`
    and `fractions.py`).
"""

from __future__ import annotations

import argparse
import fractions
import functools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _caller(frame, skip: tuple) -> str:
    """module.function of the first frame at or above `frame` whose file is
    none of `skip` (a dataclass's generated __init__ has file "<string>"),
    a comprehension counting as the function it runs in."""
    while frame is not None and (frame.f_code.co_filename in skip
                                 or frame.f_code.co_name.startswith("<")):
        frame = frame.f_back
    if frame is None:
        return "?"
    return f"{frame.f_globals.get('__name__', '?')}.{frame.f_code.co_qualname}"


def count_pass(workload: str, seed: int) -> dict:
    """The counts of one warm pass: {"builds", "keyed", "rounds", "slid":
    int, "validate", "layouts", "copies", "read", "fractions": Counter by
    caller}."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from dehnkit import overlay, surface
    from dehnkit.errors import DehnkitError
    import workloads

    ops = workloads.build(workload, seed).ops

    def run_pass():
        for op in ops:
            try:
                op.run()
            except DehnkitError:
                pass

    run_pass()
    counts = {"builds": 0, "keyed": 0, "rounds": 0, "slid": 0,
              "validate": Counter(), "layouts": Counter(), "copies": Counter(),
              "read": Counter(), "fractions": Counter()}
    system, curve = overlay.JointSystem, surface.EmbeddedCurve
    # the classmethod itself, not the method it binds to
    saved = (system.__init__, system._moved, system.find_bigons, overlay._slid,
             curve._validate, vars(curve)["_from_keys"], Fraction.__new__)
    init, moved, find_bigons, slid, validate, from_keys, new = saved
    # a cached property's value is asked for by whoever reads it, and a
    # birth by whoever called the counting wrapper
    skip_surface = (surface.__file__, "<string>", functools.__file__,
                    _caller.__code__.co_filename)
    skip_fractions = (*skip_surface, fractions.__file__)

    def counting_init(self, *args, **kwargs):
        counts["builds"] += 1
        init(self, *args, **kwargs)

    def counting_moved(self, *args):
        counts["builds"] += 1
        counts["keyed"] += 1
        return moved(self, *args)

    def counting_find_bigons(self):
        counts["rounds"] += 1
        return find_bigons(self)

    def counting_slid(*args):
        counts["slid"] += 1
        return slid(*args)

    def counting_validate(self):
        counts["validate"][_caller(sys._getframe(1), skip_surface)] += 1
        validate(self)

    def counting_from_keys(cls, surf, keyed):
        frame = sys._getframe(1)
        caller = _caller(frame, skip_surface)
        if frame.f_code is system.__getattr__.__code__:
            counts["read"][_caller(frame.f_back, skip_surface)] += len(keyed)
        for evs, _ in keyed:  # a copy is one int key per event
            counts["copies" if evs and type(evs[0]) is int else "layouts"][caller] += 1
        return from_keys.__func__(cls, surf, keyed)

    def counting_new(cls, *args, **kwargs):
        counts["fractions"][_caller(sys._getframe(1), skip_fractions)] += 1
        return new(cls, *args, **kwargs)

    system.__init__, system._moved = counting_init, counting_moved
    system.find_bigons, overlay._slid = counting_find_bigons, counting_slid
    curve._validate = counting_validate
    curve._from_keys = classmethod(counting_from_keys)
    Fraction.__new__ = counting_new
    try:
        run_pass()
    finally:
        (system.__init__, system._moved, system.find_bigons, overlay._slid,
         curve._validate, curve._from_keys, Fraction.__new__) = saved
    return counts


def report(counts: dict) -> list[str]:
    lines = [f"JointSystem builds: {counts['builds']} ({counts['keyed']} from keys)",
             f"bigon rounds (find_bigons calls): {counts['rounds']}",
             f"_slid calls: {counts['slid']}"]
    for key, title in (("validate", "_validate calls"),
                       ("layouts", "curves born from a new layout"),
                       ("copies", "curves born as copies"),
                       ("read", "curves born on a read of `curves`"),
                       ("fractions", "Fraction constructions")):
        by_caller = counts[key]
        lines.append(f"{title}: {sum(by_caller.values())}")
        lines += [f"  {n:8d}  {name}" for name, n in by_caller.most_common()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    print("\n".join(report(count_pass(args.workload, args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
