"""External tracer for the dehnkit layers.

The tracer wraps public functions and class constructors from outside the
package: it rebinds every module-level name under which a target function
is reachable in any loaded `dehnkit` module (found by identity, so private
aliases such as `_joint_minimal_position` are caught too), and replaces the
`__init__` of target classes. Each call records one span in memory: its
parent span, name, start, end and a size count. Nothing is wrapped outside
`installed()`, so untraced runs execute the package unchanged.

Self time is a span's duration minus the part of it its child spans cover;
`self_times` does that arithmetic and `layer_metrics` aggregates spans into
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = (
    "surface",
    "overlay",
    "calculus",
    "twisting",
    "reduction",
    "factorization",
    "presets",
)


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    `name` is "<layer>.<attribute>". `size` gives the count recorded with
    the span, or is None when there is nothing to count: for a class it
    reads the constructor's arguments (args[0] is the new instance), for a
    function it reads the result of a call that returned. `metrics` lists
    what `layer_metrics` reports for it.
    """

    name: str
    size: Callable | None
    metrics: tuple[str, ...]

    @property
    def module(self) -> str:
        return "dehnkit." + self.name.split(".")[0]

    @property
    def attr(self) -> str:
        return self.name.split(".", 1)[1]


def _curve_events(args, kwargs):
    # EmbeddedCurve(surface, events, oriented=...)
    return len(args[2] if len(args) > 2 else kwargs["events"])


def _joint_events(args, kwargs):
    # JointSystem(surface, curves)
    curves = args[2] if len(args) > 2 else kwargs["curves"]
    return sum(len(c.events) for c in curves)


def _result_events(result):
    return len(result.events)


def _word_letters(result):
    # reduce_pair returns (word, final curve, class)
    return len(result[0])


TARGETS = (
    Target("surface.EmbeddedCurve", _curve_events, ("calls", "self_s", "events")),
    Target("overlay.JointSystem", _joint_events, ("calls", "self_s", "events")),
    Target(
        "overlay.minimal_position",
        None,
        ("calls", "total_s", "bigon_rounds", "bigon_rounds_max"),
    ),
    Target("overlay.is_null_homotopic", None, ("calls", "total_s")),
    Target("overlay.is_boundary_parallel", None, ("calls", "total_s")),
    Target("overlay.curves_isotopic", None, ("calls", "total_s")),
    Target("overlay.connecting_curve", None, ("calls", "total_s")),
    Target("calculus.is_essential", None, ("calls", "total_s")),
    Target("calculus.classify_pair", None, ("calls", "total_s")),
    Target(
        "twisting.apply_twist",
        _result_events,
        ("calls", "self_s", "total_s", "out_events"),
    ),
    Target("twisting.TwistWord", None, ("calls", "total_s")),
    Target(
        "reduction.reduce_pair",
        _word_letters,
        ("calls", "self_s", "total_s", "letters", "twists_per_letter"),
    ),
    Target("factorization.factorize", None, ("calls", "total_s")),
    Target("factorization.match_curve", None, ("calls", "total_s")),
    Target("factorization.find_connector_curve", None, ("calls", "total_s")),
    Target("presets.build_preset", None, ("total_s",)),
)

# Names of the per-layer size counts in `Target.metrics`.
SIZE_METRICS = ("events", "out_events", "letters")


@dataclass
class Span:
    parent: int  # index of the enclosing span, -1 at the top
    name: str
    start: float
    end: float = 0.0
    size: int = 0
    outer: bool = True  # no enclosing span of the same name


class Tracer:
    """Records spans for the calls into TARGETS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- patching --

    def _wrap(self, target: Target, fn, is_init: bool):
        name, size = target.name, target.size
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(stack[-1] if stack else -1, name, 0.0)
            span.outer = not depth.get(name)
            if size is not None and is_init:
                span.size = size(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            depth[name] = depth.get(name, 0) + 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                depth[name] -= 1
                stack.pop()
            if size is not None and not is_init:
                span.size = size(result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            importlib.import_module("dehnkit." + layer)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "dehnkit" or n.startswith("dehnkit.")) and m is not None
        ]
        for target in TARGETS:
            original = getattr(sys.modules[target.module], target.attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", self._wrap(target, init, True))
                continue
            wrapper = self._wrap(target, original, False)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


# ---------------------------------------------------------------------------
# arithmetic over spans


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        kids = [(spans[k].start, spans[k].end) for k in children[i]]
        out.append(span.end - span.start - covered_length(kids, span.start, span.end))
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed "<target>.<metric>"."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {t.name: [] for t in TARGETS}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
    out: dict[str, float] = {}
    for t in TARGETS:
        idx = by_name[t.name]
        values = {
            "calls": len(idx),
            "self_s": sum(selfs[i] for i in idx),
            "total_s": sum(spans[i].end - spans[i].start for i in idx if spans[i].outer),
        }
        for m in SIZE_METRICS:
            values[m] = sum(spans[i].size for i in idx)
        if "bigon_rounds" in t.metrics:
            builds = {i: 0 for i in idx}
            for span in spans:
                if span.name == "overlay.JointSystem" and span.parent in builds:
                    builds[span.parent] += 1
            rounds = [max(n - 1, 0) for n in builds.values()]
            values["bigon_rounds"] = sum(rounds)
            values["bigon_rounds_max"] = max(rounds, default=0)
        if "twists_per_letter" in t.metrics:
            twists = sum(
                1 for i, span in enumerate(spans)
                if span.name == "twisting.apply_twist" and _has_ancestor(spans, i, t.name)
            )
            letters = values["letters"]
            values["twists_per_letter"] = twists / letters if letters else 0.0
        for m in t.metrics:
            out[f"{t.name}.{m}"] = values[m]
    return out


def count_metric(name: str) -> bool:
    """Whether a per-layer metric is a count that must repeat exactly."""
    last = name.rsplit(".", 1)[1]
    return last in ("calls", "bigon_rounds", "bigon_rounds_max", "twists_per_letter") + SIZE_METRICS


def median_metrics(passes: list[dict]) -> dict[str, float]:
    """Median of each metric over several passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
