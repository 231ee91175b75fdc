"""Traced run: spans around gbfan's public entry points plus cProfile
counts, turned into one set of per-layer metrics.

Spans are recorded from outside gbfan: the entry points are replaced by
wrappers for the length of the traced pass and restored afterwards.  Each
span keeps its parent's id, so a layer's self time is its duration minus
that of its child spans.  cProfile supplies what spans cannot count
cheaply: calls of `TermOrder.key` and of field arithmetic, and self time
grouped by module.  `cli.py` and `files.py` are argparse and file glue that
jobs never call, so they stay unmeasured.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import pstats
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import gbfan
import gbfan.cones
import gbfan.fan
import gbfan.groebner
import gbfan.points

GBFAN_DIR = Path(gbfan.__file__).resolve().parent
FRACTIONS_FILE = str(Path(fractions.__file__).resolve())

# Modules whose profiler self time and call count are reported.
PROFILED_MODULES = (
    "groebner", "fan", "cones", "orderings", "field",
    "points", "ring", "terms", "monomials", "parse",
)
GF_OPS = {"__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__"}
QQ_OPS = {
    "_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
    "__pow__", "__neg__", "__pos__", "__abs__",
}


def _order_tag(args, kwargs):
    order = kwargs.get("order", args[1] if len(args) > 1 else None)
    return "default" if order is None else order.tag


# (owner, attribute, span name, tag of the call or None, size of the result)
ENTRY_POINTS = (
    (gbfan.groebner.Ideal, "groebner", "groebner.Ideal.groebner", _order_tag, None),
    (gbfan.groebner, "buchberger_dicts", "groebner.buchberger_dicts", None, None),
    (gbfan.fan, "enumerate_fan", "fan.enumerate_fan", None, len),
    (gbfan.fan, "fan_oracle_zerodim", "fan.fan_oracle_zerodim", None, len),
    (gbfan.fan, "strict_positive_solution", "fan.oracle_lp", None, None),
    (gbfan.cones.Cone, "from_vectors", "cones.Cone.from_vectors", None, None),
    (gbfan.cones, "solve_system", "cones.solve_system", None, None),
    (gbfan.cones, "feasible", "cones.feasible", None, None),
    (gbfan.points, "ideal_of_points", "points.ideal_of_points", None, None),
)


class Span:
    __slots__ = ("id", "parent", "name", "tag", "start", "end", "size")

    def __init__(self, sid, parent, name, tag):
        self.id, self.parent, self.name, self.tag = sid, parent, name, tag
        self.start = perf_counter()
        self.end = self.start
        self.size = None


class Tracer:
    """Spans kept in memory for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, tag=None):
        rec = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, tag)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, tag_of, size_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            with self.span(name, tag) as rec:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    rec.size = size_of(result)
                return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, tag_of, size_of in ENTRY_POINTS:
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    new = classmethod(self._wrap(static.__func__, name, tag_of, size_of))
                else:
                    new = self._wrap(static, name, tag_of, size_of)
                saved.append((owner, attr, static))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, static in reversed(saved):
                setattr(owner, attr, static)

    def inside(self, span: Span, name: str) -> bool:
        """Is some ancestor of the span named `name`?"""
        parent = span.parent
        while parent >= 0:
            up = self.spans[parent]
            if up.name == name:
                return True
            parent = up.parent
        return False

    def table(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: count, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.end - s.start - child[s.id]
        return {k: tuple(v) for k, v in out.items()}


def _module_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent == GBFAN_DIR:
        return path.stem
    if filename == FRACTIONS_FILE:
        return "fractions"
    return None


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, profile, overhead_ratio: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    spans = tracer.spans
    table = tracer.table()

    def count(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    calls = count("groebner.Ideal.groebner")
    runs = count("groebner.buchberger_dicts")
    walk_cones = sum(s.size for s in spans if s.name == "fan.enumerate_fan")
    oracle_cones = sum(s.size for s in spans if s.name == "fan.fan_oracle_zerodim")
    flips = sum(
        1 for s in spans
        if s.name == "groebner.Ideal.groebner" and s.tag == "flip"
        and tracer.inside(s, "fan.enumerate_fan")
    )
    walk_runs = sum(
        1 for s in spans
        if s.name == "groebner.buchberger_dicts" and tracer.inside(s, "fan.enumerate_fan")
    )

    mod_self: dict[str, float] = {}
    mod_calls: dict[str, int] = {}
    key_calls = key_self = points_key = gf_ops = qq_ops = 0
    for (filename, _, func), (_, nc, tt, _, callers) in pstats.Stats(profile).stats.items():
        module = _module_of(filename)
        if module is None:
            continue
        mod_self[module] = mod_self.get(module, 0.0) + tt
        mod_calls[module] = mod_calls.get(module, 0) + nc
        if module == "orderings" and func == "key":
            key_calls += nc
            key_self += tt
            points_key += sum(
                c[1] for caller, c in callers.items()
                if _module_of(caller[0]) == "points"
            )
        elif module == "field" and func in GF_OPS:
            gf_ops += nc
        elif module == "fractions" and func in QQ_OPS:
            qq_ops += nc

    m = {
        "groebner.calls": (calls, "count"),
        "groebner.buchberger_runs": (runs, "count"),
        "groebner.cache_hit_ratio": (1 - runs / calls if calls else 0.0, "ratio"),
        "groebner.buchberger_s": (total("groebner.buchberger_dicts"), "s"),
        "fan.enumerate_s": (total("fan.enumerate_fan"), "s"),
        "fan.oracle_s": (total("fan.fan_oracle_zerodim"), "s"),
        "fan.cones": (walk_cones, "count"),
        "fan.flip_yield": (_ratio(walk_cones, flips), "ratio"),
        "fan.buchberger_per_cone": (_ratio(walk_runs, walk_cones), "ratio"),
        "fan.oracle_yield": (_ratio(oracle_cones, count("fan.oracle_lp")), "ratio"),
        "cones.canonicalise_calls": (count("cones.Cone.from_vectors"), "count"),
        "cones.canonicalise_s": (total("cones.Cone.from_vectors"), "s"),
        "cones.lp_calls": (count("cones.solve_system") + count("cones.feasible"), "count"),
        "cones.lp_s": (total("cones.solve_system") + total("cones.feasible"), "s"),
        "orderings.key_calls": (key_calls, "count"),
        "orderings.key_self_s": (key_self, "s"),
        "field.gf_ops": (gf_ops, "count"),
        "field.qq_ops": (qq_ops, "count"),
        "field.self_s": (mod_self.get("field", 0.0) + mod_self.get("fractions", 0.0), "s"),
        "points.ideal_s": (total("points.ideal_of_points"), "s"),
        "points.key_calls": (points_key, "count"),
        "parse.s": (total("parse"), "s"),
        "ring.render_s": (total("render"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for module in PROFILED_MODULES:
        if module != "field":
            m[f"{module}.self_s"] = (mod_self.get(module, 0.0), "s")
        m[f"{module}.profile_calls"] = (mod_calls.get(module, 0), "count")
    return m
