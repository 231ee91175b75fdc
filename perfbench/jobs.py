"""One benchmark job: input text in, gbfan calls, canonical text out, and an
exact check of the result.

Each job builds fresh objects from its text, so no basis cache survives
from one job to the next.  gbfan modules are reached through their module
attributes at call time, so the traced run can wrap them from outside.
The checks use the benchmark's own arithmetic where that is cheap, and
gbfan's reduction where an independent one would be a second Buchberger.
"""

from __future__ import annotations

import json
import signal
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from math import lcm, prod

import gbfan.fan
import gbfan.groebner
import gbfan.points
from gbfan import PolyRing, parse_field, parse_order
from inputs import in_order_ideal


class NullTracer:
    """The tracer of untraced runs: spans cost nothing."""

    def span(self, name):
        return nullcontext()


def _ring(job) -> PolyRing:
    return PolyRing(parse_field(job["field"]), job["vars"])


def _divides(s, t) -> bool:
    return all(a <= b for a, b in zip(s, t))


def run_fan(job, tracer) -> tuple[str, bool]:
    """Both fan routes and the unique-basis test, as in `gbfan selfcheck`."""
    with tracer.span("parse"):
        ring = _ring(job)
        ideal = gbfan.groebner.Ideal(ring, [ring.parse(t) for t in job["gens"]])
    fan = gbfan.fan.enumerate_fan(ideal)
    oracle = gbfan.fan.fan_oracle_zerodim(ideal, bound=job["mult"])
    unique = gbfan.fan.unique_gb_fast_check(ideal)
    with tracer.span("render"):
        lines = []
        for mb in fan.cones:
            lines.append(f"cone {mb.cone}")
            lines += [g.to_str(mb.basis.order) for g in mb.basis.elements]
        text = "\n".join(lines)
    ok = (
        fan == oracle
        and unique == (fan.size == 1)
        and all(len(lt.order_ideal()) == job["mult"] for lt in fan.lt_ideals())
    )
    return text, ok


def run_gb(job, tracer) -> tuple[str, bool]:
    """One degrevlex reduced basis by Buchberger, checked for reducedness,
    for containing the generators, and for the known number of standard
    monomials, which a basis missing an element exceeds."""
    with tracer.span("parse"):
        ring = _ring(job)
        ideal = gbfan.groebner.Ideal(ring, [ring.parse(t) for t in job["gens"]])
    gb = ideal.groebner()
    with tracer.span("render"):
        text = "\n".join(g.to_str(gb.order) for g in gb.elements)
    one = ring.field.one()
    lts = gb.lt_exps
    ok = len(gb.lt_ideal().order_ideal()) == job["degree"]
    ok = ok and all(gb.reduce(g).is_zero() for g in ideal.gens) and all(
        g.coeffs[lt] == one
        and not any(_divides(lts[j], t) for j in range(len(lts)) if j != i for t in g.coeffs)
        for i, (g, lt) in enumerate(zip(gb.elements, lts))
    )
    return text, ok


def _vanishes(polys, points, p: int) -> bool:
    """Exact evaluation of every polynomial at every point, with Python
    numbers: ints mod p, or over QQ the coefficients with their
    denominators cleared."""
    rows = []
    for g in polys:
        if p:
            rows.append([(e, c.val) for e, c in g.coeffs.items()])
        else:
            den = lcm(*(c.denominator for c in g.coeffs.values()))
            rows.append([(e, int(c * den)) for e, c in g.coeffs.items()])
    exps = {e for row in rows for e, _ in row}
    for pt in points:
        value = {e: prod(x**k for x, k in zip(pt, e)) for e in exps}
        for row in rows:
            total = sum(c * value[e] for e, c in row)
            if (total % p if p else total) != 0:
                return False
    return True


def run_points(job, tracer) -> tuple[str, bool]:
    """Buchberger-Möller basis and quotient basis of a point set."""
    with tracer.span("parse"):
        ring = _ring(job)
        field = ring.field
        pts = gbfan.points.PointSet(
            ring, [tuple(field.parse(c) for c in pt) for pt in job["points"]]
        )
        order = parse_order(job["order"], ring.nvars)
    gb, quotient = gbfan.points.ideal_of_points(pts, order)
    with tracer.span("render"):
        text = "\n".join(
            [g.to_str(order) for g in gb.elements]
            + [" ".join(map(str, t)) for t in quotient]
        )
    p = field.characteristic
    raw = [tuple(int(c) if p else Fraction(c) for c in pt) for pt in job["points"]]
    qset = set(quotient)
    ok = len(quotient) == len(pts) == len(qset)
    ok = ok and all(in_order_ideal(t, qset) for t in quotient)
    ok = ok and _vanishes(gb.elements, raw, p)
    return text, ok


RUNNERS = {"fan": run_fan, "gb": run_gb, "points": run_points}


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded("job ran past its time budget")


def run_job(line: str, tracer, budget_s: float) -> tuple[str | None, bool]:
    """Run one job; a wrong answer, an exception or running past the time
    budget each make it a failed job."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        with tracer.span("parse"):
            job = json.loads(line)
        return RUNNERS[job["kind"]](job, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        print(f"failed job: {line.strip()}", file=sys.stderr)
        return None, False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sympy_matches(line: str, text: str) -> bool | None:
    """Compare one rendered degrevlex basis with sympy's; None without sympy.

    sympy is an optional cross-check of the reference bases, never needed
    to run the benchmark.
    """
    try:
        import sympy
    except ImportError:
        return None
    job = json.loads(line)
    ring = _ring(job)
    p = ring.field.characteristic
    xs = sympy.symbols(job["vars"])
    exprs = [sympy.sympify(t.replace("^", "**")) for t in job["gens"]]
    opts = {"modulus": p} if p else {}
    basis = sympy.groebner(exprs, *xs, order="grevlex", **opts)

    def canon(items):
        """Scaled so the lexicographically largest exponent has coefficient 1,
        since sympy returns primitive integer bases over ZZ, not monic ones."""
        items = dict(items)
        inv = 1 / items[max(items)] if not p else pow(items[max(items)], -1, p)
        return frozenset((e, c * inv % p if p else c * inv) for e, c in items.items())

    theirs = {
        canon(
            (tuple(e), int(c) % p if p else Fraction(int(c.p), int(c.q)))
            for e, c in poly.terms()
        )
        for poly in basis.polys
    }
    ours = {
        canon((e, c.val if p else c) for e, c in ring.parse(row).coeffs.items())
        for row in text.splitlines()
    }
    return theirs == ours
