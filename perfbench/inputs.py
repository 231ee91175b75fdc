"""Seeded inputs for the gbfan benchmark, produced as text only.

Every workload input is drawn here from the benchmark seed and handed to
gbfan as text, so a change inside gbfan (its random-ideal helpers, or the
basis cache that `vanishing_ideal` seeds) can never change what is
measured.  Coefficients are plain Python values while drawing: `Fraction`
over QQ and ints reduced mod p over GF(p).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod
from random import Random

QQ = 0


def field_text(p: int) -> str:
    return "QQ" if p == QQ else f"GF({p})"


def var_names(n: int) -> list[str]:
    return list(("x", "y", "z", "w")[:n]) if n <= 4 else [f"x{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# coefficient and polynomial helpers (dict: exponent tuple -> coefficient)


def _norm(c, p):
    return c % p if p else c


def _inv(c, p):
    return pow(c, -1, p) if p else 1 / Fraction(c)


def _padd(f: dict, g: dict, p: int, scale=1) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = _norm(out.get(e, 0) + scale * c, p)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _pmul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = _norm(out.get(e, 0) + c1 * c2, p)
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _unit(n: int, i: int, k: int = 1) -> tuple:
    return tuple(k if j == i else 0 for j in range(n))


def _linear(n: int, i: int, root, p: int) -> dict:
    """x_i - root."""
    return _padd({_unit(n, i): 1}, {(0,) * n: root}, p, -1)


def poly_text(f: dict, names) -> str:
    """Terms by descending degree then exponent; `gbfan` parses this form."""
    terms = []
    for e in sorted(f, key=lambda e: (sum(e), e), reverse=True):
        c = f[e]
        mag = -c if c < 0 else c
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        body = f"{mag}" if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        terms.append(("-" if c < 0 else "+", body))
    head_sign, head = terms[0]
    return ("-" if head_sign == "-" else "") + head + "".join(
        f" {sign} {body}" for sign, body in terms[1:]
    )


def _permute(f: dict, perm) -> dict:
    return {tuple(e[perm[i]] for i in range(len(e))): c for e, c in f.items()}


def _scalar(rng: Random, p: int):
    return rng.randrange(p) if p else Fraction(rng.randint(-4, 4))


def in_order_ideal(t: tuple, terms: set) -> bool:
    """Is every divisor t / x_k of t already among the terms?"""
    return all(
        t[k] == 0 or t[:k] + (t[k] - 1,) + t[k + 1 :] in terms for k in range(len(t))
    )


# ---------------------------------------------------------------------------
# fan_selfcheck: zero-dimensional ideals of known multiplicity


# Over QQ, shape-position points take coordinates up to this size, so they
# are in general position: ideals of one stratum then have about the same
# number of cones, and cost about the same, whatever the seed.
QQ_COORDINATE = 30


def _coordinate(rng: Random, p: int):
    if p:
        return rng.randrange(p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, QQ_COORDINATE))


def shape_ideal(rng: Random, n: int, p: int, mult: int) -> list[dict]:
    """Vanishing ideal of `mult` points with distinct first coordinates, as
    its shape-position generators: prod(x - a_i) and x_j - L_j(x) with
    L_j the Lagrange interpolant of the j-th coordinates."""
    if p:
        pool = list(range(p))
    else:
        pool = [Fraction(v) for v in range(-QQ_COORDINATE, QQ_COORDINATE + 1)]
    xs = rng.sample(pool, mult)
    gens = [{(0,) * n: 1}]
    for a in xs:
        gens[0] = _pmul(gens[0], _linear(n, 0, a, p), p)
    for j in range(1, n):
        interp: dict = {}
        for i, a in enumerate(xs):
            basis = {(0,) * n: _coordinate(rng, p)}
            if not basis[(0,) * n]:
                continue
            for k, b in enumerate(xs):
                if k != i:
                    scale = _inv(_norm(a - b, p), p)
                    basis = _pmul(basis, _linear(n, 0, b, p), p)
                    basis = {e: _norm(c * scale, p) for e, c in basis.items()}
            interp = _padd(interp, basis, p)
        gens.append(_padd({_unit(n, j): 1}, interp, p, -1))
    return gens


def triangular_ideal(rng: Random, n: int, p: int, degrees) -> list[dict]:
    """A lex-triangular set: x_k^d_k plus random terms below it in x_k whose
    coefficients live on the box of earlier degrees; multiplicity prod(d)."""
    gens = []
    for k, d in enumerate(degrees):
        f = {_unit(n, k, d): 1}
        box = [()]
        for j in range(k):
            box = [b + (e,) for b in box for e in range(degrees[j])]
        for low in range(d):
            for b in box:
                if rng.random() < 0.5:
                    c = _scalar(rng, p)
                    if c:
                        f[b + (low,) + (0,) * (n - k - 1)] = c
        gens.append(f)
    return gens


def distraction_gens(rng: Random, n: int, p: int, mult: int) -> list[dict]:
    """Distraction of a random monomial ideal with `mult` standard terms:
    its generators are the reduced basis for every ordering (one cone)."""
    pool = list(range(p)) if p else [Fraction(v) for v in range(-6, 7)]
    staircase = {(0,) * n}
    while len(staircase) < mult:
        t = rng.choice(sorted(staircase))
        i = rng.randrange(n)
        # a corner one above the staircase needs that many distinct roots
        if t[i] + 2 > len(pool):
            continue
        up = t[:i] + (t[i] + 1,) + t[i + 1 :]
        if in_order_ideal(up, staircase):
            staircase.add(up)
    corners = set()
    for t in staircase:
        for i in range(n):
            up = t[:i] + (t[i] + 1,) + t[i + 1 :]
            if up not in staircase and in_order_ideal(up, staircase):
                corners.add(up)
    top = [max(t[i] for t in corners) for i in range(n)]
    roots = [rng.sample(pool, top[i]) for i in range(n)]
    gens = []
    for t in sorted(corners):
        f = {(0,) * n: 1}
        for i, e in enumerate(t):
            for k in range(e):
                f = _pmul(f, _linear(n, i, roots[i][k], p), p)
        gens.append(f)
    return gens


# ---------------------------------------------------------------------------
# buchberger_systems: classic benchmark systems under a seeded rescaling


def katsura(n: int, p: int) -> list[dict]:
    """Katsura-n in x0..xn: sum_i u_i = 1 and sum_i u_i u_(m-i) = u_m,
    indices over -n..n with u_-i = u_i."""
    nv = n + 1

    def u(i):
        return abs(i) if abs(i) <= n else None

    gens = []
    lin: dict = {(0,) * nv: _norm(-1, p)}
    for i in range(-n, n + 1):
        lin = _padd(lin, {_unit(nv, u(i)): 1}, p)
    gens.append(lin)
    for m in range(n):
        f = {_unit(nv, m): _norm(-1, p)}
        for i in range(-n, n + 1):
            j = m - i
            if u(j) is None:
                continue
            e = tuple(a + b for a, b in zip(_unit(nv, u(i)), _unit(nv, u(j))))
            f = _padd(f, {e: 1}, p)
        gens.append(f)
    return gens


def cyclic(n: int, p: int) -> list[dict]:
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and
    x0*...*x(n-1) - 1."""
    gens = []
    for d in range(1, n):
        f: dict = {}
        for s in range(n):
            e = [0] * n
            for k in range(d):
                e[(s + k) % n] += 1
            f = _padd(f, {tuple(e): 1}, p)
        gens.append(f)
    gens.append({(1,) * n: 1, (0,) * n: _norm(-1, p)})
    return gens


def scaled_system(rng: Random, gens: list[dict], p: int) -> list[dict]:
    """Substitute x_i -> c_i * x_i and scale each generator by a nonzero
    constant.  Over GF(p) the c_i are any units; over QQ they are signs,
    so the coefficient sizes, and with them the cost, stay those of the
    textbook system."""
    n = len(next(iter(gens[0])))
    if p:
        subs = [rng.randrange(1, p) for _ in range(n)]
    else:
        subs = [rng.choice((-1, 1)) for _ in range(n)]
    out = []
    for f in gens:
        s = rng.randrange(1, p) if p else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
        g = {}
        for e, c in f.items():
            v = c * s
            for ci, k in zip(subs, e):
                v *= ci**k
            g[e] = _norm(v, p)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# point_designs: random-coordinate sets and grid designs


def random_points(rng: Random, n: int, p: int, count: int) -> list[tuple]:
    pts: set[tuple] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(p) if p else rng.randint(-9, 9) for _ in range(n)))
    return sorted(pts)


def grid_points(rng: Random, n: int, p: int, side: int, half: bool) -> list[tuple]:
    """A full side^n grid with random axis values, or a random half of it."""
    pool = range(p) if p else range(-9, 10)
    pts = [()]
    for _ in range(n):
        axis = rng.sample(pool, side)
        pts = [q + (c,) for q in pts for c in axis]
    return sorted(rng.sample(pts, len(pts) // 2)) if half else pts


# ---------------------------------------------------------------------------
# workloads: a pass is a fixed list of strata; the seed varies the draw
# inside each stratum, never the stratum counts, so passes of different
# seeds cost about the same.

GF5, GF7, GFP = 5, 7, 32003

# (flavor, nvars, field, multiplicity or degrees, jobs per draw).  The
# multiplicity cap keeps every job to a few tenths of a second: 3-variable
# QQ point ideals of multiplicity 5 already cost ~1 s and 6 far more.
# The counts give the cost order two homogeneous blocks: 12 planar QQ point
# ideals of multiplicity 4 hold the middle ranks, so the median job lies
# inside one stratum, and 5 three-variable QQ point ideals of multiplicity
# 4 (nine or ten cones each) hold the top ranks, so the tail does too.
FAN_STRATA = [
    ("shape", 2, QQ, 3, 2),
    ("shape", 2, QQ, 4, 12),
    ("shape", 2, QQ, 5, 1),
    ("shape", 2, QQ, 6, 1),
    ("shape", 2, GF5, 3, 1),
    ("shape", 2, GF5, 4, 1),
    ("shape", 2, GF5, 5, 1),
    ("triangular", 2, QQ, (2, 2), 1),
    ("triangular", 2, QQ, (3, 2), 1),
    ("triangular", 2, GF5, (3, 2), 2),
    ("distraction", 2, QQ, 5, 1),
    ("distraction", 2, GF5, 4, 1),
    ("shape", 3, QQ, 3, 1),
    ("shape", 3, QQ, 4, 5),
    ("shape", 3, GF5, 3, 1),
    ("shape", 3, GF5, 4, 1),
    ("triangular", 3, QQ, (2, 2, 1), 2),
    ("triangular", 3, QQ, (2, 1, 2), 1),
    ("triangular", 3, GF5, (2, 2, 1), 1),
    ("distraction", 3, QQ, 6, 1),
    ("distraction", 3, GF5, 6, 1),
    ("shape", 4, QQ, 3, 1),
    ("shape", 4, GF5, 3, 1),
    ("triangular", 4, GF5, (2, 1, 1, 2), 1),
    ("distraction", 4, GF5, 5, 1),
]

# An odd count puts the median job inside one stratum (cyclic5 over
# GF(32003)) rather than between two.
BUCHBERGER_STRATA = [
    (katsura, 5, GFP),
    (cyclic, 5, GFP),
    (katsura, 4, GFP),
    (katsura, 4, QQ),
    (cyclic, 5, QQ),
]

# Number of solutions with multiplicity (the quotient dimension) of each
# system, over QQ and GF(32003) alike; a basis that misses an element has
# a larger or infinite quotient.
DEGREES = {"katsura4": 16, "katsura5": 32, "cyclic5": 70}

# (design, nvars, field, points or grid side, ordering)
POINT_STRATA = [
    ("random", 3, GFP, 50, "degrevlex"),
    ("random", 3, GFP, 50, "lex"),
    ("random", 4, GFP, 40, "degrevlex"),
    ("random", 3, GF7, 50, "degrevlex"),
    ("random", 3, GF7, 50, "lex"),
    ("random", 4, GF5, 50, "degrevlex"),
    ("random", 4, GF5, 50, "lex"),
    ("random", 3, QQ, 40, "lex"),
    ("grid", 3, GF7, 4, "degrevlex"),
    ("half", 3, GF7, 4, "lex"),
    ("grid", 4, GF5, 3, "lex"),
    ("half", 4, GF5, 3, "degrevlex"),
    ("grid", 3, QQ, 4, "degrevlex"),
    ("half", 3, QQ, 4, "lex"),
    ("grid", 3, GFP, 4, "lex"),
    ("half", 3, GFP, 4, "degrevlex"),
]


def _fan_jobs(rng: Random) -> list[dict]:
    jobs = []
    for flavor, n, p, size, count in FAN_STRATA:
        for _ in range(count):
            label = str(size)
            if flavor == "shape":
                gens, mult = shape_ideal(rng, n, p, size), size
            elif flavor == "triangular":
                gens, mult = triangular_ideal(rng, n, p, size), prod(size)
                label = "x".join(map(str, size))
            else:
                gens, mult = distraction_gens(rng, n, p, size), size
            perm = list(range(n))
            rng.shuffle(perm)
            names = var_names(n)
            jobs.append({
                "kind": "fan",
                "stratum": f"{flavor}/{n}/{field_text(p)}/{label}",
                "field": field_text(p),
                "vars": names,
                "gens": [poly_text(_permute(f, perm), names) for f in gens],
                "mult": mult,
            })
    return jobs


def _buchberger_jobs(rng: Random) -> list[dict]:
    jobs = []
    for family, size, p in BUCHBERGER_STRATA:
        system = f"{family.__name__}{size}"
        base = family(size, p)
        names = var_names(len(next(iter(base[0]))))
        jobs.append({
            "kind": "gb",
            "stratum": f"{system}/{field_text(p)}",
            "field": field_text(p),
            "vars": names,
            "gens": [poly_text(f, names) for f in scaled_system(rng, base, p)],
            "degree": DEGREES[system],
        })
    return jobs


def _point_jobs(rng: Random) -> list[dict]:
    jobs = []
    for design, n, p, size, order in POINT_STRATA:
        if design == "random":
            pts = random_points(rng, n, p, size)
        else:
            pts = grid_points(rng, n, p, size, design == "half")
        jobs.append({
            "kind": "points",
            "stratum": f"{design}/{n}/{field_text(p)}/{len(pts)}/{order}",
            "field": field_text(p),
            "vars": var_names(n),
            "order": order,
            "points": [[str(c) for c in pt] for pt in pts],
        })
    return jobs


WORKLOADS = {
    "fan_selfcheck": _fan_jobs,
    "buchberger_systems": _buchberger_jobs,
    "point_designs": _point_jobs,
}
# Draws of the strata per pass: enough distinct jobs that the median and
# the sum over jobs do not hinge on one draw, in a pass of 3 to 5
# calibrated seconds.
DRAWS = {"fan_selfcheck": 2, "buchberger_systems": 3, "point_designs": 3}


def pass_text(workload: str, seed: int) -> str:
    """The serialised inputs of a run's pass: one JSON job per line."""
    rng = Random(f"gbfan-bench/{workload}/{seed}")
    jobs = [job for _ in range(DRAWS[workload]) for job in WORKLOADS[workload](rng)]
    return "\n".join(json.dumps(job, sort_keys=True) for job in jobs) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
