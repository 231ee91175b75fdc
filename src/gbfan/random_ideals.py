"""Seeded random inputs for the property suites and the selfcheck command."""

from __future__ import annotations

from random import Random

from .field import QQ, GF
from .groebner import Ideal
from .monomials import MonomialIdeal
from .points import PointSet, distraction_ideal, vanishing_ideal
from .ring import LinearShift, PolyRing, Polynomial


def random_scalar(rng: Random, field, nonzero: bool = False):
    p = field.characteristic
    while True:
        if p:
            c = field.from_int(rng.randrange(p))
        else:
            c = field.from_int(rng.randint(-4, 4))
        if c or not nonzero:
            return c


def random_point_set(rng: Random, ring: PolyRing, count: int) -> PointSet:
    """Distinct random points; coordinates are small field elements."""
    p = ring.field.characteristic
    if p and p**ring.nvars < count:
        count = p**ring.nvars
    pts: set[tuple] = set()
    while len(pts) < count:
        pts.add(tuple(random_scalar(rng, ring.field) for _ in range(ring.nvars)))
    return PointSet(ring, sorted(pts, key=repr))


def random_zero_dim_monomial_ideal(
    rng: Random, nvars: int, max_degree: int = 4
) -> MonomialIdeal:
    """Pure powers per variable plus a few mixed generators."""
    degrees = [rng.randint(1, max_degree) for _ in range(nvars)]
    gens = [
        tuple(d if j == i else 0 for j in range(nvars))
        for i, d in enumerate(degrees)
    ]
    for _ in range(rng.randint(0, nvars)):
        exp = tuple(rng.randint(0, max(0, d - 1)) for d in degrees)
        if any(exp):
            gens.append(exp)
    return MonomialIdeal(nvars, gens)


def random_distraction_tuples(rng: Random, ring: PolyRing, degrees):
    tuples = []
    p = ring.field.characteristic
    for d in degrees:
        pool: list = []
        if p:
            values = list(range(p))
            rng.shuffle(values)
            pool = [ring.field.from_int(v) for v in values[:d]]
        else:
            seen = set()
            while len(pool) < d:
                c = ring.field.from_int(rng.randint(-6, 6))
                if c not in seen:
                    seen.add(c)
                    pool.append(c)
        tuples.append(tuple(pool))
    return tuples


def random_linear_shift(rng: Random, ring: PolyRing) -> LinearShift:
    scales = tuple(
        random_scalar(rng, ring.field, nonzero=True) for _ in range(ring.nvars)
    )
    offsets = tuple(random_scalar(rng, ring.field) for _ in range(ring.nvars))
    return LinearShift(scales, offsets)


def random_quotient_element(rng: Random, ideal: Ideal) -> Polynomial:
    """A random polynomial supported on the quotient basis."""
    ring = ideal.ring
    terms = ideal.quotient_basis()
    coeffs = {}
    for t in terms:
        if rng.random() < 0.5:
            c = random_scalar(rng, ring.field)
            if c:
                coeffs[t] = c
    return Polynomial(ring, coeffs)


def random_zero_dim_ideal(rng: Random, ring: PolyRing, max_mult: int = 10) -> Ideal:
    """A random zero-dimensional ideal of multiplicity <= max_mult.

    Flavors: vanishing ideals of random points, distractions of random
    monomial ideals, and point ideals enlarged by one random quotient
    element (the enlarged ones are where fans get interesting).
    """
    n = ring.nvars
    for _ in range(64):
        flavor = rng.choice(("points", "points", "distraction", "enlarged"))
        if flavor == "points":
            count = rng.randint(1, max_mult)
            ideal = vanishing_ideal(random_point_set(rng, ring, count))
        elif flavor == "distraction":
            mono = random_zero_dim_monomial_ideal(rng, n, max_degree=3)
            if len(mono.order_ideal()) > max_mult:
                continue
            degrees = [0] * n
            for g in mono.gens:
                for i, e in enumerate(g):
                    degrees[i] = max(degrees[i], e)
            p = ring.field.characteristic
            if p and p < max(degrees, default=0):
                continue
            tuples = random_distraction_tuples(rng, ring, degrees)
            ideal = distraction_ideal(ring, mono, tuples)
        else:
            count = rng.randint(2, max(2, max_mult))
            base = vanishing_ideal(random_point_set(rng, ring, count))
            extra = random_quotient_element(rng, base)
            if extra.is_zero() or extra.total_degree() < 1:
                continue
            ideal = base + Ideal(ring, [extra])
        if ideal.contains_one():
            continue
        if ideal.is_zero_dimensional() and ideal.multiplicity() <= max_mult:
            return ideal
    raise RuntimeError("could not draw a random zero-dimensional ideal")


def corpus_rings(n: int):
    """The standard mixed-field test rings in n variables."""
    names = ("x", "y", "z", "w")[:n]
    return [PolyRing(QQ, names), PolyRing(GF(5), names)]
