"""Exact integer halfspace systems and polyhedral cones in the orthant.

A cone's facets, and a point in each, come from one double-description
pass over its candidate inequalities (Motzkin-Raiffa-Thompson-Thrall 1953;
Fukuda-Prodon 1996): `Cone.from_vectors` keeps the extreme rays, and a
facet's point is the sum of the rays on it.  Fourier-Motzkin serves only
`strict_positive_solution`, by one projection, `_project`, on integer rows
(Dantzig-Eaves 1973): each row is divided by the gcd of its coefficients
and right-hand side, and rows combine with positive integer multipliers.
Feasibility is the projection's success.  Explicit solutions
back-substitute through its stages with every value found so far an
integer over one common denominator, so bounds compare by
cross-multiplication.  Strict systems over cones reduce to closed ones by
scaling: {A·w > 0, w > 0} is nonempty exactly when {A·w >= 1, w >= 1} is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd
from operator import and_

from .errors import DimensionMismatch, DomainError, InconsistentMarking
from .linalg import primitive_vector

# One constraint is (coeffs, rhs) and means  sum(coeffs[i] * x_i) >= rhs.


def _clean(cons):
    """Divide each row by the gcd of its coefficients and right-hand side,
    keep the largest right-hand side of equal coefficient tuples, and surface
    contradictions.

    Coefficients are tuples of ints.  Returns None when a constraint with
    zero coefficients is violated.
    """
    best: dict[tuple, int] = {}
    for coeffs, rhs in cons:
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs = tuple(x // g for x in coeffs)
            rhs //= g
        if not any(coeffs):
            if rhs > 0:
                return None
            continue
        cur = best.get(coeffs)
        if cur is None or rhs > cur:
            best[coeffs] = rhs
    return [(c, r) for c, r in best.items()]


def _eliminate(cons, j):
    """Project away variable j (coefficients beyond j are already zero)."""
    zero, pos, neg = [], [], []
    for c in cons:
        a = c[0][j]
        (zero if a == 0 else pos if a > 0 else neg).append(c)
    out = list(zero)
    for pc, pr in pos:
        for nc, nr in neg:
            ap, an = pc[j], nc[j]
            coeffs = tuple(-an * x + ap * y for x, y in zip(pc, nc))
            out.append((coeffs, -an * pr + ap * nr))
    return out


def _project(cons, n):
    """Eliminate x_{n-1}, ..., x_0 in turn.

    Returns the stages, where stage n-1-j is the system over x_0..x_j left
    before x_j goes, or None when the system is infeasible.  A complete
    elimination without contradiction proves feasibility.
    """
    stages = []
    cur = _clean(cons)
    for j in range(n - 1, -1, -1):
        if cur is None:
            return None
        stages.append(cur)
        cur = _clean(_eliminate(cur, j))
    return None if cur is None else stages


def solve_system(cons, n):
    """A rational point satisfying every constraint, as `(values, den)`,
    the point's coordinates being values[i] / den with den > 0, or None.

    Constraints are (coeffs, rhs) pairs over n variables, with integer
    coefficients and right-hand sides, read as coeffs·x >= rhs.  The point
    is found by back-substitution through the stages of `_project`: each
    variable takes the midpoint of its bounds given the earlier ones, its
    one bound when it has only one, and 0 when it has none.  The values
    found so far are integers over the one common denominator den.
    """
    stages = _project(cons, n)
    if stages is None:
        return None
    values: list[int] = []
    den = 1
    for j in range(n):
        # a bound (t, a) with a > 0 reads x_j = t / (a·den)
        lo = hi = None
        for coeffs, rhs in stages[n - 1 - j]:
            a = coeffs[j]
            if a == 0:
                continue
            t = rhs * den - sum(c * x for c, x in zip(coeffs, values) if c)
            if a > 0:
                if lo is None or t * lo[1] > lo[0] * a:
                    lo = (t, a)
            elif hi is None or t * hi[1] > hi[0] * a:
                hi = (-t, -a)
        if lo is None:
            t, a = (0, 1) if hi is None else hi
        elif hi is None:
            t, a = lo
        else:
            t, a = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(t, a)
        t, a = t // g, a // g
        if a > 1:
            values = [x * a for x in values]
            den *= a
        values.append(t)
    return values, den


def feasible(cons, n) -> bool:
    return _project(cons, n) is not None


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def strict_positive_solution(vectors, n):
    """w with w >= 1 and v·w >= 1 for every v; by scaling, such w exists
    exactly when some strictly positive w has v·w > 0 for every v.  Returns
    None when the system is infeasible, and otherwise the primitive integer
    multiple of `solve_system`'s point: its values over a positive
    denominator, made coprime."""
    cons = [(tuple(v), 1) for v in vectors]
    cons += [(_unit(n, i), 1) for i in range(n)]
    point = solve_system(cons, n)
    if point is None:
        return None
    return primitive_vector(point[0])


@dataclass(frozen=True)
class Cone:
    """A full-dimensional cone inside the nonnegative orthant, recorded by
    its canonical irredundant inequalities (orthant implicit) and its
    extreme rays, both from `from_vectors`; equality ignores the rays."""

    nvars: int
    ineqs: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def from_vectors(cls, vectors, n) -> "Cone":
        """The cone {w >= 0 : v·w >= 0 for every v}, its facets primitive
        and sorted, by one double-description pass.  It starts from the
        orthant's rays e_1..e_n and adds the candidates v·w >= 0 one at a
        time.  Each ray keeps a bitmask of the constraints tight on it: bit
        i for w_i >= 0 and bit n+k for candidate k.  A ray on the positive
        side of v meets one on the negative side in a new ray exactly when
        no third ray is tight on every constraint both are (they are
        adjacent).  The cone is full-dimensional exactly when no constraint
        is tight on every ray, or else `InconsistentMarking` is raised, and a
        candidate is a facet exactly when no other constraint is tight on
        every ray it is tight on.  A vector not of length n raises
        `DimensionMismatch`."""
        for v in vectors:
            if len(v) != n:
                raise DimensionMismatch(f"vector {tuple(v)} for a cone in {n} variables")
        cands = sorted({v for v in map(primitive_vector, vectors) if min(v) < 0})
        # all-nonnegative vectors are implied by w >= 0
        rays = [(_unit(n, i), ((1 << n) - 1) ^ (1 << i)) for i in range(n)]
        for k, v in enumerate(cands):
            bit = 1 << (n + k)
            kept, pos, neg = [], [], []
            for r, m in rays:
                s = sum(a * b for a, b in zip(v, r))
                if s > 0:
                    pos.append((s, r, m))
                    kept.append((r, m))
                elif s < 0:
                    neg.append((s, r, m))
                else:
                    kept.append((r, m | bit))
            masks = [m for _, m in rays]
            for sp, p, mp in pos:
                for sq, q, mq in neg:
                    both = mp & mq
                    if sum(m & both == both for m in masks) == 2:
                        ray = primitive_vector([sp * b - sq * a for a, b in zip(p, q)])
                        kept.append((ray, both | bit))
            rays = kept
        masks = [m for _, m in rays]
        full = (1 << (n + len(cands))) - 1
        if reduce(and_, masks, full):
            raise InconsistentMarking("no positive weight realizes this marking")
        facets = tuple(
            v
            for k, v in enumerate(cands)
            if reduce(and_, (m for m in masks if m >> (n + k) & 1), full) == 1 << (n + k)
        )
        return cls(n, facets, tuple(r for r, _ in rays))

    def contains(self, w) -> bool:
        if len(w) != self.nvars:
            return False
        if any(x < 0 for x in w):
            return False
        return all(sum(a * b for a, b in zip(v, w)) >= 0 for v in self.ineqs)

    def facet_interior_point(self, v):
        """The primitive sum of the extreme rays on facet v: strictly
        positive, as the facet's relative interior is, and the same from
        both cones that share the facet.  Raises `DomainError` for a v that
        is not a facet or that no extreme ray lies on."""
        v = tuple(v)
        if v not in self.ineqs:
            raise DomainError(f"{v} is not a facet of this cone")
        tight = [r for r in self.rays if not sum(a * b for a, b in zip(v, r))]
        if not tight:
            raise DomainError(f"no extreme ray of this cone lies on {v}")
        return primitive_vector([sum(col) for col in zip(*tight)])

    def __str__(self):
        rows = " ".join("[" + " ".join(map(str, v)) + "]" for v in self.ineqs)
        return rows if rows else "[whole orthant]"
