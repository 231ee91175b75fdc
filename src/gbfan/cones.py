"""Exact integer halfspace systems and polyhedral cones in the orthant.

Everything here rests on one Fourier-Motzkin projection, `_project`, which
stays on integer rows (Dantzig-Eaves 1973): each row is divided by the gcd
of its coefficients and right-hand side, and rows combine with positive
integer multipliers.  Feasibility is the projection's success.  Explicit
solutions back-substitute through its stages with every value found so far
an integer over one common denominator, so bounds compare by
cross-multiplication and the point comes back as those integers and that
denominator.
Irredundancy pruning is a feasibility test per inequality, skipped for an
inequality that dominates another one (v >= λ·u entrywise, λ > 0), since
u·w >= 0 then implies v·w >= 0 on the orthant.  Strict systems over cones
reduce to closed ones by scaling: {A·w > 0, w > 0} is nonempty exactly when
{A·w >= 1, w >= 1} is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


def strict_positive_solution(vectors, n, zeros=()):
    """w with w >= 1, v·w >= 1 for every v, and z·w = 0 for every z.

    By scaling, such w exists exactly when some strictly positive w has
    v·w > 0 and z·w = 0.  Returns None when the system is infeasible, and
    otherwise the primitive integer multiple of `solve_system`'s point:
    its values over a positive denominator, made coprime.
    """
    cons = [(tuple(v), 1) for v in vectors]
    cons += [(_unit(n, i), 1) for i in range(n)]
    for z in zeros:
        z = tuple(z)
        cons.append((z, 0))
        cons.append((tuple(-x for x in z), 0))
    point = solve_system(cons, n)
    if point is None:
        return None
    return primitive_vector(point[0])


def _redundant(v, others, n) -> bool:
    """Is v·w >= 0 implied by the others within the closed orthant?"""
    cons = [(tuple(u), 0) for u in others]
    cons += [(_unit(n, i), 0) for i in range(n)]
    cons.append((tuple(-x for x in v), 1))
    return not feasible(cons, n)


def _dominates(v, u) -> bool:
    """Is v >= λ·u entrywise for some λ > 0?

    Each entry bounds λ: by v_k/u_k from above where u_k > 0 and from below
    where u_k < 0, and where u_k = 0 it needs v_k >= 0.  A bound (p, q)
    with q >= 0 reads p/q, so (1, 0) is +infinity and (-1, 0) is -infinity,
    and bounds compare by cross-multiplication.
    """
    lo, hi = (-1, 0), (1, 0)
    for a, b in zip(v, u):
        if b > 0:
            if a * hi[1] < hi[0] * b:
                hi = (a, b)
        elif b < 0:
            if a * lo[1] < lo[0] * b:
                lo = (-a, -b)
        elif a < 0:
            return False
    return hi[0] > 0 and lo[0] * hi[1] <= hi[0] * lo[1]


def canonical_inequalities(vectors, n) -> tuple[tuple[int, ...], ...]:
    """Irredundant, primitive, sorted inequality list relative to the
    orthant; the orthant constraints themselves stay implicit.

    A candidate that dominates another remaining one is implied by it, so
    it goes without a feasibility test; the test would drop it too.
    """
    prim = set()
    for v in vectors:
        v = primitive_vector(v)
        if any(x < 0 for x in v):
            prim.add(v)
        # all-nonnegative vectors are implied by w >= 0
    lst = sorted(prim)
    i = 0
    while i < len(lst):
        v, others = lst[i], lst[:i] + lst[i + 1 :]
        if any(_dominates(v, u) for u in others) or _redundant(v, others, n):
            lst.pop(i)
        else:
            i += 1
    return tuple(lst)


@dataclass(frozen=True)
class Cone:
    """A full-dimensional cone inside the nonnegative orthant, recorded by
    its canonical irredundant inequalities (orthant implicit)."""

    nvars: int
    ineqs: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, vectors, n) -> "Cone":
        return cls(n, canonical_inequalities(vectors, n))

    def contains(self, w) -> bool:
        if len(w) != self.nvars:
            return False
        if any(x < 0 for x in w):
            return False
        return all(sum(a * b for a, b in zip(v, w)) >= 0 for v in self.ineqs)

    def facet_interior_point(self, v):
        """A strictly positive primitive integer point in the relative
        interior of the facet v·w = 0, or None when that facet avoids the
        open orthant."""
        others = [u for u in self.ineqs if u != tuple(v)]
        return strict_positive_solution(others, self.nvars, zeros=[v])

    def __str__(self):
        rows = " ".join("[" + " ".join(map(str, v)) + "]" for v in self.ineqs)
        return rows if rows else "[whole orthant]"
