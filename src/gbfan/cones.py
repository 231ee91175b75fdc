"""Exact rational halfspace systems and polyhedral cones in the orthant.

Everything here rests on one Fourier-Motzkin projection over the rationals,
`_project`: feasibility is its success, explicit solutions back-substitute
through its stages, and irredundancy pruning is a feasibility test per
inequality.  Strict systems over cones reduce to closed ones by scaling:
{A·w > 0, w > 0} is nonempty exactly when {A·w >= 1, w >= 1} is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import clear_denominators, primitive_vector

# One constraint is (coeffs, rhs) and means  sum(coeffs[i] * x_i) >= rhs.


def _clean(cons):
    """Scale to coprime integers, drop dominated duplicates, and surface
    contradictions.

    Returns None when a constraint with zero coefficients is violated.
    """
    best: dict[tuple, object] = {}
    for coeffs, rhs in cons:
        ints = primitive_vector((*coeffs, rhs))
        coeffs, rhs = ints[:-1], ints[-1]
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
    """A rational point satisfying every constraint, or None.

    Constraints are (coeffs, rhs) pairs over n variables, read as
    coeffs·x >= rhs with exact rational arithmetic throughout.  The point is
    found by back-substitution through the stages of `_project`: each
    variable takes the midpoint of its bounds given the earlier ones.
    """
    stages = _project(cons, n)
    if stages is None:
        return None
    values: list[Fraction] = []
    for j in range(n):
        lo = hi = None
        for coeffs, rhs in stages[n - 1 - j]:
            a = coeffs[j]
            if a == 0:
                continue
            bound = Fraction(rhs - sum(c * x for c, x in zip(coeffs, values) if c), a)
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None:
            values.append(Fraction(0) if hi is None else hi)
        else:
            values.append(lo if hi is None else (lo + hi) / 2)
    return tuple(values)


def feasible(cons, n) -> bool:
    return _project(cons, n) is not None


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def strict_positive_solution(vectors, n, zeros=()):
    """w with w >= 1, v·w >= 1 for every v, and z·w = 0 for every z.

    By scaling, such w exists exactly when some strictly positive w has
    v·w > 0 and z·w = 0.  Returns None when the system is infeasible, and
    otherwise the primitive integer multiple of `solve_system`'s point.
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
    return primitive_vector(clear_denominators(point)[0])


def _redundant(v, others, n) -> bool:
    """Is v·w >= 0 implied by the others within the closed orthant?"""
    cons = [(tuple(u), 0) for u in others]
    cons += [(_unit(n, i), 0) for i in range(n)]
    cons.append((tuple(-x for x in v), 1))
    return not feasible(cons, n)


def canonical_inequalities(vectors, n) -> tuple[tuple[int, ...], ...]:
    """Irredundant, primitive, sorted inequality list relative to the
    orthant; the orthant constraints themselves stay implicit."""
    prim = set()
    for v in vectors:
        v = primitive_vector(v)
        if any(x < 0 for x in v):
            prim.add(v)
        # all-nonnegative vectors are implied by w >= 0
    lst = sorted(prim)
    i = 0
    while i < len(lst):
        if _redundant(lst[i], lst[:i] + lst[i + 1 :], n):
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
