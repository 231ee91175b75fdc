"""Exact linear algebra over a field: one echelon reduction and what is
built on it.

Buchberger-Möller, the basic-set oracle and the canonical form of a term
ordering all reduce a vector against rows kept in echelon form.  A row is a
triple ``(pivot, row, row_rep)``: the index of its first nonzero entry, the
row itself, and the combination of terms (a dict from term to coefficient)
that the row stands for, or None when no combination is tracked.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def echelon_reduce(rows, vec, rep=None):
    """Reduce vec against echelon rows ``(pivot, row, row_rep)``.

    Returns ``(pivot, reduced, rep)``: the first nonzero index of the
    reduced vector (None when vec lies in the span of the rows), the
    reduced vector, and rep, the combination vec stands for, updated in
    place alongside the vector when it is given.  When the vector reduces
    to zero, rep is the relation that the rows' combinations satisfy.
    """
    for pivot, row, row_rep in rows:
        c = vec[pivot]
        if c:
            f = c / row[pivot]
            vec = [a - f * b for a, b in zip(vec, row)]
            if rep is not None:
                for e, coef in row_rep.items():
                    cur = rep.get(e)
                    val = -(f * coef) if cur is None else cur - f * coef
                    if val:
                        rep[e] = val
                    elif cur is not None:
                        del rep[e]
    pivot = next((i for i, x in enumerate(vec) if x), None)
    return pivot, vec, rep


def primitive_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to coprime integers;
    the zero vector stays zero."""
    if not all(type(x) is int for x in vec):
        fracs = [Fraction(x) for x in vec]
        denom = lcm(*(f.denominator for f in fracs))
        vec = [int(f * denom) for f in fracs]
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)
