"""Exact linear algebra over a field: one echelon reduction and what is
built on it.

The basic-set oracle, FGLM, Buchberger-Möller and the canonical form of a
term ordering reduce a vector against rows kept in echelon form.  A row is
a triple ``(pivot, row, row_rep)``: the index of its first nonzero entry,
the row itself, and the combination of terms (a dict from term to
coefficient) that the row stands for, or None when no combination is
tracked.

Every routine takes the field's characteristic ``p``.  Over GF(p) (p > 0)
vectors, rows and combinations hold plain ints in [0, p), and each new
echelon row is scaled so that its pivot is 1, so a reduction step needs
no division.  Over QQ (p = 0) the reduction is fraction-free (Bareiss
1968): `clear_denominators` scales an input vector to ints, a row and its
combination hold ints with no common factor, and the row is a positive
multiple of the row that elimination over `Fraction`s would keep.  It
keeps that row's sign, so the canonical form of an ordering reads its
primitive integer rows directly.  Only a relation, the combination of a
vector that reduces to zero, comes back in `Fraction`s, divided once by
its term's coefficient.

`basis_from_functionals` runs that reduction over terms in increasing
order.  It is Buchberger-Möller when a term's vector holds its values at
points, and FGLM (Faugère-Gianni-Lazard-Mora) when the vector holds its
normal-form coordinates modulo a known zero-dimensional basis.  Like
`groebner.buchberger_dicts`, it returns `(lead_term, coeffs)` pairs, which
`groebner.ReducedGB` turns into polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .terms import tdivides


def echelon_reduce(rows, vec, p, term=None):
    """Reduce vec against echelon rows ``(pivot, row, row_rep)`` over the
    field of characteristic p: residues mod p when p > 0, rationals when
    p = 0.

    Returns ``(pivot, reduced, rep)``: the first nonzero index of the
    reduced vector (None when vec lies in the span of the rows), the
    reduced vector, and rep, the combination vec stands for.  When a term
    is given, rep starts as that term and is updated alongside the vector;
    otherwise rep is None.  When the vector reduces to zero, rep is the
    relation that the rows' combinations satisfy, with coefficient 1 on
    the term.

    Over GF(p) every row must have pivot 1, so a step subtracts vec[pivot]
    times the row with no division; a nonzero result is scaled, rep with
    it, to pivot 1, the form in which it joins the rows.

    Over QQ vec may hold ints or `Fraction`s; rows, their combinations and
    a nonzero result hold ints.  `clear_denominators` scales vec by d and
    rep starts as the term with coefficient d.  A step on a row with pivot
    entry r, where vec holds c and g = gcd(c, r), is fraction-free: vec
    becomes ``(|r|/g)·vec - sign(r)·(c/g)·row``, and rep the same.  A
    nonzero result is divided, rep with it, by their joint content, so it
    is a positive multiple of the vector that elimination over `Fraction`s
    would give, and primitive when no term is tracked.  A relation is
    divided once by its term's coefficient and comes back in `Fraction`s.
    """
    if p:
        rep = None if term is None else {term: 1}
    else:
        vec, d = clear_denominators(vec)
        rep = None if term is None else {term: d}
    for pivot, row, row_rep in rows:
        c = vec[pivot]
        if not c:
            continue
        if p:
            a, b = 1, c
            vec = [(x - b * y) % p for x, y in zip(vec, row)]
        else:
            r = row[pivot]
            g = gcd(c, r)
            a, b = abs(r) // g, c // g
            if r < 0:
                b = -b
            if a == 1:
                vec = [x - b * y for x, y in zip(vec, row)]
            else:
                vec = [a * x - b * y for x, y in zip(vec, row)]
        if rep is not None:
            if a != 1:
                rep = {e: a * x for e, x in rep.items()}
            for e, coef in row_rep.items():
                cur = rep.get(e)
                val = -(b * coef) if cur is None else cur - b * coef
                if p:
                    val %= p
                if val:
                    rep[e] = val
                elif cur is not None:
                    del rep[e]
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if p:
        if pivot is not None and vec[pivot] != 1:
            inv = pow(vec[pivot], -1, p)
            vec = [x * inv % p for x in vec]
            if rep is not None:
                rep = {e: x * inv % p for e, x in rep.items()}
    elif pivot is None:
        if rep is not None:
            s = rep[term]
            rep = {e: Fraction(x, s) for e, x in rep.items()}
    else:
        g = gcd(*vec) if rep is None else gcd(*vec, *rep.values())
        if g > 1:
            vec = [x // g for x in vec]
            if rep is not None:
                rep = {e: x // g for e, x in rep.items()}
    return pivot, vec, rep


def basis_from_functionals(order, p, vec_of):
    """Reduced basis of the kernel of a linear map on terms, for `order`,
    over the field of characteristic p (see `echelon_reduce`).

    Terms are taken in increasing order, starting at 1 and then through the
    variable multiples of each quotient term.  A term that is a multiple of
    a leading term found so far is skipped.  Otherwise its vector is reduced
    against the echelon rows of the quotient terms before it: a term whose
    vector reduces to zero leads a basis element, its representation, and
    any other term joins the quotient basis.

    ``vec_of(t, below, i)`` gives the vector of term t when t is pushed:
    ``below`` is the vector of t / x_i (None, with i None, at the origin),
    so a multiplicative source can extend it by one variable.  A vector is
    dropped once its term is popped.

    Returns ``(elements, quotient)``: the monic basis elements as pairs
    `(lead_term, coeffs)` by increasing lead_term, coeffs residues over
    GF(p) and `Fraction`s over QQ, and the quotient basis in increasing order.
    """
    okey = order.key
    n = order.nvars
    origin = (0,) * n
    heap = [(okey(origin), origin)]
    pending = {origin: vec_of(origin, None, None)}

    quotient: list[tuple] = []
    echelon: list[tuple] = []
    elements: list[tuple] = []

    while heap:
        _, t = heappop(heap)
        vec = pending.pop(t)
        if any(tdivides(lt, t) for lt, _ in elements):
            continue
        pivot, reduced, rep = echelon_reduce(echelon, vec, p, t)
        if pivot is None:
            elements.append((t, rep))
            continue
        quotient.append(t)
        echelon.append((pivot, reduced, rep))
        for i in range(n):
            up = t[:i] + (t[i] + 1,) + t[i + 1 :]
            if up not in pending:
                pending[up] = vec_of(up, vec, i)
                heappush(heap, (okey(up), up))
    return elements, quotient


def clear_denominators(values) -> tuple[list[int], int]:
    """`(ints, d)` for ints and `Fraction`s: d the least positive integer
    that makes every d·x an integer, and ints those integers."""
    d = lcm(*[x.denominator for x in values])
    return [x.numerator * (d // x.denominator) for x in values], d


def primitive_vector(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, to coprime
    integers; the zero vector stays zero."""
    g = gcd(*vec)
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)

