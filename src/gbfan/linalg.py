"""Exact linear algebra over a field: one echelon reduction and what is
built on it.

The basic-set oracle, FGLM, Buchberger-Möller and the canonical form of a
term ordering reduce a vector against rows kept in echelon form, each with
the index of its first nonzero entry, its pivot.  A row may also carry the
combination of terms that it stands for, so that a vector that reduces to
zero yields the relation those combinations satisfy.

Every routine takes the field's characteristic ``p``.  Over GF(p) (p > 0)
a row is ``(pivot, packed, term)``, the row and its combination packed in
one int (simultaneous modular reduction, Dumas-Fousse-Salvy 2011): w-bit
slot i holds entry i of the length-n vector, and slot n + j the
coefficient of the term of row j, the row's own term last; the row keeps
its term beside the int, so a relation can name its terms.  Each echelon
row is scaled so that its pivot is 1, so a reduction step is one
multiply-add of ints, which reduces no slot: a call takes at most n steps
of at most (p - 1)^2 each, so a slot stays at most p - 1 + n·(p - 1)^2,
which w, `slot_width(n, p)`, holds with no carry, and the slots are split
once per call, mod p.  Vectors and relations hold plain ints in [0, p).
Over QQ (p = 0) a row is ``(pivot, row, row_rep)``, row_rep a dict from
term to coefficient or None, and the reduction is fraction-free (Bareiss
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
from functools import cache
from heapq import heappop, heappush
from math import gcd, lcm

from .terms import tdivides


def echelon_reduce(rows, vec, p, term=None):
    """Reduce vec against echelon rows over the field of characteristic p:
    residues mod p when p > 0, rationals when p = 0.

    Returns ``(pivot, reduced, rep)``: the first nonzero index of the
    reduced vector (None when vec lies in the span of the rows), the
    reduced vector, and rep.  A nonzero result is the new echelon row, in
    the field's row form below.  When vec reduces to zero, rep is the
    relation that the rows' combinations satisfy, a dict from term to
    coefficient with coefficient 1 on the given term, or None when no term
    is given.

    Over GF(p) vec holds residues in [0, p), and a row is
    ``(pivot, packed, term)``: w-bit slot i of the int holds entry i of the
    length-n vector, and, when the row was reduced with its term, slot
    n + j holds the coefficient of the term of row j, up to its own.  The
    reduction packs vec, with a 1 in slot n + k for the term (k rows), and
    for each row adds (p - c) times it, c the slot at its pivot mod p.  No
    slot is reduced before the end: a step adds at most (p - 1)^2 to a
    slot, and there are at most n steps, since the rows are independent, so
    a slot stays at most p - 1 + n·(p - 1)^2 < 2^w, w = `slot_width(n, p)`,
    and no carry crosses a slot.  Then the slots are split in one pass, mod
    p: the vector's give the pivot, and a nonzero result is scaled to pivot
    1 and packed again, with its term beside it.  A zero result has reduced
    0, and its relation names the terms of the rows with a nonzero slot.

    Over QQ a row is ``(pivot, row, row_rep)``, row_rep a dict from term
    to coefficient or None when no term is tracked.  vec may hold ints or
    `Fraction`s; rows, their combinations and a nonzero result hold ints.
    `clear_denominators` scales vec by d and rep starts as the term with
    coefficient d.  A step on a row with pivot entry r, where vec holds c
    and g = gcd(c, r), is fraction-free: vec becomes
    ``(|r|/g)·vec - sign(r)·(c/g)·row``, and rep the same.  A nonzero
    result is divided, rep with it, by their joint content, so it is a
    positive multiple of the vector that elimination over `Fraction`s
    would give, and primitive when no term is tracked.  A relation is
    divided once by its term's coefficient and comes back in `Fraction`s.
    """
    if p:
        return _reduce_residues(rows, vec, p, term)
    vec, d = clear_denominators(vec)
    rep = None if term is None else {term: d}
    for pivot, row, row_rep in rows:
        c = vec[pivot]
        if not c:
            continue
        r = row[pivot]
        g = gcd(c, r)
        a, b = abs(r) // g, c // g
        if r < 0:
            b = -b
        vec = [a * x - b * y for x, y in zip(vec, row)]
        if rep is not None:
            if a != 1:
                rep = {e: a * x for e, x in rep.items()}
            for e, coef in row_rep.items():
                cur = rep.get(e)
                val = -(b * coef) if cur is None else cur - b * coef
                if val:
                    rep[e] = val
                elif cur is not None:
                    del rep[e]
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if pivot is None:
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


@cache
def slot_width(n: int, p: int) -> tuple[int, int]:
    """`(w, mask)`: the bits of one slot of a packed GF(p) row of length n,
    the least w with p - 1 + n·(p - 1)^2 < 2^w, and 2^w - 1."""
    w = (p - 1 + n * (p - 1) ** 2).bit_length()
    return w, (1 << w) - 1


def _reduce_residues(rows, vec, p, term):
    """`echelon_reduce` over GF(p), on packed rows."""
    n = len(vec)
    w, mask = slot_width(n, p)
    k = len(rows)
    V = 0 if term is None else 1 << w * k
    for x in reversed(vec):
        V = V << w | x
    for pivot, row, _ in rows:
        c = (V >> w * pivot & mask) % p
        if c:
            V += (p - c) * row
    slots = []
    for _ in range(n if term is None else n + k + 1):
        slots.append((V & mask) % p)
        V >>= w
    pivot = next((i for i in range(n) if slots[i]), None)
    if pivot is None:
        if term is None:
            return None, 0, None
        rep = {term: 1}
        for (_, _, t), c in zip(rows, slots[n:]):
            if c:
                rep[t] = c
        return None, 0, rep
    c = slots[pivot]
    if c != 1:
        inv = pow(c, -1, p)
        slots = [x * inv % p for x in slots]
    V = 0
    for x in reversed(slots):
        V = V << w | x
    return pivot, V, term


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
    n = order.nvars
    origin = (0,) * n
    pending = {origin: vec_of(origin, None, None)}
    # at most s = len(vector) quotient terms, each x_i times an earlier one,
    # so a quotient term has degree < s and a pushed term degree <= s
    rank = order.rank_key(len(pending[origin]))
    heap = [(0, origin)]

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
                heappush(heap, (rank(up), up))
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

