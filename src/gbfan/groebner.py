"""Buchberger's algorithm, reduced bases, and ideal arithmetic.

Like `linalg.basis_from_functionals`, the kernel takes the field's
characteristic p and raw ints, and returns monic `(lead_term, coeffs)`
pairs: residues in [0, p) over GF(p), for any prime p, against monic
reducers; over QQ (p = 0), ints against reducers scaled to coprime ints,
by fraction-free steps that divide by the accumulated scale once, at the
end, into `Fraction`s.  The public surface deals in `Polynomial` and
`ReducedGB`: on the way in, `_integral` takes coefficients through the
field's `kernel` and `linalg.clear_denominators`; on the way out,
`ReducedGB` wraps any builder's pairs.  Each input and each S-polynomial
remainder joins the basis fully reduced, if nonzero; Gebauer and Möller's
criteria prune the pairs, and the elements left active are the minimal
basis, whose tails a last pass reduces to give the reduced monic basis.

Inside `_reduce_dict` and `buchberger_dicts` a term is one int, packed
by `orderings.Packing` (whose docstring gives the layout), so packed ints
compare as their terms do, multiply by addition and test divisibility by
one subtraction.  No order key is computed for a term.  A term that outgrows its slots
sets a guard bit where it is made and raises `SlotOverflow`, and the run,
or a `ReducedGB`'s reducers, start again on slots twice as wide; nothing
is ever truncated.  Beside each reducer list, `_reduce_dict` keeps every
term's first divisor, or for a term none divides the list length it was
scanned to, and over GF(p) it reduces a term's accumulated products mod p
once, when the term leaves the work.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotZeroDimensional,
    ParseError,
    ZeroIdealDivisor,
)
from .linalg import basis_from_functionals, clear_denominators
from .monomials import MonomialIdeal
from .orderings import (
    Packing,
    SlotOverflow,
    TermOrder,
    elimination_order,
    lex,
    packing,
)
from .ring import Polynomial, PolyRing, same_ring
from .terms import tcoprime, tdeg, tdiv, tdivides, tlcm


def _reduce_dict(f: dict, reducers, divisors: dict, guard: int, p: int) -> tuple[dict, int]:
    """Remainder of f modulo reducers, as `(r, s)` with s*f - r in the
    ideal they generate.  Terms are ints packed by one `Packing`, whose
    guard bits are `guard`.  A reducer `(lt, a, rest)` stands for
    a*x^lt + rest, `rest` the (term, coeff) pairs below lt.  Over GF(p)
    coefficients are residues, ints in [0, p), every a is 1 and s is 1.
    Over QQ (p = 0) they are ints, a > 0, and a step on a term with
    coefficient c first multiplies the work and the remainder so far by
    a / gcd(a, c); s is the product of those factors, so r / s is the
    remainder by the monic reducers, along the same path.

    The work's terms sit in a heap as negated packed ints, which order
    them as the ordering does.  A term is pushed once, when it enters the
    work, and leaves it when it pops; every new term lies below the one
    reduced, so no term enters twice.  Every term is reduced, the leading
    one and the tail alike, so no term of r is divisible by a reducer's
    leading term.  A reducer divides t when subtracting its lt from t
    with every guard set keeps every guard, and a step shifts its tail by
    adding t - lt to each term.
    Two valid slots add up to less than 2^bits, so a shifted term has
    outgrown its slots exactly when one of its guard bits is set; such a
    term cannot be in the work already, and the step raises `SlotOverflow`
    when it meets one.  The caller then packs wider.

    The work holds unreduced sums: a step adds m*c2 to a term's value,
    with m = -c over QQ and p - c over GF(p), so each product lies below
    p^2, and one loop serves both fields.  A value is reduced mod p once,
    when its term pops, and a term whose value has cancelled, 0 over QQ
    or a multiple of p over GF(p), is skipped then; so every coefficient
    of r over GF(p) is a residue in [1, p).

    `divisors` maps a term to the index of the first reducer whose leading
    term divides it, or, for a miss, to ~k: no divisor among the first k
    reducers.  A scan fills it, and a term found there is scanned only
    against the reducers from k on, if at all.  The caller keeps one such
    dict beside each reducer list, shared by every reduction against that
    list.  This is exact because a reducer list only ever grows at its
    end: the first divisor found stays the first divisor, and a reducer
    appended later sits past every recorded k, so each step takes the
    reducer a full scan would take.
    """
    work = dict(f)
    heap = [-t for t in work]
    heapify(heap)
    out: dict = {}
    scale = 1
    n = len(reducers)
    while heap:
        t = -heappop(heap)
        c = work.pop(t)
        if p:
            c %= p
        if not c:  # cancelled since it entered the work
            continue
        i = divisors.get(t, -1)  # ~0: no divisor among the first 0
        if i < 0:
            guarded = t | guard
            for i in range(~i, n):
                if (guarded - reducers[i][0]) & guard == guard:
                    divisors[t] = i
                    break
            else:
                divisors[t] = ~n
                out[t] = c
                continue
        lt, a, rest = reducers[i]
        shift = t - lt
        if a != 1:
            g = gcd(a, c)
            if g != a:
                k = a // g
                scale *= k
                for e in work:
                    work[e] *= k
                for e in out:
                    out[e] *= k
            c //= g
        m = p - c if p else -c
        for e2, c2 in rest:
            key = e2 + shift
            cur = work.get(key)
            if cur is None:
                if key & guard:
                    raise SlotOverflow("a reduction step outgrew its slots")
                work[key] = m * c2
                heappush(heap, -key)
            else:
                work[key] = cur + m * c2
    return out, scale


def _integral(f: dict, field) -> tuple[dict, int]:
    """`(F, d)` with F = d*f on ints, for f's elements of the field: over
    GF(p) F holds the residues and d = 1; over QQ d is the least common
    denominator of the coefficients."""
    ints, d = clear_denominators([field.kernel(c) for c in f.values()])
    return dict(zip(f, ints)), d


def _reducer(f: dict, lt: int, p: int) -> tuple:
    """f, ints on packed terms, with packed leading term lt, in
    `_reduce_dict`'s reducer form `(lt, a, rest)`: monic residues over
    GF(p); over QQ, f divided by its content, with a > 0."""
    if p:
        inv = pow(f[lt], -1, p)
        a, rest = 1, tuple([(e, c * inv % p) for e, c in f.items() if e != lt])
    else:
        g = gcd(*f.values())
        if f[lt] < 0:
            g = -g
        a, rest = f[lt] // g, tuple([(e, c // g) for e, c in f.items() if e != lt])
    return lt, a, rest


def buchberger_dicts(gens, order: TermOrder, p: int, use_criteria: bool = True):
    """Reduced monic basis, as dicts, of the ideal the dicts of ints
    generate over the field of characteristic p: residues mod p over
    GF(p), for any prime p, or any integer multiples of the generators
    over QQ (p = 0).  Returns `(lead_term, coeffs)` pairs by increasing
    lead_term, coeffs residues over GF(p) and `Fraction`s over QQ.

    Pairs go by the total degree of their lcm, then by the ordering on it,
    ties in the order formed.  Each input, then each remainder of an
    S-polynomial, is reduced in full by the basis so far and joins it if
    nonzero: no term of a new element, its leading term included, is
    divisible by an earlier element's leading term.  Without
    `use_criteria`, each element pairs with every earlier one.  With it,
    Gebauer and Möller's update ("On an installation of Buchberger's
    algorithm", 1988) runs as each element h joins:
    - B_k: a queued pair with lcm l is dropped when lt(h) divides l and
      neither of its two elements has lcm l with lt(h);
    - M: a new pair is not formed when another new pair's lcm strictly
      divides its own;
    - F: of the new pairs that share an lcm, only the one whose partner
      has the least leading term is formed, and none when one of them has
      coprime leading terms; no pair with coprime leading terms is formed;
    - an element whose leading term lt(h) divides forms no further pairs,
      though it stays a reducer, so the reducer list only grows.
    Both modes retire elements by that rule; the rest have the minimal
    leading terms, one each, and their tails are reduced once more by the
    whole list, a Gröbner basis, to the unique remainder.
    The work runs on `_reduce_dict`'s raw coefficients and packed terms:
    each element is put in reducer form once, when it is added, and made
    monic only at the end.  The leading terms stay exponent tuples too,
    for the pair rule and the criteria.  A term that outgrows its slots
    restarts the run on slots twice as wide, which gives the same basis.
    """
    pk = packing(order)
    while True:
        try:
            return _buchberger(gens, pk, p, use_criteria)
        except SlotOverflow:
            pk = packing(order, 2 * pk.bits)


def _buchberger(gens, pk: Packing, p: int, use_criteria: bool) -> list:
    """`buchberger_dicts` on terms packed by pk; raises `SlotOverflow`."""
    pack, unpack, guard = pk.pack, pk.unpack, pk.guard
    basis: list[tuple] = []  # (lt, a, rest), the one reducer list
    lts: list[tuple] = []  # the leading terms of basis, unpacked
    active: list[int] = []  # the elements no later leading term divides
    divisors: dict = {}  # first divisors and misses in basis, which only grows
    queue: list = []  # ((degree, packed lcm), j, i, lcm) for i < j

    def insert(f: dict) -> None:
        # packed s divides packed t when ((t | guard) - s) & guard == guard
        top = max(f)
        lt = unpack(top)
        if use_criteria:
            queue[:] = [  # criterion B_k
                pair
                for pair in queue
                if ((pair[0][1] | guard) - top) & guard != guard
                or tlcm(lts[pair[2]], lt) == pair[3]
                or tlcm(lts[pair[1]], lt) == pair[3]
            ]
            heapify(queue)
            by_lcm: dict = {}  # packed lcm -> (lcm, element of least lt, coprime)
            for i in sorted(active, key=lambda i: basis[i][0]):
                l = tlcm(lts[i], lt)
                packed_l = pack(l)
                _, k, coprime = by_lcm.get(packed_l, (l, i, False))
                by_lcm[packed_l] = l, k, coprime or tcoprime(lts[i], lt)
            new = [  # criteria F and M
                (k, l)
                for packed_l, (l, k, coprime) in by_lcm.items()
                if not coprime
                and not any(
                    ((packed_l | guard) - other) & guard == guard
                    for other in by_lcm
                    if other != packed_l
                )
            ]
        else:
            new = [(i, tlcm(old_lt, lt)) for i, old_lt in enumerate(lts)]
        for i, l in new:
            heappush(queue, ((tdeg(l), pack(l)), len(basis), i, l))
        active[:] = [i for i in active if ((basis[i][0] | guard) - top) & guard != guard]
        active.append(len(basis))
        basis.append(_reducer(f, top, p))
        lts.append(lt)

    for g in gens:
        r, _ = _reduce_dict({pack(e): c for e, c in g.items()}, basis, divisors, guard, p)
        if r:
            insert(r)
    while queue:
        (_, packed_l), j, i, l = heappop(queue)
        # the S-polynomial, scaled so that the leading terms cancel at l
        # on ints: (j_a/g)*x^(l-i_lt)*f_i - (i_a/g)*x^(l-j_lt)*f_j
        (i_lt, i_a, i_rest), (j_lt, j_a, j_rest) = basis[i], basis[j]
        g = gcd(i_a, j_a)
        # each shifted term is tested as it is made, before it can cancel
        spoly: dict = {}
        for rest, shift, m in (
            (i_rest, packed_l - i_lt, j_a // g),
            (j_rest, packed_l - j_lt, -(i_a // g)),
        ):
            for e, c in rest:
                key = e + shift
                if key & guard:
                    raise SlotOverflow("an S-polynomial outgrew its slots")
                val = spoly.get(key, 0) + m * c
                if p:
                    val %= p
                if val:
                    spoly[key] = val
                else:
                    del spoly[key]
        r, _ = _reduce_dict(spoly, basis, divisors, guard, p)
        if r:
            insert(r)
    # the active elements are the minimal basis; no element reduces its
    # own tail, since every term met lies below its lt
    out = []
    for lt, a, rest in sorted(basis[i] for i in active):  # by lt, which no two share
        r, s = _reduce_dict(dict(rest), basis, divisors, guard, p)
        if p:
            r = {unpack(e): c for e, c in r.items()}
        else:
            r = {unpack(e): Fraction(c, s * a) for e, c in r.items()}
        lt = unpack(lt)
        r[lt] = 1 if p else Fraction(1)
        out.append((lt, r))
    return out


def kernel_poly(ring: PolyRing, coeffs: dict) -> Polynomial:
    """A polynomial from kernel coefficients, residues over GF(p) and field
    elements over QQ: a basis builder's pair (in `ReducedGB`), a normal
    form or an eliminant."""
    field = ring.field
    if field.characteristic:
        coeffs = {e: field.from_int(c) for e, c in coeffs.items()}
    return Polynomial(ring, coeffs)


class ReducedGB:
    """The unique reduced monic basis of an ideal for one ordering, from a
    basis builder's `(lead_term, coeffs)` pairs by increasing lead_term:
    the lead terms become `lt_exps` as given, each coeffs a `Polynomial`
    by `kernel_poly`.  A zero-dimensional basis fills its quotient basis
    and normal forms on first use, deterministically."""

    __slots__ = ("ring", "order", "elements", "lt_exps", "_kernel", "_index", "_nf")

    def __init__(self, ring: PolyRing, order: TermOrder, pairs):
        self.ring = ring
        self.order = ring.term_order(order)
        self.lt_exps = tuple(lt for lt, _ in pairs)
        self.elements = tuple(kernel_poly(ring, coeffs) for _, coeffs in pairs)
        self._kernel: tuple | None = None
        self._index: dict[tuple, int] | None = None
        self._nf: dict[tuple, tuple] = {}

    def lt_key(self) -> tuple:
        """Canonical identity of the leading-term ideal."""
        return tuple(sorted(self.lt_exps))

    def lt_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.ring.nvars, self.lt_exps)

    def reduce(self, f: Polynomial) -> Polynomial:
        """Full normal form of f against this basis, the unique remainder:
        no remainder term is divisible by any basis leading term."""
        same_ring(f.ring, self.ring)
        field = self.ring.field
        coeffs, d = _integral(f.coeffs, field)
        r, s = self._reduce(coeffs)
        if not field.characteristic:
            r = {e: Fraction(c, s * d) for e, c in r.items()}
        return kernel_poly(self.ring, r)

    def _reduce(self, coeffs: dict) -> tuple[dict, int]:
        """`_reduce_dict` of coeffs, ints on exponent tuples, by this basis,
        with the remainder back on exponent tuples.  The reducers and their
        first-divisor dict, a list that is fixed, are built on first use
        and shared by every `reduce` and `nf_coords`, so the bases that
        never reduce, such as a flip's or an ideal of points', build none.
        A term that outgrows its slots rebuilds them twice as wide."""
        p = self.ring.field.characteristic
        kernel = self._kernel
        pk = kernel[0] if kernel else packing(self.order)
        while True:
            try:
                reducers, divisors = self._packed(pk)
                f = {pk.pack(e): c for e, c in coeffs.items()}
                r, s = _reduce_dict(f, reducers, divisors, pk.guard, p)
                break
            except SlotOverflow:
                pk = packing(self.order, 2 * pk.bits)
        return {pk.unpack(t): c for t, c in r.items()}, s

    def _packed(self, pk: Packing) -> tuple[list, dict]:
        """`(reducers, divisors)`: this basis in reducer form on terms
        packed by pk, with its first-divisor dict, kept beside pk until a
        wider packing replaces them."""
        kernel = self._kernel
        if kernel is None or kernel[0] is not pk:
            field = self.ring.field
            p = field.characteristic
            reducers = []
            for lt, g in zip(self.lt_exps, self.elements):
                f, _ = _integral(g.coeffs, field)
                reducers.append(_reducer({pk.pack(e): c for e, c in f.items()}, pk.pack(lt), p))
            kernel = self._kernel = (pk, reducers, {})
        return kernel[1:]

    def quotient_basis(self) -> tuple[tuple[int, ...], ...]:
        """The power products outside the leading-term ideal, ascending in
        the ordering; their classes form a K-basis of the quotient."""
        if self._index is None:
            lt = self.lt_ideal()
            if not lt.is_zero_dimensional():
                raise NotZeroDimensional("the ideal is not zero-dimensional")
            terms = lt.order_ideal()
            terms.sort(key=self.order.rank_key(max(map(sum, terms), default=0)))
            self._index = {t: i for i, t in enumerate(terms)}
        return tuple(self._index)

    def nf_coords(self, exp: tuple) -> tuple:
        """Coordinates of the normal form of x^exp in `quotient_basis`, in
        the form `linalg` reduces: residues, ints in [0, p), over GF(p), and
        `Fraction`s over QQ.  Cached; racing fills store equal tuples.
        Raises `DimensionMismatch` for an exponent of the wrong length and
        `ParseError` for a negative one, as `PolyRing.poly` does."""
        vec = self._nf.get(exp)
        if vec is None:
            if len(exp) != self.order.nvars:
                raise DimensionMismatch(f"exponent {exp} has wrong length")
            if min(exp, default=0) < 0:
                raise ParseError(f"negative exponent in {exp}")
            field = self.ring.field
            p = field.characteristic
            row = [0 if p else field.zero()] * len(self.quotient_basis())
            nf, s = self._reduce({exp: 1})
            for e, c in nf.items():
                row[self._index[e]] = c if p else Fraction(c, s)
            vec = self._nf.setdefault(exp, tuple(row))
        return vec

    def change_order(self, order: TermOrder) -> "ReducedGB":
        """A new reduced basis of the same ideal, labelled `order`: by FGLM
        over this one's normal-form coordinates when it has a
        `quotient_basis`, else by Buchberger from its elements."""
        self.ring.term_order(order)
        try:
            self.quotient_basis()
        except NotZeroDimensional:
            return Ideal(self.ring, self.elements).groebner(order)
        ring = self.ring
        pairs, _ = basis_from_functionals(
            order, ring.field.characteristic, lambda t, below, i: self.nf_coords(t)
        )
        return ReducedGB(ring, order, pairs)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGB)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        inner = ", ".join(g.to_str(self.order) for g in self.elements)
        return f"ReducedGB[{inner}]"


class Ideal:
    """A finitely generated ideal with a per-ordering basis cache."""

    __slots__ = ("ring", "gens", "_cache", "_lock")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            same_ring(g.ring, ring)
        self.ring = ring
        self.gens = gens
        self._cache: dict[TermOrder, ReducedGB] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_strings(cls, ring: PolyRing, texts) -> "Ideal":
        return cls(ring, [ring.parse(t) for t in texts])

    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self, order: TermOrder | None = None) -> ReducedGB:
        """The reduced monic basis for the ordering, cached per ordering."""
        order = self.ring.term_order(order)
        with self._lock:
            hit = self._cache.get(order)
        if hit is not None:
            return hit
        field = self.ring.field
        gens = [_integral(g.coeffs, field)[0] for g in self.gens]
        pairs = buchberger_dicts(gens, order, field.characteristic)
        gb = ReducedGB(self.ring, order, pairs)
        with self._lock:
            self._cache.setdefault(order, gb)
        return gb

    def seed_cache(self, gb: ReducedGB) -> "Ideal":
        with self._lock:
            self._cache.setdefault(gb.order, gb)
        return self

    def lt_ideal(self, order: TermOrder | None = None) -> MonomialIdeal:
        """Leading-term ideal: generated by the basis leading terms."""
        return self.groebner(order).lt_ideal()

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().reduce(f).is_zero()

    def contains_one(self) -> bool:
        """The unit ideal's reduced basis is 1 alone, for every ordering."""
        return self.groebner().lt_exps == ((0,) * self.ring.nvars,)

    def equals(self, other: "Ideal") -> bool:
        """Ideal equality: the reduced monic basis of an ideal is unique."""
        same_ring(self.ring, other.ring)
        return self.groebner() == other.groebner()

    def is_zero_dimensional(self) -> bool:
        """Finiteness criterion: every variable has a pure power among the
        leading terms."""
        return self.lt_ideal().is_zero_dimensional()

    def quotient_basis(self, order: TermOrder | None = None) -> list[tuple[int, ...]]:
        """`ReducedGB.quotient_basis` of the ordering's basis, as a new list."""
        return list(self.groebner(order).quotient_basis())

    def multiplicity(self) -> int:
        """Vector-space dimension of the quotient ring."""
        return len(self.quotient_basis())

    def __add__(self, other: "Ideal") -> "Ideal":
        same_ring(self.ring, other.ring)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        same_ring(self.ring, other.ring)
        return Ideal(self.ring, [f * g for f in self.gens for g in other.gens])

    def eliminate(self, var_indices) -> "Ideal":
        """Intersection with the subring omitting the given variables, each
        given by name or by index (`PolyRing.var_index`)."""
        block = sorted({self.ring.var_index(v) for v in var_indices})
        if not block:
            return self
        order = elimination_order(self.ring.nvars, block)
        gb = self.groebner(order)
        keep = [
            g
            for g in gb.elements
            if not (g.variables_used() & set(block))
        ]
        return Ideal(self.ring, keep)

    def intersect(self, other: "Ideal") -> "Ideal":
        """Tag-variable intersection: eliminate t from t*I + (1-t)*J."""
        same_ring(self.ring, other.ring)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        ring = self.ring
        tag = "t_"
        while tag in ring.vars:
            tag += "_"
        big = ring.extend([tag])
        ti = big.nvars - 1

        def lift(p: Polynomial) -> Polynomial:
            return Polynomial(big, {e + (0,): c for e, c in p.coeffs.items()})

        t = big.var(ti)
        one = big.one()
        gens = [t * lift(f) for f in self.gens]
        gens += [(one - t) * lift(g) for g in other.gens]
        meet = Ideal(big, gens).eliminate([ti])
        return Ideal(
            ring,
            [Polynomial(ring, {e[:-1]: c for e, c in g.coeffs.items()}) for g in meet.gens],
        )

    def colon(self, other: "Ideal") -> "Ideal":
        """The ideal quotient {g : g * other ⊆ self}."""
        same_ring(self.ring, other.ring)
        if other.is_zero():
            raise ZeroIdealDivisor("colon by the zero ideal")
        result: Ideal | None = None
        for f in other.gens:
            meet = self.intersect(Ideal(self.ring, [f]))
            part = Ideal(self.ring, [divide_exact(h, f) for h in meet.gens])
            result = part if result is None else result.intersect(part)
        return result

    def univariate_in(self, i: int) -> Polynomial:
        """Monic generator of the intersection with K[x_i], for a
        zero-dimensional ideal: FGLM in x_i alone over the normal forms of
        the cached degrevlex basis, so the first power of x_i whose normal
        form depends on the lower ones leads the eliminant, that dependence.
        i is checked by `PolyRing.var_index`."""
        i = self.ring.var_index(i)
        gb = self.groebner()
        p = self.ring.field.characteristic

        def power(k):
            return (0,) * i + (k,) + (0,) * (self.ring.nvars - 1 - i)

        [(_, coeffs)], _ = basis_from_functionals(
            lex(1), p, lambda t, below, j: gb.nf_coords(power(t[0]))
        )
        return kernel_poly(self.ring, {power(e[0]): c for e, c in coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        inner = ", ".join(g.to_str() for g in self.gens) or "0"
        return f"Ideal({inner})"


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f / g; raises when the division leaves a remainder."""
    same_ring(f.ring, g.ring)
    if g.is_zero():
        raise ZeroIdealDivisor("division by the zero polynomial")
    ring = f.ring
    order = ring.default_order()
    g_lt, g_lc = g.leading_term(order)
    # degrevlex puts g_lt at g's top degree, so work never exceeds deg f
    rank = order.rank_key(f.total_degree())
    work = dict(f.coeffs)
    quot: dict = {}
    while work:
        t = max(work, key=rank)
        if not tdivides(g_lt, t):
            raise InvariantViolation("inexact polynomial division")
        c = work[t] / g_lc
        shift = tdiv(t, g_lt)
        quot[shift] = c
        for e, c2 in g.coeffs.items():
            key = tuple(map(add, e, shift))
            val = work[key] - c * c2 if key in work else -(c * c2)
            if val:
                work[key] = val
            else:
                del work[key]
    return Polynomial(ring, quot)
