"""Buchberger's algorithm, reduced bases, and ideal arithmetic.

The inner loop works on raw coefficient dicts for speed; the public surface
deals in `Polynomial` and `ReducedGB`.  Intermediate S-polynomial reductions
are top-reductions only; full tail reduction happens once, in the final
interreduction pass, so the output is the unique reduced monic basis.
"""

from __future__ import annotations

import threading
from heapq import heappop, heappush

from .errors import (
    InvariantViolation,
    NotZeroDimensional,
    RingMismatch,
    ZeroIdealDivisor,
)
from .linalg import basis_from_functionals, echelon_reduce
from .monomials import MonomialIdeal, minimalize
from .orderings import TermOrder, elimination_order
from .ring import Polynomial, PolyRing
from .terms import tcoprime, tdeg, tdiv, tdivides, tlcm


def _dict_sub_scaled(acc: dict, other: dict, shift, factor) -> None:
    """acc -= factor * x^shift * other, in place."""
    for e, c in other.items():
        key = tuple(a + b for a, b in zip(e, shift))
        cur = acc.get(key)
        val = -(factor * c) if cur is None else cur - factor * c
        if val:
            acc[key] = val
        elif cur is not None:
            del acc[key]


def _reduce_dict(f: dict, reducers, okey, tail: bool = True) -> dict:
    """Remainder of f modulo the reducers (list of (lt, lc, coeffs)).

    With tail=False, stop as soon as the leading term is irreducible.
    Each term's ordering key is computed once and cached for the max scans.
    """
    work = dict(f)
    keys = {t: okey(t) for t in work}
    kget = keys.__getitem__
    out: dict = {}
    while work:
        t = max(work, key=kget)
        c = work.pop(t)
        for lt, lc, coeffs in reducers:
            if tdivides(lt, t):
                factor = c / lc
                shift = tdiv(t, lt)
                for e2, c2 in coeffs.items():
                    if e2 == lt:
                        continue
                    key = tuple(a + b for a, b in zip(e2, shift))
                    cur = work.get(key)
                    if cur is None:
                        val = -(factor * c2)
                        if val:
                            work[key] = val
                            if key not in keys:
                                keys[key] = okey(key)
                    else:
                        val = cur - factor * c2
                        if val:
                            work[key] = val
                        else:
                            del work[key]
                break
        else:
            out[t] = c
            if not tail:
                out.update(work)
                return out
    return out


def _spoly_dict(f, g) -> dict:
    """S-polynomial of two nonzero polynomials given as (lt, lc, coeffs)."""
    (f_lt, f_lc, f_coeffs), (g_lt, g_lc, g_coeffs) = f, g
    l = tlcm(f_lt, g_lt)
    out: dict = {}
    one = f_lc / f_lc
    _dict_sub_scaled(out, f_coeffs, tdiv(l, f_lt), -(one / f_lc))
    _dict_sub_scaled(out, g_coeffs, tdiv(l, g_lt), one / g_lc)
    return out


def buchberger_dicts(gens, order: TermOrder, use_criteria: bool = True):
    """Reduced monic basis (as dicts) of the ideal the dicts generate.

    Each element, input or nonzero remainder, pairs with every earlier one.
    Pairs go by the total degree of their lcm, then by the ordering on it,
    ties in the order formed.  `use_criteria` skips a pair whose leading
    terms are coprime, or whose lcm a third leading term divides when both
    its pairs with the two are done (the chain criterion).  The first
    element found for each divisibility-minimal leading term is kept, with
    its tail fully reduced.
    """
    okey = order.key
    basis: list[tuple] = []  # (lt, lc, coeffs), the one reducer list
    queue: list = []

    def add(f: dict) -> None:
        lt = max(f, key=okey)
        for old, (old_lt, _, _) in enumerate(basis):
            l = tlcm(old_lt, lt)
            heappush(queue, ((tdeg(l), okey(l)), len(basis), old, l))
        basis.append((lt, f[lt], f))

    for g in gens:
        if g:
            add(dict(g))
    done: set[tuple[int, int]] = set()
    while queue:
        _, j, i, l = heappop(queue)
        done.add((i, j))
        if use_criteria and (
            tcoprime(basis[i][0], basis[j][0])
            or any(
                k not in (i, j)
                and tdivides(lt, l)
                and (min(i, k), max(i, k)) in done
                and (min(j, k), max(j, k)) in done
                for k, (lt, _, _) in enumerate(basis)
            )
        ):
            continue
        r = _reduce_dict(_spoly_dict(basis[i], basis[j]), basis, okey, tail=False)
        if r:
            add(r)
    # the first element found for each divisibility-minimal leading term
    first: dict = {}
    for element in basis:
        first.setdefault(element[0], element)
    minimal = minimalize(first)
    kept = [element for lt, element in first.items() if lt in minimal]
    # no element reduces its own tail: every term met lies below its lt
    out = []
    for lt, lc, f in sorted(kept, key=lambda element: okey(element[0])):
        r = _reduce_dict({e: c for e, c in f.items() if e != lt}, kept, okey)
        monic = {e: c / lc for e, c in r.items()}
        monic[lt] = lc / lc
        out.append(monic)
    return out


def kernel_poly(ring: PolyRing, coeffs: dict) -> Polynomial:
    """A polynomial from a combination computed by `linalg`, whose values
    are residues over GF(p) and field elements over QQ."""
    field = ring.field
    if field.characteristic:
        coeffs = {e: field.from_int(c) for e, c in coeffs.items()}
    return Polynomial(ring, coeffs)


class ReducedGB:
    """The unique reduced monic basis of an ideal for one ordering,
    elements sorted by increasing leading term.  A zero-dimensional basis
    fills its quotient basis and normal forms on first use, deterministically."""

    __slots__ = ("ring", "order", "elements", "lt_exps", "_reducers", "_index", "_nf")

    def __init__(self, ring: PolyRing, order: TermOrder, elements):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self._reducers = [(*g.leading_term(order), g.coeffs) for g in self.elements]
        self.lt_exps = tuple(lt for lt, _, _ in self._reducers)
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
        if f.ring != self.ring:
            raise RingMismatch(f"{f.ring} vs {self.ring}")
        r = _reduce_dict(f.coeffs, self._reducers, self.order.key, tail=True)
        return Polynomial(self.ring, r)

    def quotient_basis(self) -> tuple[tuple[int, ...], ...]:
        """The power products outside the leading-term ideal, ascending in
        the ordering; their classes form a K-basis of the quotient."""
        if self._index is None:
            lt = self.lt_ideal()
            if not lt.is_zero_dimensional():
                raise NotZeroDimensional("quotient basis requires a zero-dimensional ideal")
            terms = sorted(lt.order_ideal(), key=self.order.key)
            self._index = {t: i for i, t in enumerate(terms)}
        return tuple(self._index)

    def nf_coords(self, exp: tuple) -> tuple:
        """Coordinates of the normal form of x^exp in `quotient_basis`, in
        the form `linalg` reduces: residues, ints in [0, p), over GF(p), and
        `Fraction`s over QQ.  Cached; racing fills store equal tuples."""
        vec = self._nf.get(exp)
        if vec is None:
            field = self.ring.field
            p = field.characteristic
            row = [0 if p else field.zero()] * len(self.quotient_basis())
            nf = _reduce_dict({exp: field.one()}, self._reducers, self.order.key)
            for e, c in nf.items():
                row[self._index[e]] = c.val if p else c
            vec = self._nf.setdefault(exp, tuple(row))
        return vec

    def change_order(self, order: TermOrder) -> "ReducedGB":
        """The reduced basis of the same zero-dimensional ideal for another
        ordering, by FGLM over the normal-form coordinates of this one."""
        ring = self.ring
        elements, _ = basis_from_functionals(
            order, ring.field.characteristic, lambda t, below, i: self.nf_coords(t)
        )
        return ReducedGB(ring, order, [kernel_poly(ring, d) for d in elements])

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
            if g.ring != ring:
                raise RingMismatch(f"{g.ring} vs {ring}")
        self.ring = ring
        self.gens = gens
        self._cache: dict[tuple, ReducedGB] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_strings(cls, ring: PolyRing, texts) -> "Ideal":
        return cls(ring, [ring.parse(t) for t in texts])

    def is_zero(self) -> bool:
        return not self.gens

    def groebner(self, order: TermOrder | None = None) -> ReducedGB:
        """The reduced monic basis for the ordering, cached per ordering."""
        if order is None:
            order = self.ring.default_order()
        key = order.canonical()
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        dicts = buchberger_dicts([g.coeffs for g in self.gens], order)
        gb = ReducedGB(self.ring, order, [Polynomial(self.ring, d) for d in dicts])
        with self._lock:
            self._cache.setdefault(key, gb)
        return gb

    def seed_cache(self, gb: ReducedGB) -> "Ideal":
        with self._lock:
            self._cache.setdefault(gb.order.canonical(), gb)
        return self

    def lt_ideal(self, order: TermOrder | None = None) -> MonomialIdeal:
        """Leading-term ideal: generated by the basis leading terms."""
        return self.groebner(order).lt_ideal()

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().reduce(f).is_zero()

    def contains_one(self) -> bool:
        return self.contains(self.ring.one())

    def equals(self, other: "Ideal") -> bool:
        """Ideal equality: the reduced monic basis of an ideal is unique."""
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
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
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return Ideal(self.ring, [f * g for f in self.gens for g in other.gens])

    def eliminate(self, var_indices) -> "Ideal":
        """Intersection with the subring omitting the given variables."""
        block = sorted(set(var_indices))
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
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
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
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
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
        zero-dimensional ideal, read from the normal forms of the cached
        degrevlex basis: the powers 1, x_i, x_i^2, ... are reduced in turn,
        and the first one whose normal form depends on the lower ones leads
        the eliminant, which is that dependence."""
        gb = self.groebner()
        p = self.ring.field.characteristic
        rows: list[tuple] = []
        t = (0,) * self.ring.nvars
        while True:
            pivot, vec, rep = echelon_reduce(rows, gb.nf_coords(t), p, t)
            if pivot is None:
                return kernel_poly(self.ring, rep)
            rows.append((pivot, vec, rep))
            t = t[:i] + (t[i] + 1,) + t[i + 1 :]

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
    if g.is_zero():
        raise ZeroIdealDivisor("division by the zero polynomial")
    ring = f.ring
    order = ring.default_order()
    okey = order.key
    g_lt, g_lc = g.leading_term(order)
    work = dict(f.coeffs)
    quot: dict = {}
    while work:
        t = max(work, key=okey)
        if not tdivides(g_lt, t):
            raise InvariantViolation("inexact polynomial division")
        c = work[t] / g_lc
        shift = tdiv(t, g_lt)
        quot[shift] = c
        _dict_sub_scaled(work, g.coeffs, shift, c)
    return Polynomial(ring, quot)
