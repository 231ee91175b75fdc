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
from .linalg import basis_from_functionals
from .monomials import MonomialIdeal
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


def _spoly_dict(f_lt, f_lc, f, g_lt, g_lc, g) -> dict:
    """S-polynomial of two nonzero polynomials given as dicts."""
    l = tlcm(f_lt, g_lt)
    out: dict = {}
    one = f_lc / f_lc
    _dict_sub_scaled(out, f, tdiv(l, f_lt), -(one / f_lc))
    _dict_sub_scaled(out, g, tdiv(l, g_lt), one / g_lc)
    return out


def buchberger_dicts(gens, order: TermOrder, use_criteria: bool = True):
    """Reduced monic basis (as dicts) of the ideal the dicts generate."""
    okey = order.key
    G: list[dict] = []
    lts: list[tuple] = []
    lcs: list = []
    for g in gens:
        if g:
            G.append(dict(g))
            lt = max(g, key=okey)
            lts.append(lt)
            lcs.append(g[lt])
    queue: list = []
    counter = 0
    for j in range(len(G)):
        for i in range(j):
            l = tlcm(lts[i], lts[j])
            heappush(queue, ((tdeg(l), okey(l)), counter, i, j, l))
            counter += 1
    done: set[frozenset] = set()
    while queue:
        _, _, i, j, l = heappop(queue)
        done.add(frozenset((i, j)))
        if use_criteria:
            if tcoprime(lts[i], lts[j]):
                continue
            if any(
                k not in (i, j)
                and tdivides(lts[k], l)
                and frozenset((i, k)) in done
                and frozenset((j, k)) in done
                for k in range(len(G))
            ):
                continue
        s = _spoly_dict(lts[i], lcs[i], G[i], lts[j], lcs[j], G[j])
        r = _reduce_dict(s, list(zip(lts, lcs, G)), okey, tail=False)
        if r:
            lt = max(r, key=okey)
            G.append(r)
            lts.append(lt)
            lcs.append(r[lt])
            new = len(G) - 1
            for k in range(new):
                l2 = tlcm(lts[k], lt)
                heappush(queue, ((tdeg(l2), okey(l2)), counter, k, new, l2))
                counter += 1
    # minimalize: keep only elements whose leading term no other divides
    keep = []
    for i in range(len(G)):
        if not any(
            j != i
            and tdivides(lts[j], lts[i])
            and (lts[j] != lts[i] or j < i)
            for j in range(len(G))
        ):
            keep.append(i)
    kept = [(lts[i], lcs[i], G[i]) for i in keep]
    # full tail interreduction against the fixed set of leading terms
    reduced = []
    for idx, (lt, lc, g) in enumerate(kept):
        others = [kept[k] for k in range(len(kept)) if k != idx]
        tailpart = dict(g)
        del tailpart[lt]
        r = _reduce_dict(tailpart, others, okey, tail=True)
        one = lc / lc
        out = {e: c / lc for e, c in r.items()}
        out[lt] = one
        reduced.append((lt, out))
    reduced.sort(key=lambda pair: okey(pair[0]))
    return [poly for _, poly in reduced]


class ReducedGB:
    """The unique reduced monic basis of an ideal for one ordering,
    elements sorted by increasing leading term.  A zero-dimensional basis
    fills its quotient basis and normal forms on first use, deterministically."""

    __slots__ = ("ring", "order", "elements", "lt_exps", "_index", "_nf")

    def __init__(self, ring: PolyRing, order: TermOrder, elements):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self.lt_exps = tuple(g.leading_term(order)[0] for g in self.elements)
        self._index: dict[tuple, int] | None = None
        self._nf: dict[tuple, tuple] = {}

    def lt_key(self) -> tuple:
        """Canonical identity of the leading-term ideal."""
        return tuple(sorted(self.lt_exps))

    def lt_ideal(self) -> MonomialIdeal:
        return MonomialIdeal(self.ring.nvars, self.lt_exps)

    def _reducers(self):
        out = []
        for g, lt in zip(self.elements, self.lt_exps):
            out.append((lt, g.coeffs[lt], g.coeffs))
        return out

    def reduce(self, f: Polynomial) -> Polynomial:
        """Full normal form of f against this basis, the unique remainder:
        no remainder term is divisible by any basis leading term."""
        if f.ring != self.ring:
            raise RingMismatch(f"{f.ring} vs {self.ring}")
        r = _reduce_dict(f.coeffs, self._reducers(), self.order.key, tail=True)
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
        """Coordinates of the normal form of x^exp in `quotient_basis`,
        cached; racing fills store equal tuples."""
        vec = self._nf.get(exp)
        if vec is None:
            field = self.ring.field
            row = [field.zero()] * len(self.quotient_basis())
            nf = _reduce_dict({exp: field.one()}, self._reducers(), self.order.key)
            for e, c in nf.items():
                row[self._index[e]] = c
            vec = self._nf.setdefault(exp, tuple(row))
        return vec

    def change_order(self, order: TermOrder) -> "ReducedGB":
        """The reduced basis of the same zero-dimensional ideal for another
        ordering, by FGLM over the normal-form coordinates of this one."""
        ring = self.ring
        elements, _ = basis_from_functionals(
            order, ring.field.one(), lambda t, below, i: self.nf_coords(t)
        )
        return ReducedGB(ring, order, [Polynomial(ring, d) for d in elements])

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
        return result if result is not None else Ideal(self.ring, [])

    def univariate_in(self, i: int) -> Polynomial:
        """Monic generator of the intersection with K[x_i]."""
        others = [j for j in range(self.ring.nvars) if j != i]
        elim = self.eliminate(others)
        if not elim.gens:
            raise NotZeroDimensional(
                f"no univariate element in {self.ring.vars[i]}"
            )
        best = min(elim.gens, key=lambda g: g.degree_in(i))
        order = self.ring.default_order()
        return best.monic(order)

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
