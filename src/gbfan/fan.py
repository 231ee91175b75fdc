"""Gröbner fan enumeration restricted to the nonnegative weight orthant.

Two independent routes compute the fan:

* `enumerate_fan` walks marked reduced bases across shared facets from the
  degrevlex basis.  A facet already flipped from its other side is matched
  by that flip's interior point, with no LP; any other facet is flipped to
  the basis for an ordering whose first row is a facet-interior weight and
  whose second row points across the facet, by FGLM from the start basis
  (`ReducedGB.change_order`) for a zero-dimensional ideal, and by
  Buchberger for any other ideal.
* `fan_oracle_zerodim` never flips: it enumerates all basic sets (order
  ideals whose normal-form matrix is invertible) with the exact echelon
  kernel of `linalg` (the same one that Buchberger-Möller uses).  The
  walk's echelon rows carry term representations, so each corner term's
  normal form reduces through the rows of its basic set to the candidate
  reduced basis element; the oracle keeps the candidates realizable by a
  strictly positive weight vector.

Both routes read the normal forms of the ideal's one cached degrevlex basis
(`ReducedGB.nf_coords`), so each monomial is reduced once for both.

A marked basis fixes its cone, which `MarkedBasis.cone` builds with
`cone_of_marked` on first use; the oracle builds none.  Cones are
deduplicated by leading-term ideal, which is also what the fan size
counts: a single reduced basis can span several cones when different
markings of the same polynomials are realizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cones import Cone, marking_realizable, strict_positive_solution
from .errors import (
    BoundExceeded,
    InconsistentMarking,
    InvariantViolation,
    NotZeroDimensional,
    DimensionMismatch,
    ZeroIdeal,
)
from .groebner import Ideal, ReducedGB
from .linalg import echelon_reduce, primitive_vector
from .monomials import MonomialIdeal
from .orderings import TermOrder, degrevlex, weight_order
from .ring import Polynomial


def marking_vectors(elements, markings):
    """Difference vectors lt - t' over every element and support term."""
    out = []
    for g, lt in zip(elements, markings):
        for exp in g.coeffs:
            if exp != lt:
                out.append(tuple(a - b for a, b in zip(lt, exp)))
    return out


def cone_of_marked(elements, markings, nvars: int) -> Cone:
    """Canonical cone of a marked basis; the marking must be achievable by
    a strictly positive weight vector."""
    for g, lt in zip(elements, markings):
        if tuple(lt) not in g.coeffs:
            raise InconsistentMarking(f"marked term not in support of {g!r}")
    vecs = marking_vectors(elements, markings)
    if not marking_realizable(vecs, nvars):
        raise InconsistentMarking("no positive weight realizes this marking")
    return Cone.from_vectors(vecs, nvars)


@dataclass(frozen=True)
class MarkedBasis:
    """A reduced basis marked by its own ordering, and the cone it fixes."""

    basis: ReducedGB

    @cached_property
    def cone(self) -> Cone:
        gb = self.basis
        return cone_of_marked(gb.elements, gb.lt_exps, gb.ring.nvars)

    def identity(self):
        """Equality key; the leading terms fix the marking, so also the cone."""
        return (self.basis.lt_key(), frozenset(self.basis.elements))


class GroebnerFan:
    """All marked reduced bases of an ideal, one per leading-term ideal."""

    def __init__(self, ring, cones):
        self.ring = ring
        self.cones = tuple(sorted(cones, key=lambda mb: mb.basis.lt_key()))

    @property
    def size(self) -> int:
        return len(self.cones)

    def lt_ideals(self) -> list[MonomialIdeal]:
        return [mb.basis.lt_ideal() for mb in self.cones]

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerFan)
            and self.ring == other.ring
            and tuple(mb.identity() for mb in self.cones)
            == tuple(mb.identity() for mb in other.cones)
        )

    def __hash__(self):
        return hash((self.ring, tuple(mb.identity() for mb in self.cones)))


def flip_order(weight, crossing, n: int) -> TermOrder:
    """Ordering for the neighbor across a facet: the facet-interior weight
    first, then the crossing direction, completed by degrevlex."""
    w = primitive_vector(weight)
    rows = [list(w), [-x for x in crossing]]
    rows += [list(r) for r in degrevlex(n).rows]
    return TermOrder(rows, "flip")


def enumerate_fan(ideal: Ideal) -> GroebnerFan:
    """All distinct leading-term ideals with reduced bases and cones.

    Runs on any nonzero ideal.  Every walked cone is full-dimensional, so
    each of its irredundant facets meets the open orthant and has a flip
    weight there, which a flipped facet keeps.  Facet v of a new cone is
    matched, with no LP and no flip, when the cone contains a weight kept
    for -v: the fan is polyhedral, so the cone that flipped -v is the
    neighbor.  For a zero-dimensional ideal a neighbor comes by FGLM from
    the start basis; for any other ideal, by Buchberger in the flip
    ordering.  Only zero-dimensional fans have `fan_oracle_zerodim` as an
    independent check.
    """
    if ideal.is_zero():
        raise ZeroIdeal("the zero ideal has no Gröbner fan")
    n = ideal.ring.nvars
    start = ideal.groebner()
    zero_dim = start.lt_ideal().is_zero_dimensional()
    visited: dict[tuple, MarkedBasis] = {}
    flipped: dict[tuple, list[tuple]] = {}
    stack: list[ReducedGB] = [start]
    while stack:
        gb = stack.pop()
        key = gb.lt_key()
        if key in visited:
            continue
        visited[key] = MarkedBasis(gb)
        cone = visited[key].cone
        for v in cone.ineqs:
            across = tuple(-x for x in v)
            if any(cone.contains(w) for w in flipped.get(across, ())):
                continue
            w = cone.facet_interior_point(v)
            if w is None:
                raise InvariantViolation(f"facet {v} misses the open orthant")
            flipped.setdefault(v, []).append(w)
            order = flip_order(w, v, n)
            neighbor = start.change_order(order) if zero_dim else ideal.groebner(order)
            if neighbor.lt_key() not in visited:
                stack.append(neighbor)
    return GroebnerFan(ideal.ring, visited.values())


def unique_gb_fast_check(ideal: Ideal) -> bool:
    """Exact test for a one-cone fan: the reduced basis of any single
    ordering consists of factor-closed polynomials iff the reduced basis
    is the same for every ordering."""
    return all(g.is_factor_closed() for g in ideal.groebner().elements)


def gfan_number(ideal: Ideal) -> int:
    """Number of cones (equivalently, leading-term ideals)."""
    if ideal.is_zero():
        raise ZeroIdeal("the zero ideal has no Gröbner fan")
    if unique_gb_fast_check(ideal):
        return 1
    return enumerate_fan(ideal).size


def fan_equal(f1: GroebnerFan, f2: GroebnerFan) -> bool:
    """Equality of the two cone subdivisions (bases are ignored)."""
    if f1.ring.nvars != f2.ring.nvars:
        raise DimensionMismatch("fans live in different dimensions")
    return {mb.cone for mb in f1} == {mb.cone for mb in f2}


def gbasic_sets(fan: GroebnerFan) -> list[list[tuple[int, ...]]]:
    """Per cone, the order ideal complementary to its leading-term ideal."""
    return [sorted(mb.basis.quotient_basis()) for mb in fan.cones]


def minimal_models(f: Polynomial, ideal: Ideal) -> set[Polynomial]:
    """Normal forms of f across every cone of the fan, deduplicated."""
    if not ideal.is_zero_dimensional():
        raise NotZeroDimensional("model selection requires a zero-dimensional ideal")
    return {mb.basis.reduce(f) for mb in enumerate_fan(ideal)}


def _candidate_terms(n: int, s: int) -> list[tuple[int, ...]]:
    """Exponents whose divisor closure fits inside an order ideal of size
    s: divisor count <= s (which also caps each exponent at s - 1)."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, count):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        e = 0
        while count * (e + 1) <= s:
            rec(prefix + [e], count * (e + 1))
            e += 1

    rec([], 1)
    out.sort(key=lambda t: (sum(t), t))
    return out


def _basic_sets_data(gb: ReducedGB, bound: int):
    """Yield (order_ideal, corner_terms, rows) for every basic set.

    A branch is extended only while the normal-form vectors stay linearly
    independent, so every completed order ideal of full size is basic.
    Each candidate is reduced with its term as representation, so `rows`
    are the basic set's echelon rows and each row knows the combination of
    terms it stands for.
    """
    s = len(gb.quotient_basis())
    if s > bound:
        raise BoundExceeded(f"multiplicity {s} exceeds the bound {bound}")
    nvars = gb.ring.nvars
    one = gb.ring.field.one()
    origin = (0,) * nvars
    candidates = _candidate_terms(nvars, s)

    def divisors_present(t, chosen):
        for i in range(nvars):
            if t[i]:
                below = t[:i] + (t[i] - 1,) + t[i + 1 :]
                if below not in chosen:
                    return False
        return True

    def corners(chosen):
        border = {origin}
        for t in chosen:
            for i in range(nvars):
                border.add(t[:i] + (t[i] + 1,) + t[i + 1 :])
        return sorted(u for u in border - chosen if divisors_present(u, chosen))

    def walk(start, chosen, rows):
        if len(chosen) == s:
            yield sorted(chosen), corners(chosen), rows
            return
        for idx in range(start, len(candidates)):
            t = candidates[idx]
            if len(candidates) - idx < s - len(chosen):
                break
            if not divisors_present(t, chosen):
                continue
            pivot, vec, rep = echelon_reduce(rows, gb.nf_coords(t), {t: one})
            if pivot is None:
                continue
            chosen.add(t)
            yield from walk(idx + 1, chosen, rows + [(pivot, vec, rep)])
            chosen.remove(t)

    yield from walk(0, set(), [])


def enumerate_basic_sets(ideal: Ideal, bound: int = 12) -> list[list[tuple[int, ...]]]:
    """All order ideals whose residue classes form a vector-space basis of
    the quotient ring."""
    if not ideal.is_zero_dimensional():
        raise NotZeroDimensional("basic sets require a zero-dimensional ideal")
    return [terms for terms, _, _ in _basic_sets_data(ideal.groebner(), bound)]


def fan_oracle_zerodim(ideal: Ideal, bound: int = 12) -> GroebnerFan:
    """Fan computed independently of facet flips, from basic sets.

    A corner term's normal-form vector reduces to zero through the echelon
    rows of its basic set, and its representation is then the candidate
    basis element, the corner minus its normal form in the basic set.  The
    candidate is kept when some strictly positive weight makes every corner
    the leading term.
    """
    if ideal.is_zero():
        raise ZeroIdeal("the zero ideal has no Gröbner fan")
    if not ideal.is_zero_dimensional():
        raise NotZeroDimensional("the oracle requires a zero-dimensional ideal")
    ring = ideal.ring
    one = ring.field.one()
    start = ideal.groebner()
    found: dict[tuple, MarkedBasis] = {}
    for _, corner_terms, rows in _basic_sets_data(start, bound):
        elements = []
        for u in corner_terms:
            _, _, rep = echelon_reduce(rows, start.nf_coords(u), {u: one})
            elements.append(Polynomial(ring, rep))
        vectors = marking_vectors(elements, corner_terms)
        w = strict_positive_solution(vectors, ring.nvars)
        if w is None:
            continue
        order = weight_order(primitive_vector(w))
        pairs = sorted(zip(corner_terms, elements), key=lambda p: order.key(p[0]))
        gb = ReducedGB(ring, order, [g for _, g in pairs])
        if gb.lt_exps != tuple(m for m, _ in pairs):
            raise InvariantViolation("oracle marking disagrees with its ordering")
        key = gb.lt_key()
        if key in found:
            raise InvariantViolation("duplicate leading-term ideal in oracle")
        found[key] = MarkedBasis(gb)
    return GroebnerFan(ring, found.values())
