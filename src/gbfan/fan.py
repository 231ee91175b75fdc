"""Gröbner fan enumeration restricted to the nonnegative weight orthant.

Two independent routes compute the fan:

* `enumerate_fan` walks marked reduced bases across shared facets from the
  degrevlex basis, with no LP.  A facet's weight, the primitive sum of the
  cone's extreme rays on it, is the same from both its sides, so the walk
  keeps the weights that one found cone owns and flips only those: each to
  the basis for an ordering whose first row is that weight and whose second
  row points across the facet, converted from the start basis by
  `ReducedGB.change_order` (FGLM when the ideal is zero-dimensional).
* `fan_oracle_zerodim` never flips: it enumerates all basic sets (order
  ideals whose normal-form matrix is invertible) by a walk that adds one
  candidate term at a time while the normal forms stay independent under
  the exact echelon kernel of `linalg` (the same one Buchberger-Möller
  uses).  Its echelon rows carry term representations, so each corner
  term's normal form reduces to its candidate reduced basis element; the
  oracle keeps the candidates realizable by a strictly positive weight.

Both routes read the normal forms of the ideal's one cached degrevlex basis
(`ReducedGB.nf_coords`), so each monomial is reduced once for both.

A marked basis fixes its cone.  `MarkedBasis` checks that each marked term
leads under the basis's ordering, which some positive weight agrees with on
finitely many terms (Mora-Robbiano 1988), so its cone is full-dimensional.
A caller's marking passed to `cone_of_marked` may not be; then
`Cone.from_vectors` rejects it.  Cones are deduplicated by leading-term
ideal, as the fan size counts: one reduced basis can span several cones
when several of its markings are realizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cones import Cone, strict_positive_solution
from .errors import (
    BoundExceeded,
    InconsistentMarking,
    InvariantViolation,
    NotZeroDimensional,
    DimensionMismatch,
    ZeroIdeal,
)
from .groebner import Ideal, ReducedGB
from .linalg import echelon_reduce
from .monomials import MonomialIdeal
from .orderings import TermOrder, degrevlex, weight_order
from .ring import Polynomial


def marking_vectors(supports, markings):
    """Difference vectors lt - t' over every support and its other terms t'."""
    out = []
    for support, lt in zip(supports, markings):
        for exp in support:
            if exp != lt:
                out.append(tuple(a - b for a, b in zip(lt, exp)))
    return out


def cone_of_marked(elements, markings, nvars: int) -> Cone:
    """Canonical cone of a marked basis.  Marking vectors are never zero, so
    a strictly positive weight realizes the marking exactly when the cone
    is full-dimensional, and `Cone.from_vectors` raises when it is not."""
    if len(elements) != len(markings):
        raise DimensionMismatch(f"{len(elements)} elements with {len(markings)} markings")
    for g, lt in zip(elements, markings):
        if g.ring.nvars != nvars:
            raise DimensionMismatch(f"{g!r} for a cone in {nvars} variables")
        if tuple(lt) not in g.coeffs:
            raise InconsistentMarking(f"marked term not in support of {g!r}")
    vecs = marking_vectors([g.coeffs for g in elements], markings)
    return Cone.from_vectors(vecs, nvars)


@dataclass(frozen=True)
class MarkedBasis:
    """A reduced basis, checked to lead by its own ordering, and its cone."""

    basis: ReducedGB

    def __post_init__(self):
        gb = self.basis
        terms = set().union(*(g.coeffs for g in gb.elements))  # tails share terms
        rank = gb.order.rank_key(max(map(sum, terms), default=0))
        ranks = dict(zip(terms, map(rank, terms)))
        for lt, g in zip(gb.lt_exps, gb.elements):
            if lt != max(g.coeffs, key=ranks.__getitem__):
                raise InvariantViolation(f"marked term of {g!r} does not lead it")

    @cached_property
    def cone(self) -> Cone:
        gb = self.basis
        vecs = marking_vectors([g.coeffs for g in gb.elements], gb.lt_exps)
        return Cone.from_vectors(vecs, gb.ring.nvars)

    def identity(self):
        """Equality key: each element beside its leading term, by leading
        term, which fixes the marking, so also the cone.  No two elements
        share a leading term, so sorting compares no polynomials, and `==`
        compares coefficients without hashing them."""
        gb = self.basis
        return tuple(sorted(zip(gb.lt_exps, gb.elements)))


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
    rows = [list(weight), [-x for x in crossing]]
    rows += [list(r) for r in degrevlex(n).rows]
    return TermOrder(rows, "flip")


def enumerate_fan(ideal: Ideal) -> GroebnerFan:
    """All distinct leading-term ideals with reduced bases and cones.

    Runs on any nonzero ideal.  Every walked cone is full-dimensional, so
    each of its irredundant facets meets the open orthant, and its flip
    weight is `Cone.facet_interior_point`, the primitive sum of its extreme
    rays, with no LP.  The fan is polyhedral, so the two cones that share a
    facet share its rays and its weight.  `unmatched` holds each weight that
    one found cone owns, in the order found; a cone's weight already there is
    matched and dropped.  The newest entry is flipped, and stays until the
    cone across it is added, so every flip reaches a new cone (cones - 1
    flips; `InvariantViolation` otherwise) and the walk ends with every
    facet matched.  Each neighbor is converted from the start basis by
    `ReducedGB.change_order`, so the ideal's cache keeps only that one
    basis.  Only zero-dimensional fans have `fan_oracle_zerodim` as an
    independent check.
    """
    if ideal.is_zero():
        raise ZeroIdeal("the zero ideal has no Gröbner fan")
    n = ideal.ring.nvars
    start = ideal.groebner()
    found: dict[tuple, MarkedBasis] = {}
    unmatched: dict[tuple, tuple] = {}  # facet weight -> its found owner's facet
    gb = start
    while True:
        key = gb.lt_key()
        if key in found:
            raise InvariantViolation(f"a flip reached the found cone of {gb.lt_ideal()}")
        found[key] = mb = MarkedBasis(gb)
        for v in mb.cone.ineqs:
            w = mb.cone.facet_interior_point(v)
            if unmatched.pop(w, None) is None:
                unmatched[w] = v
        if not unmatched:
            return GroebnerFan(ideal.ring, found.values())
        # the newest facet stays unmatched until the cone across it is added
        w, v = next(reversed(unmatched.items()))
        gb = start.change_order(flip_order(w, v, n))


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
    terms = [((), 1)]  # (prefix, divisor count of the prefix)
    for _ in range(n):
        longer = []
        for prefix, count in terms:
            e = 0
            while count * (e + 1) <= s:
                longer.append((prefix + (e,), count * (e + 1)))
                e += 1
        terms = longer
    return sorted((t for t, _ in terms), key=lambda t: (sum(t), t))


def _divisors_present(t, chosen) -> bool:
    """True when every t / x_i, for x_i dividing t, is in chosen."""
    for i, e in enumerate(t):
        if e and t[:i] + (e - 1,) + t[i + 1 :] not in chosen:
            return False
    return True


def _corners(chosen, nvars: int) -> list[tuple[int, ...]]:
    """The minimal terms outside the order ideal chosen, ascending."""
    border = {(0,) * nvars}
    for t in chosen:
        for i in range(nvars):
            border.add(t[:i] + (t[i] + 1,) + t[i + 1 :])
    return sorted(u for u in border - chosen if _divisors_present(u, chosen))


def _walk(gb: ReducedGB, candidates, s: int, represent: bool, start, chosen, rows):
    """Extend the order ideal chosen, with echelon rows `rows`, by the
    candidates from index start on, and yield each basic set completed."""
    if len(chosen) == s:
        yield sorted(chosen), _corners(chosen, gb.ring.nvars), rows
        return
    p = gb.ring.field.characteristic
    # stop where fewer candidates remain than the basic set still needs
    for idx in range(start, len(candidates) - (s - len(chosen)) + 1):
        t = candidates[idx]
        if not _divisors_present(t, chosen):
            continue
        term = t if represent else None
        pivot, vec, rep = echelon_reduce(rows, gb.nf_coords(t), p, term)
        if pivot is None:
            continue
        chosen.add(t)
        extended = rows + [(pivot, vec, rep)]
        yield from _walk(gb, candidates, s, represent, idx + 1, chosen, extended)
        chosen.remove(t)


def _basic_sets_data(gb: ReducedGB, bound: int, represent: bool):
    """Yield (order_ideal, corner_terms, rows) for every basic set.

    A branch is extended only while the normal-form vectors stay linearly
    independent, so every completed order ideal of full size is basic.
    `rows` are the basic set's echelon rows.  With `represent`, each
    candidate is reduced with its term as representation, so each row knows
    the combination of terms it stands for; without it, rows carry None.
    `gb.quotient_basis` is both callers' zero-dimensionality check.
    """
    s = len(gb.quotient_basis())
    if s > bound:
        raise BoundExceeded(f"multiplicity {s} exceeds the bound {bound}")
    yield from _walk(gb, _candidate_terms(gb.ring.nvars, s), s, represent, 0, set(), [])


def enumerate_basic_sets(ideal: Ideal, bound: int = 12) -> list[list[tuple[int, ...]]]:
    """All order ideals whose residue classes form a vector-space basis of
    the quotient ring."""
    sets = _basic_sets_data(ideal.groebner(), bound, represent=False)
    return [terms for terms, _, _ in sets]


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
    ring = ideal.ring
    p = ring.field.characteristic
    start = ideal.groebner()
    found: dict[tuple, MarkedBasis] = {}
    for _, corner_terms, rows in _basic_sets_data(start, bound, represent=True):
        reps = [echelon_reduce(rows, start.nf_coords(u), p, u)[2] for u in corner_terms]
        vectors = marking_vectors(reps, corner_terms)
        w = strict_positive_solution(vectors, ring.nvars)
        if w is None:
            continue
        order = weight_order(w)
        rank = order.rank_key(max(map(sum, corner_terms)))
        pairs = sorted(zip(corner_terms, reps), key=lambda pair: rank(pair[0]))
        gb = ReducedGB(ring, order, pairs)
        key = gb.lt_key()
        if key in found:
            raise InvariantViolation("duplicate leading-term ideal in oracle")
        found[key] = MarkedBasis(gb)
    return GroebnerFan(ring, found.values())
