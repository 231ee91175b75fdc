"""Ideals of points, grids, distractions, staircases, and complements.

The vanishing ideal of a finite point set comes from the Buchberger-Möller
elimination: `linalg.basis_from_functionals` reduces the evaluation vectors
of terms, taken in increasing order, and produces the reduced basis and the
quotient basis in one pass.  It runs on residues modulo p over GF(p), and
fraction-free on integers over QQ, where exact elimination gives the reduced
basis with no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import (
    ComplementarityCertificateFailed,
    DomainError,
    DuplicatePoint,
    EmptyPointSet,
    FactorProductMismatch,
    NotContaining,
    NotGrid,
    NotSubset,
    ParseError,
    RationalsNotFinite,
    RepeatedConstant,
    RepeatedRoot,
    SpecTooShort,
)
from .field import PrimeField, nat_images
from .groebner import Ideal, ReducedGB
from .linalg import basis_from_functionals
from .monomials import MonomialIdeal
from .orderings import TermOrder
from .ring import LinearShift, Polynomial, PolyRing, same_ring


@dataclass(frozen=True)
class PointSet:
    """Pairwise distinct points with coordinates in the ring's field, each
    taken through `PolyRing.element`, as are the coordinates of a probe."""

    ring: PolyRing
    points: tuple

    def __init__(self, ring: PolyRing, points):
        pts = tuple(tuple(map(ring.element, p)) for p in points)
        n = ring.nvars
        for p in pts:
            if len(p) != n:
                raise ParseError(
                    f"point {point_row(p)} has {len(p)} coordinates, expected {n}"
                )
        # not a field, so eq, hash and repr see only ring and points
        object.__setattr__(self, "_members", frozenset(pts))
        if len(self._members) != len(pts):
            p = next(p for i, p in enumerate(pts) if p in pts[:i])
            raise DuplicatePoint(
                f"duplicate points: {point_row(p)} is listed more than once"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return tuple(map(self.ring.element, p)) in self._members

    def subset_of(self, other: "PointSet") -> bool:
        return self._members <= other._members


def point_row(point) -> str:
    """A point as a row of a point file, coordinates printed with `str`:
    `1/2,0,-3`."""
    return ",".join(map(str, point))


def ideal_of_points(pts: PointSet, order: TermOrder | None = None):
    """Reduced basis and quotient basis of the vanishing ideal.

    This is `linalg.basis_from_functionals` on evaluation vectors: the
    vector of x_i*t is the vector of t times the i-th coordinate column, so
    each term costs one product per point and only the vectors of terms
    not yet taken are held.  Coordinates enter as the field's `kernel`
    gives them: residues over GF(p); over QQ, an int for an integral
    coordinate and a `Fraction` otherwise, so the vectors of a set of
    integer points hold only ints, and the kernel eliminates fraction-free.
    """
    ring = pts.ring
    order = ring.term_order(order)
    if not pts.points:
        raise EmptyPointSet("ideal of points needs at least one point")
    field = ring.field
    p = field.characteristic
    coord_vecs = [tuple(map(field.kernel, column)) for column in zip(*pts.points)]
    ones = (1,) * len(pts.points)

    def evaluations(t, below, i):
        if below is None:
            return ones
        if p:
            return tuple(a * b % p for a, b in zip(below, coord_vecs[i]))
        return tuple(a * b for a, b in zip(below, coord_vecs[i]))

    pairs, quotient = basis_from_functionals(order, p, evaluations)
    return ReducedGB(ring, order, pairs), quotient


def vanishing_ideal(pts: PointSet) -> Ideal:
    """The vanishing ideal as an `Ideal`, with its degrevlex basis cached."""
    gb, _ = ideal_of_points(pts)
    return Ideal(pts.ring, gb.elements).seed_cache(gb)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """One univariate generator per variable, factored (roots) or opaque.
    Every constructor checks the entries here; it stores roots as field
    elements, through `PolyRing.element`, and poly entries monic."""

    ring: PolyRing
    entries: tuple  # per variable: ("roots", tuple) | ("poly", Polynomial)

    def __post_init__(self):
        ring = self.ring
        if len(self.entries) != ring.nvars:
            raise ParseError("need one grid entry per variable")
        entries = []
        for i, (kind, data) in enumerate(self.entries):
            if kind == "roots":
                data = tuple(map(ring.element, data))
                if not data:
                    raise ParseError(f"no roots for {ring.vars[i]}")
            elif data.variables_used() != {i}:
                raise ParseError(
                    f"{ring.vars[i]} entry must be univariate of positive degree"
                )
            else:
                data = data.monic(ring.default_order())
            entries.append((kind, data))
        object.__setattr__(self, "entries", tuple(entries))

    @classmethod
    def from_roots(cls, ring: PolyRing, roots_per_var) -> "GridSpec":
        return cls(ring, tuple(("roots", r) for r in roots_per_var))

    @classmethod
    def from_polys(cls, ring: PolyRing, polys) -> "GridSpec":
        return cls(ring, tuple(("poly", g) for g in polys))

    def degrees(self) -> tuple[int, ...]:
        return tuple(
            len(data) if kind == "roots" else data.degree_in(i)
            for i, (kind, data) in enumerate(self.entries)
        )

    def generator(self, i: int) -> Polynomial:
        kind, data = self.entries[i]
        if kind == "poly":
            return data
        ring, x = self.ring, self.ring.var(i)
        return prod((x - ring.const(c) for c in data), start=ring.one())

    def generators(self) -> list[Polynomial]:
        return [self.generator(i) for i in range(self.ring.nvars)]

    def ideal(self) -> Ideal:
        return Ideal(self.ring, self.generators())

    def is_factored(self) -> bool:
        return all(kind == "roots" for kind, _ in self.entries)

    def points(self) -> PointSet:
        """The Cartesian product of the roots (full design)."""
        if not self.is_factored():
            raise DomainError("grid points need the factored form")
        axes = [roots for _, roots in self.entries]
        if any(len(set(roots)) != len(roots) for roots in axes):
            raise RepeatedRoot("repeated root in a grid axis")
        return PointSet(self.ring, product(*axes))

    def socle_term(self) -> tuple[int, ...]:
        """The product of x_i^(d_i - 1)."""
        return tuple(d - 1 for d in self.degrees())

    def multiplicity(self) -> int:
        return prod(self.degrees())

    def quotient_terms(self) -> list[tuple[int, ...]]:
        """Divisors of the socle term, ascending: the unique quotient basis."""
        return list(product(*map(range, self.degrees())))


def maximal_grid(ideal: Ideal) -> GridSpec:
    """The grid of monic univariate generators of the ideal's intersections
    with each K[x_i]; the largest grid ideal inside the ideal.

    Zero-dimensional proper ideals only: each generator is read from the
    normal forms of the cached degrevlex basis (`Ideal.univariate_in`), so
    Buchberger runs once; that basis's `quotient_basis` is the
    zero-dimensionality check.
    """
    if ideal.contains_one():
        raise DomainError("the unit ideal contains no grid ideal")
    ring = ideal.ring
    return GridSpec.from_polys(
        ring, [ideal.univariate_in(i) for i in range(ring.nvars)]
    )


def field_equation_grid(ring: PolyRing) -> GridSpec:
    """The grid x_i^p - x_i whose roots are the whole prime field."""
    if not isinstance(ring.field, PrimeField):
        raise RationalsNotFinite("field equations need a finite field")
    roots = tuple(ring.field.elements())
    return GridSpec.from_roots(ring, [roots] * ring.nvars)


def grid_primary_components(spec: GridSpec, factors_per_var) -> list[Ideal]:
    """Component ideals from caller-supplied factorizations.

    factors_per_var[i] lists univariate polynomials multiplying to the
    grid generator in x_i (primary powers kept whole); the components are
    all cross-variable combinations.
    """
    ring = spec.ring
    factors_per_var = [list(fs) for fs in factors_per_var]
    if len(factors_per_var) != ring.nvars:
        raise ParseError("need one factor list per variable")
    order = ring.default_order()
    for i, fs in enumerate(factors_per_var):
        if prod(fs, start=ring.one()).monic(order) != spec.generator(i):
            raise FactorProductMismatch(
                f"factors for {ring.vars[i]} do not multiply to the generator"
            )
    return [Ideal(ring, c) for c in product(*factors_per_var)]


# ---------------------------------------------------------------------------
# distractions and staircases


def distraction_term(ring: PolyRing, exp, pi) -> Polynomial:
    """Product over i of (x_i - c_i1)...(x_i - c_i,e_i)."""
    exp = tuple(exp)
    out = ring.one()
    for i, e in enumerate(exp):
        if e > len(pi[i]):
            raise SpecTooShort(
                f"tuple for {ring.vars[i]} has {len(pi[i])} entries, need {e}"
            )
        x = ring.var(i)
        for k in range(e):
            out = out * (x - ring.const(pi[i][k]))
    return out


def distraction_ideal(ring: PolyRing, mono: MonomialIdeal, pi) -> Ideal:
    """Distraction of a monomial ideal: distract each minimal generator by
    pi, one tuple of pairwise distinct constants per variable, each entry
    an int or an element of the ring's field, compared in the field.

    The generators are the reduced basis for every term ordering, so the
    resulting ideal has a one-cone fan.
    """
    pi = tuple(tuple(map(ring.element, t)) for t in pi)
    if len(pi) != ring.nvars:
        raise ParseError("need one constant tuple per variable")
    if any(len(set(t)) != len(t) for t in pi):
        raise RepeatedConstant("distraction tuple entries must be distinct")
    gens = [distraction_term(ring, t, pi) for t in sorted(mono.gens)]
    return Ideal(ring, gens)


def natural_distraction(ring: PolyRing, mono: MonomialIdeal) -> Ideal:
    """Distraction by consecutive naturals 0, 1, 2, ... per variable."""
    degrees = [max((g[i] for g in mono.gens), default=0) for i in range(ring.nvars)]
    nats = nat_images(max(degrees, default=0), ring.field)
    return distraction_ideal(ring, mono, [nats[:d] for d in degrees])


def staircase(ring: PolyRing, mono: MonomialIdeal) -> PointSet:
    """The points whose coordinates are the exponent vectors of the order
    ideal, embedded through the natural map into the field."""
    terms = mono.order_ideal()
    nats = nat_images(max(map(max, terms), default=0) + 1, ring.field)
    return PointSet(ring, [tuple(nats[e] for e in t) for t in terms])


def shift_ideal(ideal: Ideal, shift: LinearShift) -> Ideal:
    """Image of the ideal under an invertible per-variable affine map."""
    return Ideal(ideal.ring, [shift.apply(g) for g in ideal.gens])


# ---------------------------------------------------------------------------
# complementary ideals


@dataclass(frozen=True)
class ComplementCertificate:
    """Outcome of the complementary-ideal identity checks."""

    intersection_ok: bool
    sum_is_unit: bool
    colon_back_ok: bool
    grid_multiplicity: int
    multiplicity_1: int
    multiplicity_2: int

    @property
    def multiplicity_ok(self) -> bool:
        return self.grid_multiplicity == self.multiplicity_1 + self.multiplicity_2

    @property
    def ok(self) -> bool:
        return (
            self.intersection_ok
            and self.sum_is_unit
            and self.colon_back_ok
            and self.multiplicity_ok
        )


def complementary_pair(spec: GridSpec, first: Ideal):
    """The colon complement of `first` inside the grid, certified.

    Returns (second, certificate); raises when the certificate fails,
    which happens exactly when `first` is not a union of primary
    components of the grid ideal.
    """
    grid = spec.ideal()
    same_ring(first.ring, grid.ring)
    if not all(first.contains(g) for g in grid.gens):
        raise NotContaining("the grid ideal must be contained in the input ideal")
    second = grid.colon(first)
    cert = ComplementCertificate(
        intersection_ok=grid.equals(first.intersect(second)),
        sum_is_unit=(first + second).contains_one(),
        colon_back_ok=first.equals(grid.colon(second)),
        grid_multiplicity=spec.multiplicity(),
        multiplicity_1=first.multiplicity(),
        multiplicity_2=second.multiplicity(),
    )
    if not cert.ok:
        raise ComplementarityCertificateFailed(
            f"complementarity identities failed: {cert}"
        )
    return second, cert


def subset_complement_ideals(grid_points: PointSet, subset: PointSet):
    """Vanishing ideals of a subset of a full grid and of its complement."""
    same_ring(subset.ring, grid_points.ring)
    if prod(len(set(c)) for c in zip(*grid_points.points)) != len(grid_points):
        raise NotGrid("points do not form a full Cartesian grid")
    if not subset.points:
        raise NotSubset("the subset must be nonempty")
    if not subset.subset_of(grid_points):
        raise NotSubset("second point set is not inside the grid")
    first = vanishing_ideal(subset)
    rest = [p for p in grid_points.points if p not in subset._members]
    if rest:
        second = vanishing_ideal(PointSet(grid_points.ring, rest))
    else:
        second = Ideal(grid_points.ring, [grid_points.ring.one()])
    return first, second
