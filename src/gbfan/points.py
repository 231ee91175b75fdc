"""Ideals of points, grids, distractions, staircases, and complements.

The vanishing ideal of a finite point set comes from the Buchberger-Möller
elimination: `linalg.basis_from_functionals` reduces the evaluation vectors
of terms, taken in increasing order, and produces the reduced basis and the
quotient basis in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CharacteristicTooSmall,
    ComplementarityCertificateFailed,
    DomainError,
    DuplicatePoint,
    EmptyPointSet,
    FactorProductMismatch,
    NotContaining,
    NotGrid,
    NotSubset,
    NotZeroDimensional,
    ParseError,
    RationalsNotFinite,
    RepeatedConstant,
    RepeatedRoot,
    RingMismatch,
    SpecTooShort,
)
from .field import PrimeField, nat_embed
from .groebner import Ideal, ReducedGB
from .linalg import basis_from_functionals
from .monomials import MonomialIdeal
from .orderings import TermOrder
from .ring import LinearShift, Polynomial, PolyRing


@dataclass(frozen=True)
class PointSet:
    """Pairwise distinct points with coordinates in the ring's field."""

    ring: PolyRing
    points: tuple

    def __init__(self, ring: PolyRing, points):
        pts = tuple(tuple(p) for p in points)
        n = ring.nvars
        for p in pts:
            if len(p) != n:
                raise ParseError(f"point {p} has {len(p)} coordinates, expected {n}")
        if len(set(pts)) != len(pts):
            raise DuplicatePoint("points must be pairwise distinct")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return tuple(p) in set(self.points)

    def subset_of(self, other: "PointSet") -> bool:
        return set(self.points) <= set(other.points)


def ideal_of_points(pts: PointSet, order: TermOrder | None = None):
    """Reduced basis and quotient basis of the vanishing ideal.

    This is `linalg.basis_from_functionals` on evaluation vectors: the
    vector of x_i*t is the vector of t times the i-th coordinate column, so
    each term costs one product per point and only the vectors of terms
    not yet taken are held.
    """
    if not pts.points:
        raise EmptyPointSet("ideal of points needs at least one point")
    ring = pts.ring
    if order is None:
        order = ring.default_order()
    field = ring.field
    points = pts.points
    coord_vecs = [tuple(p[i] for p in points) for i in range(ring.nvars)]

    def evaluations(t, below, i):
        if below is None:
            return tuple(field.one() for _ in points)
        return tuple(a * b for a, b in zip(below, coord_vecs[i]))

    elements, quotient = basis_from_functionals(order, field.one(), evaluations)
    gb = ReducedGB(ring, order, [Polynomial(ring, d) for d in elements])
    return gb, quotient


def vanishing_ideal(pts: PointSet) -> Ideal:
    """The vanishing ideal as an `Ideal`, with its degrevlex basis cached."""
    gb, _ = ideal_of_points(pts)
    return Ideal(pts.ring, gb.elements).seed_cache(gb)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """One univariate generator per variable, factored (roots) or opaque."""

    ring: PolyRing
    entries: tuple  # per variable: ("roots", tuple) | ("poly", Polynomial)

    @classmethod
    def from_roots(cls, ring: PolyRing, roots_per_var) -> "GridSpec":
        roots_per_var = [tuple(r) for r in roots_per_var]
        if len(roots_per_var) != ring.nvars:
            raise ParseError("need one root tuple per variable")
        if any(not r for r in roots_per_var):
            raise ParseError("every variable needs at least one root")
        return cls(ring, tuple(("roots", r) for r in roots_per_var))

    @classmethod
    def from_polys(cls, ring: PolyRing, polys) -> "GridSpec":
        polys = list(polys)
        if len(polys) != ring.nvars:
            raise ParseError("need one univariate polynomial per variable")
        entries = []
        for i, g in enumerate(polys):
            if g.is_zero() or g.variables_used() - {i}:
                raise ParseError(
                    f"generator {i} must be univariate in {ring.vars[i]}"
                )
            if g.degree_in(i) < 1:
                raise ParseError(f"generator {i} must have positive degree")
            entries.append(("poly", g.monic(ring.default_order())))
        return cls(ring, tuple(entries))

    def degrees(self) -> tuple[int, ...]:
        out = []
        for i, (kind, data) in enumerate(self.entries):
            out.append(len(data) if kind == "roots" else data.degree_in(i))
        return tuple(out)

    def generator(self, i: int) -> Polynomial:
        kind, data = self.entries[i]
        if kind == "poly":
            return data
        ring = self.ring
        x = ring.var(i)
        g = ring.one()
        for c in data:
            g = g * (x - ring.const(c))
        return g

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
        axes = []
        for kind, roots in self.entries:
            if len(set(roots)) != len(roots):
                raise RepeatedRoot("repeated root in a grid axis")
            axes.append(roots)
        pts = [()]
        for axis in axes:
            pts = [p + (c,) for p in pts for c in axis]
        return PointSet(self.ring, pts)

    def socle_term(self) -> tuple[int, ...]:
        """The product of x_i^(d_i - 1)."""
        return tuple(d - 1 for d in self.degrees())

    def multiplicity(self) -> int:
        m = 1
        for d in self.degrees():
            m *= d
        return m

    def quotient_terms(self) -> list[tuple[int, ...]]:
        """Divisors of the socle term: the unique quotient basis."""
        lt = MonomialIdeal(
            self.ring.nvars,
            [
                tuple(d if j == i else 0 for j in range(self.ring.nvars))
                for i, d in enumerate(self.degrees())
            ],
        )
        return lt.order_ideal()


def maximal_grid(ideal: Ideal) -> GridSpec:
    """The grid of monic univariate generators of the ideal's intersections
    with each K[x_i]; the largest grid ideal inside the ideal."""
    if not ideal.is_zero_dimensional():
        raise NotZeroDimensional("maximal grid requires a zero-dimensional ideal")
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
        prod = ring.one()
        for f in fs:
            prod = prod * f
        if prod.monic(order) != spec.generator(i).monic(order):
            raise FactorProductMismatch(
                f"factors for {ring.vars[i]} do not multiply to the generator"
            )
    components = [[]]
    for fs in factors_per_var:
        components = [c + [f] for c in components for f in fs]
    return [Ideal(ring, c) for c in components]


# ---------------------------------------------------------------------------
# distractions and staircases


def distraction_spec(ring: PolyRing, tuples) -> tuple:
    """Validate per-variable constant tuples: entries pairwise distinct."""
    tuples = tuple(tuple(t) for t in tuples)
    if len(tuples) != ring.nvars:
        raise ParseError("need one constant tuple per variable")
    for t in tuples:
        if len(set(t)) != len(t):
            raise RepeatedConstant("distraction tuple entries must be distinct")
    return tuples


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
    """Distraction of a monomial ideal: distract each minimal generator.

    The generators are the reduced basis for every term ordering, so the
    resulting ideal has a one-cone fan.
    """
    pi = distraction_spec(ring, pi)
    gens = [distraction_term(ring, t, pi) for t in mono.sorted_gens()]
    return Ideal(ring, gens)


def natural_distraction(ring: PolyRing, mono: MonomialIdeal) -> Ideal:
    """Distraction by consecutive naturals 0, 1, 2, ... per variable."""
    degrees = [0] * ring.nvars
    for g in mono.gens:
        for i, e in enumerate(g):
            degrees[i] = max(degrees[i], e)
    p = ring.field.characteristic
    if p and p < max(degrees, default=0):
        raise CharacteristicTooSmall(
            f"naturals 0..{max(degrees) - 1} collide in characteristic {p}"
        )
    pi = [tuple(nat_embed(k, ring.field) for k in range(d)) for d in degrees]
    return distraction_ideal(ring, mono, pi)


def staircase(ring: PolyRing, mono: MonomialIdeal) -> PointSet:
    """The points whose coordinates are the exponent vectors of the order
    ideal, embedded through the natural map into the field."""
    terms = mono.order_ideal()
    p = ring.field.characteristic
    if p:
        top = max((max(t) for t in terms), default=0)
        if p <= top:
            raise CharacteristicTooSmall(
                f"exponent {top} does not embed distinctly in characteristic {p}"
            )
    pts = [tuple(nat_embed(e, ring.field) for e in t) for t in terms]
    return PointSet(ring, pts)


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
    if first.ring != grid.ring:
        raise RingMismatch(f"{first.ring} vs {grid.ring}")
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
    if grid_points.ring != subset.ring:
        raise RingMismatch(f"{subset.ring} vs {grid_points.ring}")
    coords = list(zip(*grid_points.points))
    axis_values = [set(c) for c in coords]
    size = 1
    for vals in axis_values:
        size *= len(vals)
    if size != len(grid_points):
        raise NotGrid("points do not form a full Cartesian grid")
    if not subset.points:
        raise NotSubset("the subset must be nonempty")
    if not subset.subset_of(grid_points):
        raise NotSubset("second point set is not inside the grid")
    first = vanishing_ideal(subset)
    chosen = set(subset.points)
    rest = [p for p in grid_points.points if p not in chosen]
    if rest:
        second = vanishing_ideal(PointSet(grid_points.ring, rest))
    else:
        second = Ideal(grid_points.ring, [grid_points.ring.one()])
    return first, second
