"""Complementary ideals: certificates, fan equality, socle bijection."""

from math import prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gbfan import (
    GF,
    QQ,
    GridSpec,
    PolyRing,
    complementary_pair,
    enumerate_fan,
    fan_equal,
    gfan_number,
    parse_field,
    subset_complement_ideals,
)
from gbfan.errors import (
    ComplementarityCertificateFailed,
    NotContaining,
    NotGrid,
    NotSubset,
)
from gbfan.points import PointSet

from conftest import fring, ideal, points, qring, socle_bijection_holds


def test_radical_grid_pair(rxy):
    spec = GridSpec.from_polys(
        rxy, [rxy.parse("(x^2+1)*(x-1)*(x-2)"), rxy.parse("(y^2-2)*(y+2)")]
    )
    first = spec.ideal() + ideal(rxy, "x - 1 + y^2 - 2")
    second, cert = complementary_pair(spec, first)
    assert cert.ok
    assert (cert.grid_multiplicity, cert.multiplicity_1, cert.multiplicity_2) == (12, 2, 10)
    assert gfan_number(first) == 1 and gfan_number(second) == 1
    # the product of complementary ideals recovers the grid ideal
    assert (first * second).equals(spec.ideal())
    assert socle_bijection_holds(spec, first, second)
    assert socle_bijection_holds(spec, second, first)


def test_trivial_colon_is_identity(rxy):
    J = ideal(rxy, "x^2 - x", "y^2 - y")
    assert J.colon(ideal(rxy, "1")).equals(J)


def test_not_containing_rejected(rxy):
    spec = GridSpec.from_roots(
        rxy, [[QQ.zero(), QQ.one()], [QQ.zero(), QQ.one()]]
    )
    with pytest.raises(NotContaining):
        complementary_pair(spec, ideal(rxy, "x - 5"))


def test_certificate_failure_reported():
    # x inside <x^2> is not a union of primary components
    R = qring("x")
    spec = GridSpec.from_polys(R, [R.parse("x^2")])
    with pytest.raises(ComplementarityCertificateFailed):
        complementary_pair(spec, ideal(R, "x"))


def test_colon_duality_on_split(rxy):
    spec = GridSpec.from_polys(
        rxy, [rxy.parse("x*(x^2+1)^2*(x-1)"), rxy.parse("(y^3-1)*(y+2)")]
    )
    c1 = ideal(rxy, "x - 1", "y^2 + y + 1")
    c2 = ideal(rxy, "y + 2", "x")
    c3 = ideal(rxy, "y + 2", "x^4 + 2*x^2 + 1")
    first = c1.intersect(c2).intersect(c3)
    second, cert = complementary_pair(spec, first)
    assert cert.ok
    grid = spec.ideal()
    assert grid.colon(second).equals(first)
    assert grid.colon(first).equals(second)
    assert cert.multiplicity_1 == 7 and cert.multiplicity_2 == 17


# (field, grid polynomials in x and y, extra generators of I, whether
# `complementary_pair` certifies I): I is not a union of primary
# components of the grid ideal C in the uncertified cases
GRID_GF7 = ("GF(7)", ("x^2*(x-1)*(x-2)", "y*(y-1)*(y-3)"))
GRID_QQ = ("QQ", ("x^2*(x-1)*(x+2)", "y*(y-1)^2"))
REFLECTION_CASES = [
    (*GRID_GF7, ("x + 2*y + 4",), True),
    (*GRID_GF7, ("5*x + 3*y + 4",), False),
    (*GRID_GF7, ("3*x + 5*y",), False),
    (*GRID_GF7, ("4*y",), True),
    (*GRID_GF7, ("x*y - 1",), True),
    (*GRID_GF7, ("x^2 - y",), True),
    (*GRID_QQ, ("x^2*(x-1)", "(y-1)^2"), True),
    (*GRID_QQ, ("x + y - 1",), False),
    (*GRID_QQ, ("x*y",), False),
    (*GRID_QQ, ("x^2 - y",), False),
]


@pytest.mark.parametrize(
    "field, grid, extra, certified",
    REFLECTION_CASES,
    ids=[f"{field}:{','.join(extra)}" for field, _, extra, _ in REFLECTION_CASES],
)
def test_colon_complement_reflects_beyond_unions_of_components(field, grid, extra, certified):
    # J = C : I for an ideal I above the grid ideal C: the socle bijection
    # holds both ways, I = C : J, and the multiplicities add up to the
    # grid's, whether or not I is a union of primary components
    R = PolyRing(parse_field(field), ("x", "y"))
    spec = GridSpec.from_polys(R, [R.parse(g) for g in grid])
    C = spec.ideal()
    I = C + ideal(R, *extra)
    J = C.colon(I)
    assert socle_bijection_holds(spec, I, J)
    assert socle_bijection_holds(spec, J, I)
    assert I.equals(C.colon(J))
    assert I.multiplicity() + J.multiplicity() == spec.multiplicity()
    if certified:
        second, cert = complementary_pair(spec, I)
        assert cert.ok and second.equals(J)
    else:
        with pytest.raises(ComplementarityCertificateFailed):
            complementary_pair(spec, I)


def test_subset_complement_basic(rxy):
    spec = GridSpec.from_roots(
        rxy,
        [[QQ.from_int(i) for i in range(3)], [QQ.from_int(i) for i in range(2)]],
    )
    X = spec.points()
    Y = points(rxy, [(0, 0), (1, 1)])
    I1, I2 = subset_complement_ideals(X, Y)
    assert I1.multiplicity() == 2
    assert I2.multiplicity() == 4
    assert spec.ideal().colon(I1).equals(I2)
    assert I1.intersect(I2).equals(spec.ideal())
    assert (I1 + I2).contains_one()
    assert fan_equal(enumerate_fan(I1), enumerate_fan(I2))


def test_subset_complement_edge_cases(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.zero(), QQ.one()], [QQ.zero()]])
    X = spec.points()
    _, I2 = subset_complement_ideals(X, X)
    assert I2.contains_one()
    with pytest.raises(NotSubset):
        subset_complement_ideals(X, PointSet(rxy, []))
    with pytest.raises(NotSubset):
        subset_complement_ideals(X, points(rxy, [(7, 7)]))
    with pytest.raises(NotGrid):
        subset_complement_ideals(points(rxy, [(0, 0), (1, 1)]), points(rxy, [(0, 0)]))


def test_grid_minus_grid_has_one_cone(rxy):
    # nested grids: the complement of a sub-grid has a one-cone fan
    outer = GridSpec.from_roots(
        rxy,
        [[QQ.from_int(i) for i in range(4)], [QQ.from_int(i) for i in range(3)]],
    )
    inner = GridSpec.from_roots(
        rxy,
        [[QQ.from_int(0), QQ.from_int(2)], [QQ.from_int(1)]],
    )
    second, cert = complementary_pair(outer, inner.ideal())
    assert cert.ok
    assert gfan_number(second) == 1
    assert second.multiplicity() == 12 - 2


def test_random_radical_pairs_share_fans():
    rng = Random(41)
    for trial in range(6):
        R = qring("x", "y") if trial % 2 else fring(5, "x", "y")
        d1, d2 = rng.randint(2, 3), rng.randint(2, 3)
        xs = rng.sample(range(5), d1)
        ys = rng.sample(range(5), d2)
        spec = GridSpec.from_roots(
            R,
            [
                [R.field.from_int(v) for v in xs],
                [R.field.from_int(v) for v in ys],
            ],
        )
        X = spec.points()
        size = rng.randint(1, len(X) - 1)
        chosen = rng.sample(list(X.points), size)
        I1, I2 = subset_complement_ideals(X, PointSet(R, chosen))
        assert I1.multiplicity() + I2.multiplicity() == spec.multiplicity()
        assert fan_equal(enumerate_fan(I1), enumerate_fan(I2))
        assert socle_bijection_holds(spec, I1, I2)


# Small 3-variable grids, by field and the roots on each axis.
SMALL_GRIDS = [
    (GF(3), ((0, 1), (0, 2), (1, 2))),
    (QQ, ((0, 1, -1), (0, 2), (1, 3))),
]


@st.composite
def _grid_subsets(draw):
    field, roots = draw(st.sampled_from(SMALL_GRIDS))
    size = prod(map(len, roots))
    chosen = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1))
    return field, roots, sorted(chosen)


@settings(max_examples=60, deadline=None)
@given(_grid_subsets())
def test_subset_complements_reflect_staircases(case):
    # a proper nonempty subset of a GF(3) 2x2x2 or a QQ 3x2x2 grid and the
    # rest of the grid: their ideals share a fan, and in every cone each
    # one's standard monomials are the socle reflections of the grid's box
    # terms that are not standard for the other
    field, roots, chosen = case
    R = PolyRing(field, ["x", "y", "z"])
    spec = GridSpec.from_roots(R, [[field.from_int(v) for v in axis] for axis in roots])
    X = spec.points()
    grid = list(X.points)
    I1, I2 = subset_complement_ideals(X, PointSet(R, [grid[i] for i in chosen]))
    assert I1.multiplicity() + I2.multiplicity() == spec.multiplicity()
    assert socle_bijection_holds(spec, I1, I2)
    assert socle_bijection_holds(spec, I2, I1)
