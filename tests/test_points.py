"""Ideals of points, grids, distractions, staircases, and shifts."""

from random import Random

import pytest

from gbfan import (
    QQ,
    GridSpec,
    Ideal,
    MonomialIdeal,
    PointSet,
    degrevlex,
    distraction_ideal,
    distraction_term,
    field_equation_grid,
    gfan_number,
    grid_primary_components,
    ideal_of_points,
    lex,
    matrix_order,
    maximal_grid,
    natural_distraction,
    shift_ideal,
    staircase,
    vanishing_ideal,
)
from gbfan.errors import (
    CharacteristicTooSmall,
    DomainError,
    DuplicatePoint,
    EmptyPointSet,
    FactorProductMismatch,
    NotZeroDimensional,
    RationalsNotFinite,
    RepeatedConstant,
    RepeatedRoot,
    SpecTooShort,
)
from gbfan.random_ideals import random_point_set, random_zero_dim_monomial_ideal

from conftest import fring, ideal, points, qring


def test_point_set_validation(rxy):
    with pytest.raises(DuplicatePoint):
        points(rxy, [(0, 0), (0, 0)])
    with pytest.raises(EmptyPointSet):
        ideal_of_points(PointSet(rxy, []))


def test_single_point_maximal_ideal(rxyz):
    gb, quotient = ideal_of_points(points(rxyz, [(2, -1, 3)]))
    assert {g.to_str() for g in gb} == {"x - 2", "y + 1", "z - 3"}
    assert quotient == [(0, 0, 0)]


def test_boolean_points_basis():
    R = fring(2, "x", "y", "z")
    pts = points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)])
    o = matrix_order([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    gb, quotient = ideal_of_points(pts, o)
    assert {g.to_str(o) for g in gb} == {"x^2 + x", "z^2 + z", "y + x + 1", "x*z + z"}
    assert len(quotient) == 3


def test_vanishing_and_multiplicity_random():
    rng = Random(14)
    for R in (qring("x", "y"), fring(5, "x", "y", "z")):
        pts = random_point_set(rng, R, 7)
        I = vanishing_ideal(pts)
        assert I.multiplicity() == len(pts)
        for g in I.gens:
            assert all(not g.evaluate(p) for p in pts)


def test_iterated_intersection_oracle(rxy):
    # intersecting the maximal ideals one point at a time must agree
    pts = points(rxy, [(0, 0), (1, 2), (-1, 1), (2, 2)])
    I = vanishing_ideal(pts)
    expected = None
    for p in pts:
        m = Ideal(
            rxy,
            [rxy.var(i) - rxy.const(c) for i, c in enumerate(p)],
        )
        expected = m if expected is None else expected.intersect(m)
    assert I.equals(expected)


def test_grid_ideal_and_points(rxy):
    spec = GridSpec.from_roots(
        rxy,
        [
            [QQ.from_int(i) for i in range(5)],
            [QQ.from_int(i) for i in range(4)],
        ],
    )
    I = spec.ideal()
    assert I.gens[0] == rxy.parse("x*(x-1)*(x-2)*(x-3)*(x-4)")
    assert I.gens[1] == rxy.parse("y*(y-1)*(y-2)*(y-3)")
    assert len(spec.points()) == 20
    assert spec.multiplicity() == 20
    assert I.multiplicity() == 20
    assert spec.socle_term() == (4, 3)


def test_grid_single_point(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.from_int(3)], [QQ.from_int(-1)]])
    assert len(spec.points()) == 1
    assert spec.socle_term() == (0, 0)


def test_grid_repeated_root_rejected(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.one(), QQ.one()], [QQ.zero()]])
    with pytest.raises(RepeatedRoot):
        spec.points()


def test_unfactored_grid_points_rejected_without_repeated_root(rxy):
    spec = GridSpec.from_polys(rxy, [rxy.parse("x^2 - 2"), rxy.parse("y - 1")])
    with pytest.raises(DomainError, match="factored form") as info:
        spec.points()
    assert not isinstance(info.value, RepeatedRoot)


def test_grid_is_its_own_reduced_basis(rxy):
    spec = GridSpec.from_polys(
        rxy, [rxy.parse("x*(x^2+1)^2*(x-1)"), rxy.parse("(y^3-1)*(y+2)")]
    )
    I = spec.ideal()
    for order in (lex(2), degrevlex(2)):
        assert set(I.groebner(order).elements) == set(I.gens)
    assert gfan_number(I) == 1
    assert I.multiplicity() == 24


def test_socle_term_examples(rxy):
    assert GridSpec.from_roots(
        rxy, [[QQ.from_int(i) for i in range(5)], [QQ.from_int(i) for i in range(4)]]
    ).socle_term() == (4, 3)
    R3 = fring(3, "x", "y", "z")
    assert field_equation_grid(R3).socle_term() == (2, 2, 2)


def test_field_equation_grid():
    R = fring(3, "x", "y", "z")
    spec = field_equation_grid(R)
    gens = {g.to_str() for g in spec.generators()}
    assert gens == {"x^3 + 2*x", "y^3 + 2*y", "z^3 + 2*z"}
    assert spec.ideal().multiplicity() == 27
    assert len(spec.points()) == 27
    R1 = fring(2, "x")
    assert field_equation_grid(R1).generator(0) == R1.parse("x^2 + x")
    with pytest.raises(RationalsNotFinite):
        field_equation_grid(qring("x"))


def test_maximal_grid_boolean_points():
    # brute force: the least-degree monic univariate vanishing on {0, 1}
    R = fring(2, "x", "y", "z")
    I = vanishing_ideal(points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)]))
    spec = maximal_grid(I)
    for i in range(3):
        g = spec.generator(i)
        name = R.vars[i]
        assert g == R.parse(f"{name}^2 + {name}")
    with pytest.raises(NotZeroDimensional):
        maximal_grid(ideal(qring("x", "y"), "x + y"))


def test_maximal_grid_of_grid_is_itself(rxy):
    spec = GridSpec.from_polys(rxy, [rxy.parse("x - 1"), rxy.parse("y^2 - 2")])
    I = spec.ideal()
    got = maximal_grid(I)
    assert got.generator(0) == rxy.parse("x - 1")
    assert got.generator(1) == rxy.parse("y^2 - 2")


def test_maximal_grid_divides_any_contained_grid(rxy):
    from gbfan import divide_exact

    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    spec = maximal_grid(I)
    # the ambient grid's generators are multiples of the maximal grid's
    big = [rxy.parse("(x^2+1)*(x-1)*(x-2)"), rxy.parse("(y^2-2)*(y+2)")]
    for i, g in enumerate(big):
        assert spec.ideal().contains(g)
        divide_exact(g, spec.generator(i))


def test_distraction_term_examples(rxy):
    pi = (
        tuple(QQ.from_int(c) for c in (3, 2, 5)),
        tuple(QQ.from_int(c) for c in (2, -1, 3, 12)),
    )
    d1 = distraction_term(rxy, (3, 1), pi)
    assert d1 == rxy.parse("(x-3)*(x-2)*(x-5)*(y-2)")
    d2 = distraction_term(rxy, (2, 4), pi)
    assert d2 == rxy.parse("(x-3)*(x-2)*(y-2)*(y+1)*(y-3)*(y-12)")
    assert distraction_term(rxy, (0, 0), pi) == rxy.one()
    with pytest.raises(SpecTooShort):
        distraction_term(rxy, (4, 0), pi)


def test_distraction_term_gf5():
    R = fring(5, "x", "y")
    F = R.field
    pi = (
        tuple(F.from_int(c) for c in (1, 3, 0)),
        tuple(F.from_int(c) for c in (0, 1, 2, 3)),
    )
    d1 = distraction_term(R, (3, 1), pi)
    assert d1 == R.parse("(x-1)*(x-3)*x*y")
    d2 = distraction_term(R, (2, 4), pi)
    assert d2 == R.parse("(x-1)*(x-3)*y*(y-1)*(y-2)*(y-3)")


def test_distraction_spec_validation(rxy):
    with pytest.raises(RepeatedConstant):
        distraction_ideal(
            rxy,
            MonomialIdeal(2, [(2, 0), (0, 1)]),
            ((QQ.one(), QQ.one()), (QQ.zero(),)),
        )


def test_distraction_ideal_is_vanishing_ideal_of_design(rxy):
    mono = MonomialIdeal(2, [(4, 0), (0, 3), (2, 1), (1, 2)])
    pi = (
        tuple(QQ.parse(c) for c in ("0", "1/5", "2", "-1")),
        tuple(QQ.parse(c) for c in ("0", "1", "2")),
    )
    D = distraction_ideal(rxy, mono, pi)
    pts = points(
        rxy,
        [
            ("0", "0"),
            ("0", "1"),
            ("0", "2"),
            ("1/5", "0"),
            ("1/5", "1"),
            ("2", "0"),
            ("-1", "0"),
        ],
    )
    assert vanishing_ideal(pts).equals(D)
    assert gfan_number(D) == 1
    assert D.multiplicity() == 7


def test_distraction_generators_are_reduced_basis_for_every_order():
    rng = Random(8)
    R = qring("x", "y")
    for _ in range(6):
        mono = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        degrees = [0, 0]
        for g in mono.gens:
            degrees = [max(d, e) for d, e in zip(degrees, g)]
        tuples = []
        for d in degrees:
            vals = rng.sample(range(-6, 7), d)
            tuples.append(tuple(QQ.from_int(v) for v in vals))
        D = distraction_ideal(R, mono, tuples)
        expected = set(D.gens)
        orders = [lex(2), degrevlex(2)]
        for _ in range(3):
            first = [rng.randint(1, 5), rng.randint(1, 5)]
            second = [rng.randint(-3, 3), rng.randint(-3, 3)]
            orders.append(matrix_order([first, second, [1, 1], [0, -1]]))
        for o in orders:
            assert set(D.groebner(o).elements) == expected
        assert gfan_number(D) == 1


def test_simple_distraction(rxy):
    D = distraction_ideal(rxy, MonomialIdeal(2, [(1, 0), (0, 1)]), ((QQ.from_int(4),), (QQ.zero(),)))
    assert {g.to_str() for g in D.gens} == {"x - 4", "y"}


def test_natural_distraction_staircase_generators(rxy):
    mono = MonomialIdeal(2, [(5, 0), (4, 1), (1, 2), (0, 4)])
    D = natural_distraction(rxy, mono)
    expected = {
        rxy.parse("x*(x-1)*(x-2)*(x-3)*(x-4)"),
        rxy.parse("x*(x-1)*(x-2)*(x-3)*y"),
        rxy.parse("x*y*(y-1)"),
        rxy.parse("y*(y-1)*(y-2)*(y-3)"),
    }
    assert set(D.gens) == expected


def test_natural_distraction_univariate():
    R = qring("x")
    D = natural_distraction(R, MonomialIdeal(1, [(2,)]))
    assert D.gens == (R.parse("x*(x-1)"),)


def test_natural_distraction_characteristic_guard():
    R = fring(2, "x", "y")
    with pytest.raises(CharacteristicTooSmall):
        natural_distraction(R, MonomialIdeal(2, [(3, 0), (0, 1)]))
    # max degree equal to p is fine (constants 0..p-1)
    D = natural_distraction(R, MonomialIdeal(2, [(2, 0), (0, 1)]))
    assert set(D.gens) == {R.parse("x*(x-1)"), R.parse("y")}


def test_staircase_block_example(rxyz):
    mono = MonomialIdeal(3, [(2, 0, 0), (1, 1, 2), (0, 2, 0), (0, 0, 3)])
    pts = staircase(rxyz, mono)
    expected = {
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
        (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1),
    }
    got = {tuple(int(str(c)) for c in p) for p in pts}
    assert got == expected
    assert len(pts) == 11


def test_staircase_origin(rxy):
    pts = staircase(rxy, MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert pts.points == ((QQ.zero(), QQ.zero()),)


def test_staircase_characteristic_guard():
    R = fring(3, "x", "y")
    with pytest.raises(CharacteristicTooSmall):
        staircase(R, MonomialIdeal(2, [(4, 0), (0, 1)]))


def test_staircase_vanishing_equals_natural_distraction():
    rng = Random(12)
    R2, R3 = qring("x", "y"), qring("x", "y", "z")
    for _ in range(10):
        n = rng.choice((2, 3))
        R = R2 if n == 2 else R3
        mono = random_zero_dim_monomial_ideal(rng, n, max_degree=4)
        assert vanishing_ideal(staircase(R, mono)).equals(natural_distraction(R, mono))


def test_staircase_union_identity():
    rng = Random(19)
    R = qring("x", "y")
    for _ in range(12):
        m1 = random_zero_dim_monomial_ideal(rng, 2, max_degree=4)
        m2 = random_zero_dim_monomial_ideal(rng, 2, max_degree=4)
        s1 = set(staircase(R, m1).points)
        s2 = set(staircase(R, m2).points)
        meet = set(staircase(R, m1.intersect(m2)).points)
        assert meet == s1 | s2


def test_distraction_intersection_identity():
    rng = Random(25)
    R = qring("x", "y")
    for _ in range(8):
        m1 = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        m2 = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        degrees = [0, 0]
        for g in list(m1.gens) + list(m2.gens):
            degrees = [max(d, e) for d, e in zip(degrees, g)]
        vals = [rng.sample(range(-5, 6), d) for d in degrees]
        pi = [tuple(QQ.from_int(v) for v in row) for row in vals]
        left = distraction_ideal(R, m1.intersect(m2), pi)
        right = distraction_ideal(R, m1, pi).intersect(distraction_ideal(R, m2, pi))
        assert left.equals(right)


def test_shift_ideal_preserves_lt_ideals(rxy):
    from gbfan import enumerate_fan

    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    shift = __import__("gbfan").LinearShift(
        (QQ.one(), QQ.one()), (QQ.from_int(1), QQ.from_int(-2))
    )
    shifted = shift_ideal(I, shift)
    lt1 = {mb.basis.lt_key() for mb in enumerate_fan(I)}
    lt2 = {mb.basis.lt_key() for mb in enumerate_fan(shifted)}
    assert lt1 == lt2
    # monomial ideals are fixed by pure scalings
    mono = ideal(rxy, "x^2", "y")
    scaling = __import__("gbfan").LinearShift(
        (QQ.from_int(3), QQ.from_int(-2)), (QQ.zero(), QQ.zero())
    )
    assert shift_ideal(mono, scaling).equals(mono)
    # round trip
    inv = shift.inverse()
    assert shift_ideal(shift_ideal(I, shift), inv).equals(I)


def test_grid_primary_components(rxy):
    spec = GridSpec.from_polys(
        rxy, [rxy.parse("x*(x^2+1)^2*(x-1)"), rxy.parse("(y^3-1)*(y+2)")]
    )
    fx = [rxy.parse("x"), rxy.parse("(x^2+1)^2"), rxy.parse("x - 1")]
    fy = [rxy.parse("y - 1"), rxy.parse("y^2 + y + 1"), rxy.parse("y + 2")]
    comps = grid_primary_components(spec, [fx, fy])
    assert len(comps) == 9
    expected = {
        frozenset({"x", "y - 1"}),
        frozenset({"x", "y^2 + y + 1"}),
        frozenset({"x", "y + 2"}),
        frozenset({"x - 1", "y - 1"}),
        frozenset({"x - 1", "y^2 + y + 1"}),
        frozenset({"x - 1", "y + 2"}),
        frozenset({"x^4 + 2*x^2 + 1", "y - 1"}),
        frozenset({"x^4 + 2*x^2 + 1", "y^2 + y + 1"}),
        frozenset({"x^4 + 2*x^2 + 1", "y + 2"}),
    }
    got = {frozenset(g.to_str() for g in c.groebner()) for c in comps}
    assert got == expected
    with pytest.raises(FactorProductMismatch):
        grid_primary_components(spec, [[rxy.parse("x")], fy])


def test_grid_components_single_linear_factors(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.zero(), QQ.one()], [QQ.from_int(2)]])
    fx = [rxy.parse("x"), rxy.parse("x - 1")]
    fy = [rxy.parse("y - 2")]
    comps = grid_primary_components(spec, [fx, fy])
    assert len(comps) == 2
    for c in comps:
        assert c.multiplicity() == 1


def test_field_equation_components_vanish_at_all_points():
    R = fring(3, "x", "y", "z")
    spec = field_equation_grid(R)
    F = R.field
    linear = [
        [R.var(i) - R.const(F.from_int(c)) for c in range(3)] for i in range(3)
    ]
    comps = grid_primary_components(spec, linear)
    assert len(comps) == 27
    pts = spec.points().points
    # each component is the maximal ideal of exactly one grid point
    matched = set()
    for c in comps:
        vanish = [p for p in pts if all(not g.evaluate(p) for g in c.gens)]
        assert len(vanish) == 1
        matched.add(vanish[0])
    assert len(matched) == 27
