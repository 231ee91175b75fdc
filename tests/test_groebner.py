"""Buchberger, normal forms, quotient bases, and ideal arithmetic."""

import sys
from random import Random

import pytest

from gbfan import (
    Ideal,
    deglex,
    degrevlex,
    divide_exact,
    lex,
    matrix_order,
    weight_order,
)
from gbfan.errors import NotZeroDimensional, RingMismatch, ZeroIdealDivisor
from gbfan.groebner import buchberger_dicts
from gbfan.random_ideals import random_point_set, random_zero_dim_ideal
from gbfan.points import vanishing_ideal
from gbfan.terms import term_str

from conftest import fring, ideal, points, qring


def lac_ideal():
    R = fring(2, "x", "y", "z")
    pts = points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)])
    return R, vanishing_ideal(pts)


def test_buchberger_boolean_points():
    R, I = lac_ideal()
    o = matrix_order([[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # lex y > x > z
    got = {g.to_str(o) for g in I.groebner(o)}
    assert got == {"x^2 + x", "z^2 + z", "y + x + 1", "x*z + z"}
    o2 = lex(3)
    got2 = {g.to_str(o2) for g in I.groebner(o2)}
    assert got2 == {"y^2 + y", "z^2 + z", "x + y + 1", "y*z"}


def test_normal_forms_boolean_points():
    R, I = lac_ideal()
    f = R.parse("y*z + y")
    o1 = matrix_order([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert I.groebner(o1).reduce(f) == R.parse("x + 1")
    assert I.groebner(lex(3)).reduce(f) == R.parse("y")
    for g in I.gens:
        assert I.groebner(o1).reduce(g).is_zero()


def test_buchberger_principal(rxy):
    I = ideal(rxy, "x + y")
    gb = I.groebner(lex(2))
    assert [g.to_str(lex(2)) for g in gb] == ["x + y"]


def test_buchberger_univariate_grid_members(rxy):
    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    gb = I.groebner()
    assert [g.to_str(gb.order) for g in gb] == ["x - 1", "y^2 - 2"]


def test_reducedness_invariants(rxy):
    rng = Random(2)
    R3 = qring("x", "y", "z")
    orders = [lex(3), deglex(3), degrevlex(3), weight_order([3, 1, 2])]
    for _ in range(6):
        I = random_zero_dim_ideal(rng, R3, max_mult=6)
        o = rng.choice(orders)
        gb = I.groebner(o)
        lts = [g.leading_term(o) for g in gb]
        # monic, pairwise non-dividing leading terms, fully reduced tails
        assert all(R3.field.is_one(c) for _, c in lts)
        exps = [e for e, _ in lts]
        for i, e in enumerate(exps):
            for j, d in enumerate(exps):
                if i != j:
                    assert not all(a <= b for a, b in zip(d, e))
        for g in gb:
            for t in g.support():
                if t != g.leading_term(o)[0]:
                    assert not any(all(a <= b for a, b in zip(e, t)) for e in exps)
        # sorted by increasing leading term
        keys = [o.key(e) for e in exps]
        assert keys == sorted(keys)


def test_spolys_reduce_to_zero(rxy):
    rng = Random(9)
    for _ in range(4):
        I = random_zero_dim_ideal(rng, rxy, max_mult=6)
        o = degrevlex(2)
        gb = I.groebner(o)
        els = list(gb.elements)
        for i in range(len(els)):
            for j in range(i):
                ei, ci = els[i].leading_term(o)
                ej, cj = els[j].leading_term(o)
                lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                si = els[i].term_multiple(tuple(a - b for a, b in zip(lcm, ei)), ci ** (-1))
                sj = els[j].term_multiple(tuple(a - b for a, b in zip(lcm, ej)), cj ** (-1))
                assert gb.reduce(si - sj).is_zero()


def test_criteria_do_not_change_output(rxy):
    rng = Random(4)
    for _ in range(5):
        I = random_zero_dim_ideal(rng, rxy, max_mult=7)
        o = rng.choice([lex(2), degrevlex(2)])
        with_criteria = I.groebner(o)
        plain = buchberger_dicts([g.coeffs for g in I.gens], o, use_criteria=False)
        assert [g.coeffs for g in with_criteria.elements] == plain


def test_normal_form_is_idempotent_and_linear(rxy):
    rng = Random(6)
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    gb = I.groebner()
    polys = [rxy.parse(t) for t in ("x^4 + x", "x*y - 2", "y^5 + x^2*y^2 - 1/3")]
    for f in polys:
        r = gb.reduce(f)
        assert gb.reduce(r) == r
    a, b = rxy.field.from_int(3), rxy.field.parse("-2/5")
    f, g = polys[0], polys[1]
    assert gb.reduce(f.scale(a) + g.scale(b)) == gb.reduce(f).scale(a) + gb.reduce(g).scale(b)


def test_leading_term_ideals_symmetric_example(rxy):
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    j1 = I.lt_ideal(lex(2))
    assert j1.gens == frozenset({(2, 0), (1, 2), (0, 3)})
    j2 = I.lt_ideal(matrix_order([[0, 1], [1, 0]]))
    assert j2.gens == frozenset({(0, 2), (2, 1), (3, 0)})


def test_leading_term_ideal_four_points():
    R = qring("x", "y", "z")
    I = vanishing_ideal(points(R, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]))
    got = I.lt_ideal(degrevlex(3))
    assert got.gens == frozenset(
        {(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)}
    )


def test_quotient_basis_and_multiplicity(rxy):
    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    assert [term_str(t, rxy.vars) for t in I.quotient_basis()] == ["1", "y"]
    assert I.multiplicity() == 2
    with pytest.raises(NotZeroDimensional):
        ideal(rxy, "x + y").quotient_basis()


def test_multiplicity_is_order_independent():
    R = qring("x", "y", "z")
    rng = Random(13)
    I = random_zero_dim_ideal(rng, R, max_mult=8)
    sizes = {
        len(I.quotient_basis(o))
        for o in (lex(3), degrevlex(3), deglex(3), weight_order([2, 3, 1]))
    }
    assert len(sizes) == 1


def test_is_zero_dimensional(rxy):
    assert not ideal(rxy, "x + y").is_zero_dimensional()
    assert ideal(rxy, "x^2 - 1", "y^3").is_zero_dimensional()
    assert ideal(rxy, "1").is_zero_dimensional()
    assert ideal(rxy, "x - 7", "y").is_zero_dimensional()


def test_ideal_sum_product(rxy):
    ix = ideal(rxy, "x")
    iy = ideal(rxy, "y")
    assert (ix + iy).groebner(lex(2)).lt_key() == ((0, 1), (1, 0))
    assert (ix * iy).equals(ideal(rxy, "x*y"))
    zero = Ideal(rxy, [])
    assert (ix + zero).equals(ix)
    assert (ix * zero).is_zero()


def test_intersection_examples(rxy):
    meet = ideal(rxy, "x").intersect(ideal(rxy, "y"))
    assert meet.equals(ideal(rxy, "x*y"))
    I = ideal(rxy, "x^2 - 1", "y")
    assert I.intersect(ideal(rxy, "1")).equals(I)
    assert I.intersect(Ideal(rxy, [])).is_zero()


def test_colon_examples(rxy):
    J = ideal(rxy, "x^2*y")
    assert J.colon(ideal(rxy, "x")).equals(ideal(rxy, "x*y"))
    assert J.colon(ideal(rxy, "1")).equals(J)
    with pytest.raises(ZeroIdealDivisor):
        J.colon(Ideal(rxy, []))


def test_elimination_examples(rxy):
    I = ideal(rxy, "x - y", "y^2")
    got = I.eliminate([1])
    assert got.equals(ideal(rxy, "x^2"))
    assert I.eliminate([]) is I


def test_elimination_brute_force_oracle():
    # least-degree monic univariate vanishing on the x-coordinates {0, 1}
    from itertools import product

    R = fring(2, "x", "y", "z")
    I = vanishing_ideal(points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)]))
    F = R.field
    xs = {F.from_int(1), F.from_int(0)}
    oracle = None
    for degree in range(1, 4):
        for tail in product(range(2), repeat=degree):
            coeffs = {(degree, 0, 0): F.one()}
            for k, c in enumerate(tail):
                if c:
                    coeffs[(k, 0, 0)] = F.from_int(c)
            candidate = R.poly(coeffs)
            if all(not candidate.evaluate((x, F.zero(), F.zero())) for x in xs):
                oracle = candidate
                break
        if oracle is not None:
            break
    assert oracle == R.parse("x^2 + x")
    got = I.eliminate([1, 2])
    assert got.equals(Ideal(R, [oracle]))


def test_membership_and_equality(rxy):
    I = ideal(rxy, "x^2 - y", "y^2 - 1")
    for g in I.gens:
        assert I.contains(g)
    assert not I.contains(rxy.parse("x"))
    assert I.equals(ideal(rxy, "y^2 - 1", "x^2 - y"))
    with pytest.raises(RingMismatch):
        I.equals(ideal(qring("a", "b"), "a"))


def test_divide_exact(rxy):
    f = rxy.parse("(x - 1)*(x^2 + y)")
    assert divide_exact(f, rxy.parse("x - 1")) == rxy.parse("x^2 + y")


def test_univariate_in(rxy):
    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    assert I.univariate_in(0) == rxy.parse("x - 1")
    assert I.univariate_in(1) == rxy.parse("y^2 - 2")


def test_groebner_cache_shared_between_equivalent_orders(rxy):
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3")
    a = I.groebner(matrix_order([[1, 1], [1, 0]]))
    b = I.groebner(matrix_order([[2, 2], [3, 1]]))  # same ordering, scaled/mixed
    assert a is b


def test_cached_bases_generate_the_same_ideal(rxy):
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    gb_a = I.groebner(lex(2))
    gb_b = I.groebner(degrevlex(2))
    # membership both ways between the two cached bases
    for g in gb_a:
        assert gb_b.reduce(g).is_zero()
    for g in gb_b:
        assert gb_a.reduce(g).is_zero()
    for g in I.gens:
        assert gb_a.reduce(g).is_zero() and gb_b.reduce(g).is_zero()


def test_concurrent_groebner_calls_share_cache(rxy):
    """Threads racing on one ideal's basis cache each get the basis a fresh
    ideal computes, and every distinct order is cached once (deglex and
    degrevlex are one order in two variables)."""
    from concurrent.futures import ThreadPoolExecutor

    gens = ("x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    orders = [lex(2), deglex(2), degrevlex(2), weight_order([4, 1]), weight_order([1, 3])]
    I = ideal(rxy, *gens)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(I.groebner, orders * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for order, gb in zip(orders * 4, results):
        assert gb == ideal(rxy, *gens).groebner(order)
    assert len(I._cache) == len({o.canonical() for o in orders}) == 4


def test_gb_over_gf5_points():
    R = fring(5, "x", "y")
    rng = Random(21)
    pts = random_point_set(rng, R, 6)
    I = vanishing_ideal(pts)
    assert I.multiplicity() == 6
    for g in I.groebner(lex(2)):
        assert all(not g.evaluate(p) for p in pts)
