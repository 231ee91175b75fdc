"""Polynomials: parsing, printing, leading terms, shifts, factor-closed."""

from fractions import Fraction
from random import Random

import pytest

from gbfan import GF, QQ, Ideal, LinearShift, PolyRing, TermOrder, deglex, degrevlex, lex
from gbfan.errors import FieldMismatch, ParseError, RingMismatch, ZeroPolynomial
from gbfan.random_ideals import random_linear_shift

from conftest import fring, qring


def test_parse_and_print_roundtrip(rxy):
    for text in [
        "x^2 + x*y + y^2",
        "x - 1",
        "-x + 1",
        "2*x*y^2 - 1/2*y + 5/6",
        "0",
        "1",
        "x^5 + 2*x^3 + 4/3*y^2 + x + 4/3*y - 8/3",
    ]:
        f = rxy.parse(text)
        assert rxy.parse(f.to_str()) == f


def test_canonical_printing(rxy):
    o = lex(2)
    f = rxy.parse("y^2 + x^2 - x*y")
    assert f.to_str(o) == "x^2 - x*y + y^2"
    assert rxy.parse("-x - 1").to_str(o) == "-x - 1"
    assert rxy.parse("(4/3)*y - x").to_str(o) == "-x + 4/3*y"
    assert rxy.zero().to_str() == "0"


def test_print_gf_residues():
    R = PolyRing(GF(3), ("x", "y"))
    # -1 normalizes to 2 and prints with plus separators only
    f = R.parse("y^2 - x*y - y")
    assert f.to_str(lex(2)) == "2*x*y + y^2 + 2*y"


def test_int_coefficients_map_into_the_field():
    # a GF(5) ideal gets a GF(5) basis, and QQ arithmetic stays exact
    R = PolyRing(GF(5), "xy")
    gb = Ideal(R, [R.poly({(1, 0): 3, (0, 0): 1})]).groebner()
    assert gb.elements == (R.parse("x + 2"),)
    assert R.const(7) == R.parse("2") and R.poly({(1, 0): 5}).is_zero()
    f = PolyRing(QQ, "xy").poly({(1, 0): 3, (0, 0): 1}).monic(degrevlex(2))
    assert f.coeffs == {(1, 0): 1, (0, 0): Fraction(1, 3)}
    assert all(type(c) is Fraction for c in f.coeffs.values())


@pytest.mark.parametrize(
    "field, c",
    [(QQ, 0.5), (GF(5), Fraction(1, 2)), (GF(5), GF(7).one()), (QQ, GF(7).one())],
    ids=["float", "fraction-in-gf", "other-prime", "gf-in-qq"],
)
def test_foreign_coefficients_are_rejected(field, c):
    R = PolyRing(field, "xy")
    with pytest.raises(FieldMismatch):
        R.poly({(1, 0): c})
    with pytest.raises(FieldMismatch):
        R.const(c)


def test_parse_rejects_implicit_products(rxy):
    with pytest.raises(ParseError):
        rxy.parse("xy^2")  # unknown variable: explicit '*' is required
    with pytest.raises(ParseError):
        rxy.parse("x + ")
    with pytest.raises(ParseError):
        rxy.parse("x / y")


def test_every_ring_variable_name_parses():
    # PolyRing and the tokenizer share one name rule, so the names a ring
    # accepts are the names its polynomials' text is read back with
    R = PolyRing(QQ, ["α", "β", "x_1"])
    f = R.parse("α^2 - 3/2*α*β + x_1 - β")
    assert f.coeffs == {(2, 0, 0): 1, (1, 1, 0): Fraction(-3, 2), (0, 0, 1): 1, (0, 1, 0): -1}
    assert R.parse(f.to_str()) == f
    for bad in ["1x", "x-y", "x y", ""]:
        with pytest.raises(ParseError, match="bad variable name|at least one"):
            PolyRing(QQ, [bad])
    with pytest.raises(ParseError, match="unexpected character '·'"):
        R.parse("α·β")


def test_integers_take_the_digit_groups_of_field_literals(rxy):
    # the tokenizer reads integers as field literals read them
    assert rxy.parse("1_000*x - y") == rxy.parse("1000*x - y")
    assert rxy.parse("x^1_0 + 2_5/1_0") == rxy.parse("x^10 + 5/2")
    assert rxy.parse("1_000") == rxy.const(QQ.parse("1_000"))
    for bad in ["1__0*x", "1_*x", "x^1_"]:
        with pytest.raises(ParseError, match="trailing input"):
            rxy.parse(bad)


def test_parse_parenthesized_products(rxy):
    f = rxy.parse("(x - 1)*(x - 2)")
    assert f == rxy.parse("x^2 - 3*x + 2")
    g = rxy.parse("(y - 1)*(y - 2)")
    assert g == rxy.parse("y^2 - 3*y + 2")


def test_leading_term_symmetric_poly(rxy):
    f = rxy.parse("x^2 + x*y + y^2")
    e1, c1 = f.leading_term(lex(2))
    assert e1 == (2, 0) and c1 == QQ.one()
    ylex = TermOrder([[0, 1], [1, 0]])
    e2, _ = f.leading_term(ylex)
    assert e2 == (0, 2)


def test_leading_term_linear(rxy):
    f = rxy.parse("x + y")
    for order in (lex(2), deglex(2), degrevlex(2), TermOrder([[3, 1], [0, 1]])):
        assert f.leading_term(order)[0] == (1, 0)
    with pytest.raises(ZeroPolynomial):
        rxy.zero().leading_term(lex(2))


def test_factor_closed_examples():
    R = qring("x", "y", "z")
    assert R.parse("y*z - z").is_factor_closed()
    assert R.parse("x - 1").is_factor_closed()
    assert not R.parse("x^2 + x*y + y^2").is_factor_closed()
    assert R.zero().is_factor_closed()
    assert R.parse("5").is_factor_closed()


def test_factor_closed_leading_term_is_order_free():
    R = qring("x", "y", "z")
    rng = Random(7)
    orders = [lex(3), deglex(3), degrevlex(3)]
    for _ in range(5):
        first = [rng.randint(1, 6) for _ in range(3)]
        rest = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        orders.append(TermOrder([first] + [r for r in rest] + list(degrevlex(3).rows)))
    for text in ["y*z - z", "x^2*y + x*y + y + 1", "x^3*y^2*z - x*y*z + z - 2"]:
        f = R.parse(text)
        assert f.is_factor_closed()
        lts = {f.leading_term(o)[0] for o in orders}
        assert len(lts) == 1


def test_poly_arith(rxy):
    f = rxy.parse("x + y")
    assert (f - f).is_zero()
    assert rxy.parse("(x-1)*(x-2)") == rxy.parse("x^2 - 3*x + 2")
    assert f + rxy.zero() == f
    with pytest.raises(RingMismatch):
        f + qring("a", "b").parse("a")


def test_lt_multiplicative(rxy):
    rng = Random(3)
    orders = [lex(2), deglex(2), degrevlex(2)]
    polys = [
        rxy.parse(t)
        for t in ("x^2 + x*y + y^2", "x - 1", "y^3 - 2*y + 5", "x*y + 2", "3*x^2*y - y")
    ]
    for _ in range(40):
        f, g = rng.choice(polys), rng.choice(polys)
        o = rng.choice(orders)
        ef, cf = f.leading_term(o)
        eg, cg = g.leading_term(o)
        eh, ch = (f * g).leading_term(o)
        assert eh == tuple(a + b for a, b in zip(ef, eg))
        assert ch == cf * cg


def test_linear_shift_expansion(rxy):
    one = QQ.one()
    shift = LinearShift((one, one), (QQ.from_int(1), QQ.from_int(-2)))
    assert shift.apply(rxy.parse("x^2")) == rxy.parse("x^2 + 2*x + 1")
    f = rxy.parse("x^2 + x*y + y^2")
    assert shift.apply(f) == rxy.parse("(x+1)^2 + (x+1)*(y-2) + (y-2)^2")
    ident = LinearShift((one, one), (QQ.zero(), QQ.zero()))
    assert ident.apply(f) == f


def test_linear_shift_roundtrip_and_lt_invariance():
    R = qring("x", "y")
    rng = Random(11)
    orders = [lex(2), deglex(2), degrevlex(2)]
    polys = ["x^2 + x*y + y^2", "x^3 - 2*x*y + 1", "y^4 - y", "x*y^2 + x - 7"]
    for _ in range(25):
        shift = random_linear_shift(rng, R)
        f = R.parse(rng.choice(polys))
        g = shift.apply(f)
        assert shift.inverse().apply(g) == f
        for o in orders:
            assert g.leading_term(o)[0] == f.leading_term(o)[0]


def test_linear_shift_gf():
    R = fring(5, "x", "y")
    F = R.field
    shift = LinearShift((F.from_int(2), F.from_int(3)), (F.from_int(1), F.from_int(4)))
    f = R.parse("x^2 + y")
    g = shift.apply(f)
    assert shift.inverse().apply(g) == f


def test_linear_shift_entries_are_elements_of_one_field(rxy):
    # a shift has no ring to map an int into, so ints and floats are refused
    # at construction, as is a mix of fields; a field's shift inverts within
    # that field
    for scales, offsets in [
        ((2, 1), (0, 3)),
        ((1, 1), (0, 0)),
        ((0.5, 1.0), (QQ.zero(), QQ.zero())),
        ((QQ.one(), GF(7).one()), (QQ.zero(), QQ.zero())),
        ((GF(5).one(),), (GF(7).one(),)),
    ]:
        with pytest.raises(FieldMismatch):
            LinearShift(scales, offsets)
    shift = LinearShift((QQ.from_int(2), QQ.one()), (QQ.zero(), QQ.from_int(3)))
    inverse = shift.inverse()
    assert inverse.scales == (QQ.parse("1/2"), QQ.one())
    assert inverse.offsets == (QQ.zero(), QQ.from_int(-3))
    f = rxy.parse("x^2*y - 3*x + 1/2")
    assert inverse.apply(shift.apply(f)) == f == shift.apply(inverse.apply(f))
    R = fring(7, "x", "y")
    F = R.field
    shift = LinearShift((F.from_int(2), F.from_int(3)), (F.from_int(1), F.from_int(4)))
    inverse = shift.inverse()
    assert inverse.scales == (F.from_int(4), F.from_int(5))
    g = R.parse("x^3 + 2*x*y - y + 6")
    assert inverse.apply(shift.apply(g)) == g == shift.apply(inverse.apply(g))


def test_linear_shift_field_mismatch(rxy):
    from gbfan.errors import FieldMismatch

    F = GF(5)
    gf_shift = LinearShift((F.one(), F.one()), (F.from_int(1), F.zero()))
    with pytest.raises(FieldMismatch):
        gf_shift.apply(rxy.parse("x + y"))


def test_scale_takes_its_factor_through_element(rxy):
    # an int is mapped into the field; a float or another field's element
    # is refused, so no coefficient leaves the field
    f = rxy.parse("x^2 - 2*y")
    assert f.scale(QQ.parse("1/2")) == rxy.parse("1/2*x^2 - y")
    assert f.scale(-2) == rxy.parse("-2*x^2 + 4*y")
    assert f.scale(0) == rxy.zero()
    for c in (0.5, GF(5).one()):
        with pytest.raises(FieldMismatch):
            f.scale(c)
    with pytest.raises(FieldMismatch):
        LinearShift((0.5, 1), (0, 0)).apply(f)
    R = fring(7, "x")
    assert R.var(0).scale(3) == R.var(0).scale(10) == R.parse("3*x")
    assert R.var(0).scale(7) == R.zero()


def test_evaluate(rxy):
    f = rxy.parse("x^2 - y + 3")
    assert f.evaluate((QQ.from_int(2), QQ.from_int(1))) == QQ.from_int(6)


def _poly_strategy(ring):
    from hypothesis import strategies as st

    def build(items):
        coeffs = {}
        for e1, e2, c in items:
            coeffs[(e1, e2)] = ring.field.from_int(c)
        return ring.poly(coeffs)

    triple = st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-5, max_value=5),
    )
    return st.lists(triple, max_size=5).map(build)


def test_ring_axioms_and_roundtrip_qq():
    from hypothesis import given

    R = qring("x", "y")
    strat = _poly_strategy(R)

    @given(strat, strat, strat)
    def check(f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert R.parse(f.to_str()) == f

    check()


def test_ring_axioms_and_roundtrip_gf5():
    from hypothesis import given

    R = fring(5, "x", "y")
    strat = _poly_strategy(R)

    @given(strat, strat)
    def check(f, g):
        assert f * g == g * f
        assert (f - g) + g == f
        assert R.parse(f.to_str()) == f

    check()


def test_hash_and_eq(rxy):
    a = rxy.parse("x + y")
    b = rxy.parse("y + x")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
