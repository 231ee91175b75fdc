"""Coefficient field arithmetic and embedding properties."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbfan import GF, QQ, PolyRing, parse_field
from gbfan.errors import DivisionByZero, FieldMismatch, ParseError
from gbfan.field import GFElement, is_prime


def test_rational_arith_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 2) - Fraction(1, 3) == Fraction(1, 6)
    assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
    assert Fraction(1) / Fraction(4) == Fraction(1, 4)


def test_prime_field_arith_examples():
    F3 = GF(3)
    assert F3.from_int(2) * F3.from_int(2) == F3.from_int(1)
    F5 = GF(5)
    inv2 = F5.one() / F5.from_int(2)
    assert inv2 == F5.from_int(3)
    assert F5.from_int(2) * inv2 == F5.one()


def test_division_by_zero():
    F5 = GF(5)
    with pytest.raises(DivisionByZero):
        F5.one() / F5.zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GF(3).one() + GF(5).one()
    with pytest.raises(FieldMismatch):
        Fraction(1) + GF(3).one()


def test_residues_canonical():
    F5 = GF(5)
    assert F5.from_int(7).val == 2
    assert F5.from_int(-1).val == 4
    assert (-F5.from_int(2)).val == 3
    assert str(F5.from_int(12)) == "2"


def test_from_int_examples():
    assert QQ.from_int(4) == Fraction(4)
    assert GF(3).from_int(4) == GF(3).from_int(1)
    assert GF(5).from_int(0) == GF(5).zero()


def test_parse_field():
    assert parse_field("QQ") is QQ or parse_field("QQ") == QQ
    assert parse_field("GF(7)").characteristic == 7
    with pytest.raises(ParseError):
        parse_field("GF(6)")
    with pytest.raises(ParseError):
        parse_field("RR")
    with pytest.raises(ParseError):
        parse_field("GF(²)")  # a digit that int() does not read


def test_primality():
    primes = {2, 3, 5, 7, 11, 13, 1009, 2**31 - 1}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in (0, 1, 4, 9, 1001, 2**31 - 3))


def test_strong_pseudoprime_and_word_size_bound():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin for bases 2, 3, 5, 7
    with pytest.raises(ParseError):
        GF(3215031751)
    largest = 2**64 - 59  # the largest prime below 2^64
    assert GF(largest).p == largest
    with pytest.raises(ParseError):
        GF(2**64 + 13)  # prime, but not machine-word sized


def test_rational_parse_and_print():
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.parse("-2") == Fraction(-2)
    assert PolyRing(QQ, ("x",)).const(Fraction(-8, 3)).to_str() == "-8/3"
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    assert QQ.parse(" -3/4 ") == Fraction(-3, 4) and QQ.parse("1_0/3") == Fraction(10, 3)
    # the literal syntax of GF(p): no decimal point, no exponent
    for text in ("1.5", "1e1", ".5", "1.", "1/-2", "1 /2", "1/", "/2", "x", ""):
        with pytest.raises(ParseError, match="bad rational literal"):
            QQ.parse(text)


def test_prime_field_parses_ratios():
    # a/b in QQ's shapes reads as a * b^-1 mod p
    F = GF(7)
    assert F.parse("1/2") == F.from_int(4)
    assert F.parse(" -3/4 ") == F.parse("+1") == F.from_int(1)
    assert F.parse("1_0/3") == F.from_int(1)
    with pytest.raises(ParseError, match="zero denominator"):
        F.parse("1/14")
    for text in ("1/-2", "1 /2", "1.5", "1/", "/2", "x", ""):
        with pytest.raises(ParseError, match=r"bad GF\(7\) literal"):
            F.parse(text)


_small = st.integers(min_value=-30, max_value=30)


@given(_small, _small, _small, st.sampled_from([2, 3, 5, 7]))
def test_field_axioms_gf(a, b, c, p):
    F = GF(p)
    x, y, z = F.from_int(a), F.from_int(b), F.from_int(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == F.zero()
    if y:
        assert y * (F.one() / y) == F.one()


@given(_small, _small, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_field_axioms_qq(a, b, d1, d2):
    x, y = Fraction(a, d1), Fraction(b, d2)
    assert x + y == y + x
    assert x * y == y * x
    if y:
        assert (x / y) * y == x


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40), st.sampled_from([2, 5, 0]))
def test_from_int_is_semiring_hom(a, b, p):
    field = GF(p) if p else QQ
    assert field.from_int(a + b) == field.from_int(a) + field.from_int(b)
    assert field.from_int(a * b) == field.from_int(a) * field.from_int(b)


def test_gf_elements_hashable_and_iterable():
    F5 = GF(5)
    assert len({e for e in F5.elements()}) == 5
    assert GFElement(7, 5) == GFElement(2, 5)
    assert hash(GFElement(7, 5)) == hash(GFElement(2, 5))
