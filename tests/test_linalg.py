"""Rational reconstruction of residues."""

from fractions import Fraction
from math import gcd, isqrt
from random import Random

import pytest

from gbfan.linalg import rational_reconstruct


@pytest.mark.parametrize("m", [2**61 - 1, 2**127 - 1, 2**255 - 19])
def test_rational_reconstruct_round_trips_within_the_bound(m):
    rng = Random(m)
    bound = isqrt(m // 2)
    fractions = [Fraction(0), Fraction(1), Fraction(-1), Fraction(bound, 1)]
    fractions += [Fraction(-bound, bound - 1), Fraction(1, bound)]
    while len(fractions) < 200:
        r, s = rng.randint(-bound, bound), rng.randint(1, bound)
        if gcd(r, s) == 1:
            fractions.append(Fraction(r, s))
    for f in fractions:
        a = f.numerator * pow(f.denominator, -1, m) % m
        assert rational_reconstruct(a, m) == f


def test_rational_reconstruct_is_none_outside_the_bound():
    # every residue mod 101 is either some r/s with |r|, s <= 7, which comes
    # back, or no such fraction, which gives None
    m = 101
    small = {}
    for s in range(1, 8):
        for r in range(-7, 8):
            if gcd(r, s) == 1:
                small[r * pow(s, -1, m) % m] = Fraction(r, s)
    assert 0 < len(small) < m
    for a in range(m):
        assert rational_reconstruct(a, m) == small.get(a)
    # a fraction just past the bound of 2^61 - 1
    m = 2**61 - 1
    big = Fraction(isqrt(m // 2) + 2, 3)
    assert rational_reconstruct(big.numerator * pow(3, -1, m) % m, m) is None
