"""The echelon kernel over QQ against plain Fraction elimination, over
GF(p) against plain residue elimination, and the helper that clears a
vector's denominators."""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gbfan.linalg
from gbfan import (
    GF,
    Ideal,
    PointSet,
    PolyRing,
    TermOrder,
    ideal_of_points,
    lex,
    vanishing_ideal,
)
from gbfan.errors import InvalidOrdering
from gbfan.linalg import clear_denominators, echelon_reduce, slot_width

from conftest import packed_slots


def _gauss(rows, vec, term):
    # the reference: one reduction on Fractions, rows kept at their scale,
    # rep starting as the term with coefficient 1
    vec = [Fraction(x) for x in vec]
    rep = {} if term is None else {term: Fraction(1)}
    for pivot, row, row_rep in rows:
        f = vec[pivot] / row[pivot]
        vec = [a - f * b for a, b in zip(vec, row)]
        for e, c in row_rep.items():
            rep[e] = rep.get(e, 0) - f * c
    pivot = next((i for i, x in enumerate(vec) if x), None)
    return pivot, vec, {e: c for e, c in rep.items() if c}


def _primitive(vec):
    d = lcm(*(x.denominator for x in vec))
    ints = [int(x * d) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _combination(coeffs, rows):
    return [sum(c * x for c, x in zip(coeffs, column)) for column in zip(*rows)]


def _positive_multiple(ints, reference) -> Fraction:
    # the q > 0 with ints == q * reference, entry by entry; 0 when none
    pivot = next(i for i, x in enumerate(reference) if x)
    q = Fraction(ints[pivot]) / reference[pivot]
    if q > 0 and all(a == q * b for a, b in zip(ints, reference)):
        return q
    return Fraction(0)


_entries = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=6),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_entries, max_size=6))
def test_clear_denominators_scales_by_the_least_integer(values):
    # ints, Fractions, mixes, negatives and the empty vector: ints is
    # d·values in ints, and no smaller positive multiplier is integral
    ints, d = clear_denominators(values)
    assert type(d) is int and d >= 1
    assert all(type(x) is int for x in ints)
    assert ints == [d * x for x in values]
    assert not any(
        all((m * x).denominator == 1 for x in values) for m in range(1, d)
    )


@st.composite
def _rational_matrices(draw):
    # rows of ints and Fractions, some columns zero throughout, and some
    # rows rational combinations of the rows before them
    ncols = draw(st.integers(min_value=1, max_value=6))
    column = st.integers(min_value=0, max_value=ncols - 1)
    zero = draw(st.sets(column, max_size=ncols - 1))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
            rows.append(_combination(coeffs, rows))
        else:
            rows.append([0 if j in zero else draw(_entries) for j in range(ncols)])
    return rows


@settings(max_examples=300, deadline=None)
@given(_rational_matrices())
def test_qq_kernel_matches_fraction_elimination(matrix):
    # each reduction, with its term tracked, against the reference: equal
    # pivots; nonzero results and their combinations are one positive
    # multiple of the reference's, in ints; relations are equal Fractions
    rows, reference = [], []
    for i, vec in enumerate(matrix):
        term = (i,)
        pivot, reduced, rep = echelon_reduce(rows, vec, 0, term)
        ref_pivot, ref_vec, ref_rep = _gauss(reference, vec, term)
        assert pivot == ref_pivot
        if pivot is None:
            assert not any(reduced)
            assert rep == ref_rep and rep[term] == 1
            assert all(type(c) is Fraction for c in rep.values())
            continue
        assert all(type(x) is int for x in reduced)
        assert all(type(c) is int for c in rep.values())
        q = _positive_multiple(reduced, ref_vec)
        assert q > 0
        assert rep.keys() == ref_rep.keys()
        assert all(rep[e] == q * c for e, c in ref_rep.items())
        rows.append((pivot, reduced, rep))
        reference.append((ref_pivot, ref_vec, ref_rep))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_matches_fraction_elimination(data):
    # integer weight matrices with negative entries, zero and dependent
    # rows: each canonical row is the primitive positive multiple of the
    # row reduced against the rows kept before it
    n = data.draw(st.integers(min_value=1, max_value=4))
    ints = st.integers(min_value=-6, max_value=6)
    positive = st.integers(min_value=1, max_value=6)
    rows = [data.draw(st.lists(positive, min_size=n, max_size=n))]
    for _ in range(data.draw(st.integers(min_value=0, max_value=n + 2))):
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(ints, min_size=len(rows), max_size=len(rows)))
            rows.append(_combination(coeffs, rows))
        else:
            rows.append(data.draw(st.lists(ints, min_size=n, max_size=n)))
    try:
        canon = TermOrder(rows).canonical()
    except InvalidOrdering:
        assume(False)
    kept, expected = [], []
    for row in rows:
        pivot, vec, _ = _gauss(kept, row, None)
        if pivot is not None:
            kept.append((pivot, vec, {}))
            expected.append(_primitive(vec))
            if len(expected) == n:
                break
    assert canon == tuple(expected)
    assert all(type(x) is int for row in canon for x in row)


def _residue_gauss(rows, vec, p, term):
    # the reference: the list elimination over GF(p) that packed rows
    # replaced, on rows (pivot, residues, combination dict) with pivot 1
    rep = None if term is None else {term: 1}
    for pivot, row, row_rep in rows:
        c = vec[pivot]
        if not c:
            continue
        vec = [(x - c * y) % p for x, y in zip(vec, row)]
        if rep is not None:
            for e, coef in row_rep.items():
                val = (rep.get(e, 0) - c * coef) % p
                if val:
                    rep[e] = val
                else:
                    rep.pop(e, None)
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if pivot is not None and vec[pivot] != 1:
        inv = pow(vec[pivot], -1, p)
        vec = [x * inv % p for x in vec]
        if rep is not None:
            rep = {e: x * inv % p for e, x in rep.items()}
    return pivot, vec, rep


_PRIMES = (2, 7, 32003, 2**61 - 1)


@st.composite
def _residue_matrices(draw):
    # (p, rows, track): vectors of length 0 to 8 over GF(p), entries often
    # 0, 1 or p - 1, some rows combinations of the rows before them, and
    # whether the reductions track their terms
    p = draw(st.sampled_from(_PRIMES))
    n = draw(st.integers(min_value=0, max_value=8))
    entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=n + 3))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(map(mul, coeffs, column)) % p for column in zip(*rows)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return p, rows, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(_residue_matrices())
@example((2**61 - 1, [[2**61 - 2] * 8] * 9, True))
@example((32003, [[32002] * 8] * 9, False))
def test_gf_kernel_matches_residue_elimination(case):
    # each reduction against the reference, with and without terms: equal
    # pivots, the packed row unpacks to the reference's row and, with terms,
    # to its combination, one slot per row so far; relations are equal,
    # residues with coefficient 1 on the term
    p, matrix, track = case
    n = len(matrix[0])
    rows, reference = [], []
    for i, vec in enumerate(matrix):
        term = (i,) if track else None
        pivot, packed, rep = echelon_reduce(rows, vec, p, term)
        ref_pivot, ref_vec, ref_rep = _residue_gauss(reference, vec, p, term)
        assert pivot == ref_pivot
        if pivot is None:
            assert packed == 0 and rep == ref_rep
            if track:
                assert rep[term] == 1
                assert all(type(c) is int and 0 < c < p for c in rep.values())
            continue
        k = len(rows)
        slots = packed_slots(packed, n + k + 1 if track else n, n, p)
        assert slots[:n] == ref_vec and rep == term
        if track:
            combination = dict(zip([t for _, _, t in rows] + [term], slots[n:]))
            assert {e: c for e, c in combination.items() if c} == ref_rep
        rows.append((pivot, packed, rep))
        reference.append((ref_pivot, ref_vec, ref_rep or {}))


@pytest.mark.parametrize("p", _PRIMES)
def test_the_largest_lazy_sums_carry_into_no_slot(p):
    # row j is e_q + (p - 1)·(e_0 + ... + e_(q-1)), q = n - 1 - j, and the
    # vector's entry at each pivot reads 1 when its row comes, so every step
    # adds the most it can, (p - 1) times the row, and slot 0 takes them
    # all: it passes 2^(w-1), so a slot one bit narrower than `slot_width`
    # would carry into slot 1, which is read
    n = 8
    w, mask = slot_width(n, p)
    assert mask == 2**w - 1 and 2 ** (w - 1) <= p - 1 + n * (p - 1) ** 2 < 2**w
    matrix = [[p - 1] * q + [1] + [0] * (n - 1 - q) for q in reversed(range(n))]
    rows, reference = [], []
    for j, row in enumerate(matrix):
        rows.append((n - 1 - j, sum(x << w * i for i, x in enumerate(row)), None))
        reference.append((n - 1 - j, row, {}))
    vec = [(2 - n + q) % p for q in range(n)]
    assert vec[0] + (n - 1) * (p - 1) ** 2 + p - 1 >= 2 ** (w - 1)
    assert _residue_gauss(reference, vec, p, None) == (None, [0] * n, None)
    assert echelon_reduce(rows, vec, p) == (None, 0, None)


@pytest.mark.parametrize("p", [7, 2**61 - 1])
def test_the_unit_ideal_flips_on_vectors_of_length_zero(record_calls, p):
    # the unit ideal has an empty quotient basis, so FGLM reduces the
    # normal form of 1, a vector of length 0, to the relation 1
    R = PolyRing(GF(p), ("x", "y"))
    gb = Ideal(R, [R.one()]).groebner()
    calls = record_calls(gbfan.linalg, "echelon_reduce")
    flipped = gb.change_order(lex(2))
    assert [g.to_str() for g in flipped] == ["1"]
    assert [(call["vec"], call["return"]) for call in calls] == [((), (None, 0, {(0, 0): 1}))]


def test_one_point_gives_vectors_of_length_one(record_calls):
    # Buchberger-Möller on one point of GF(2)^2 reduces the vectors of 1,
    # y and x, twice (once more for vanishing_ideal), and FGLM in x alone
    # over its ideal those of 1 and x: every vector has one entry
    R = PolyRing(GF(2), ("x", "y"))
    pts = PointSet(R, [(1, 0)])
    calls = record_calls(gbfan.linalg, "echelon_reduce")
    gb, quotient = ideal_of_points(pts)
    assert [g.to_str() for g in gb] == ["y", "x + 1"] and quotient == [(0, 0)]
    assert vanishing_ideal(pts).univariate_in(0) == R.parse("x + 1")
    assert len(calls) == 3 + 3 + 2 and all(len(call["vec"]) == 1 for call in calls)
