"""The echelon kernel over QQ against plain Fraction elimination, and the
helper that clears a vector's denominators."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, given, settings, strategies as st

from gbfan import TermOrder
from gbfan.errors import InvalidOrdering
from gbfan.linalg import clear_denominators, echelon_reduce


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

