"""Matrix term orderings: presets, comparisons, validity, canonical forms."""

import pytest

from gbfan import deglex, degrevlex, lex, matrix_order, parse_order, weight_order
from gbfan.errors import DimensionMismatch, InvalidOrdering, ParseError
from gbfan.orderings import EQUAL, GREATER, LESS, TermOrder, elimination_order


def test_lex_compare():
    o = lex(2)
    assert o.compare((2, 0), (1, 1)) == GREATER  # x^2 vs x*y
    assert o.compare((1, 1), (2, 0)) == LESS
    assert o.compare((1, 2), (1, 2)) == EQUAL


def test_degrevlex_tiebreak():
    # same degree: the term with the smaller last exponent wins
    o = degrevlex(3)
    assert o.compare((0, 1, 1), (2, 0, 0)) == LESS  # yz < x^2
    assert o.compare((1, 1, 0), (1, 0, 1)) == GREATER  # xy > xz


def test_deglex_degree_first():
    o = deglex(2)
    assert o.compare((0, 3), (2, 0)) == GREATER
    assert o.compare((2, 1), (1, 2)) == GREATER


def test_weight_order_with_tiebreak():
    o = weight_order([1, 3])
    assert o.compare((2, 0), (0, 1)) == LESS  # weight 2 < 3
    # equal weight 3: the degrevlex tiebreak ranks x^3 above y
    assert o.compare((3, 0), (0, 1)) == GREATER


def test_elimination_order_blocks():
    o = elimination_order(3, [2])  # eliminate z first
    assert o.compare((0, 0, 1), (5, 5, 0)) == GREATER


def test_matrix_validity():
    with pytest.raises(InvalidOrdering):
        matrix_order([[1, -1], [1, -1]])  # 1 not minimal: column 1 leads with -1
    with pytest.raises(InvalidOrdering):
        matrix_order([[-1, 0], [0, 1]])  # 1 not minimal
    # sign-valid but rank deficient
    for rows in ([[1, 1], [2, 2]], [[1, 1, 0], [0, 0, 1], [1, 1, 1]]):
        with pytest.raises(InvalidOrdering, match="rank"):
            matrix_order(rows)
    with pytest.raises(ParseError):
        parse_order("matrix:1,1;2,2", 2)
    o = matrix_order([[1, 1], [1, 0]])
    assert o.nvars == 2


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lex(2).compare((1, 0, 0), (0, 1, 0))


def test_total_order_refines_divisibility():
    import itertools

    for o in (lex(3), deglex(3), degrevlex(3), weight_order([2, 1, 1])):
        for s in itertools.product(range(3), repeat=3):
            for t in itertools.product(range(3), repeat=3):
                if s != t and all(a <= b for a, b in zip(s, t)):
                    assert o.compare(s, t) == LESS


def test_canonical_identifies_equivalent_matrices():
    # scaling rows positively and adding earlier rows to later ones
    # preserves the ordering
    base = matrix_order([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    scaled = matrix_order([[3, 3, 3], [2, 0, 0], [0, 5, 0]])
    mixed = matrix_order([[1, 1, 1], [2, 1, 1], [1, 2, 1]])
    assert base == scaled == mixed
    assert hash(base) == hash(scaled)
    assert lex(2) != degrevlex(2)
    assert degrevlex(1) == lex(1)


def test_canonical_distinguishes_different_orders():
    assert weight_order([2, 1]) != weight_order([1, 2])
    assert deglex(3) != degrevlex(3)


def test_parse_order():
    assert parse_order("degrevlex", 2) == degrevlex(2)
    assert parse_order("weight:2,1", 2) == weight_order([2, 1])
    assert parse_order("matrix:1,1;0,-1", 2) == degrevlex(2)
    with pytest.raises(ParseError):
        parse_order("weight:1", 2)
    with pytest.raises(ParseError):
        parse_order("nope", 2)


def test_key_is_consistent_with_compare():
    o = degrevlex(2)
    terms = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    ranked = sorted(terms, key=o.key)
    for a, b in zip(ranked, ranked[1:]):
        assert o.compare(a, b) == LESS


def test_validate_rejects_ragged_and_empty():
    with pytest.raises(InvalidOrdering):
        TermOrder([])
    with pytest.raises(InvalidOrdering):
        TermOrder([[1, 0], [1]])
