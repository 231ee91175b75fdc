"""Matrix term orderings: presets, comparisons, validity, canonical forms."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gbfan import QQ, Ideal, PolyRing, deglex, degrevlex, lex, parse_order, weight_order
from gbfan.errors import DimensionMismatch, InvalidOrdering, ParseError
from gbfan.fan import flip_order
from gbfan.orderings import SlotOverflow, TermOrder, elimination_order, packing
from gbfan.terms import tdivides, term_str


def test_lex_compare():
    o = lex(2)
    assert o.key((2, 0)) > o.key((1, 1))  # x^2 vs x*y
    assert o.key((1, 1)) < o.key((2, 0))
    assert o.key((1, 2)) == o.key((1, 2))


def test_degrevlex_tiebreak():
    # same degree: the term with the smaller last exponent wins
    o = degrevlex(3)
    assert o.key((0, 1, 1)) < o.key((2, 0, 0))  # yz < x^2
    assert o.key((1, 1, 0)) > o.key((1, 0, 1))  # xy > xz


def test_deglex_degree_first():
    o = deglex(2)
    assert o.key((0, 3)) > o.key((2, 0))
    assert o.key((2, 1)) > o.key((1, 2))


def test_weight_order_with_tiebreak():
    o = weight_order([1, 3])
    assert o.key((2, 0)) < o.key((0, 1))  # weight 2 < 3
    # equal weight 3: the degrevlex tiebreak ranks x^3 above y
    assert o.key((3, 0)) > o.key((0, 1))


def test_elimination_order_blocks():
    o = elimination_order(3, [2])  # eliminate z first
    assert o.key((0, 0, 1)) > o.key((5, 5, 0))


def test_matrix_validity():
    with pytest.raises(InvalidOrdering):
        TermOrder([[1, -1], [1, -1]])  # 1 not minimal: column 1 leads with -1
    with pytest.raises(InvalidOrdering):
        TermOrder([[-1, 0], [0, 1]])  # 1 not minimal
    # sign-valid but rank deficient, [[1, 0]] by a column with no nonzero weight
    for rows in ([[1, 1], [2, 2]], [[1, 1, 0], [0, 0, 1], [1, 1, 1]], [[1, 0]]):
        with pytest.raises(InvalidOrdering, match="rank"):
            TermOrder(rows)
    with pytest.raises(ParseError):
        parse_order("matrix:1,1;2,2", 2)
    o = TermOrder([[1, 1], [1, 0]])
    assert o.nvars == 2


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lex(2).key((1, 0, 0))


def test_total_order_refines_divisibility():
    for o in (lex(3), deglex(3), degrevlex(3), weight_order([2, 1, 1])):
        for s in itertools.product(range(3), repeat=3):
            for t in itertools.product(range(3), repeat=3):
                if s != t and all(a <= b for a, b in zip(s, t)):
                    assert o.key(s) < o.key(t)


def test_canonical_identifies_equivalent_matrices():
    # scaling rows positively and adding earlier rows to later ones
    # preserves the ordering
    base = TermOrder([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    scaled = TermOrder([[3, 3, 3], [2, 0, 0], [0, 5, 0]])
    mixed = TermOrder([[1, 1, 1], [2, 1, 1], [1, 2, 1]])
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
    # a matrix must have one column per variable
    for spec in ("matrix:1;2", "matrix:1,1,1;0,1,0;0,0,1"):
        with pytest.raises(ParseError, match="2 variables"):
            parse_order(spec, 2)
    # every row of a matrix, the second too
    with pytest.raises(ParseError, match="matrix row length 1 != 2 variables"):
        parse_order("matrix:1,1;1", 2)
    with pytest.raises(ParseError, match="bad weight spec"):
        parse_order("weight:1,2;3,4", 2)
    with pytest.raises(ParseError, match="bad matrix spec"):
        parse_order("matrix:1,a", 2)


def test_key_is_consistent_with_compare():
    o = degrevlex(2)
    terms = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    ranked = sorted(terms, key=o.key)
    assert ranked == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for a, b in zip(ranked, ranked[1:]):
        assert o.key(a) < o.key(b)


def test_validate_rejects_ragged_and_empty():
    with pytest.raises(InvalidOrdering):
        TermOrder([])
    with pytest.raises(InvalidOrdering):
        TermOrder([[1, 0], [1]])


def test_non_integral_weights_are_rejected():
    # both used to be truncated: to the rows of degrevlex(2), and to lex
    with pytest.raises(InvalidOrdering, match="integers"):
        weight_order([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(InvalidOrdering, match="integers"):
        TermOrder([[1.7, 0.2], [0, 1]])
    # integral values of any numeric type are taken as ints
    assert weight_order([Fraction(2), 1.0]) == weight_order([2, 1])
    assert TermOrder([[2.0, 1], [0, Fraction(1)]]).rows == ((2, 1), (0, 1))


def _valid_order(rows):
    try:
        return TermOrder(rows)
    except InvalidOrdering:
        assume(False)


@st.composite
def _matrices(draw, n):
    """Small integer matrices whose columns lead with a positive entry, so
    that only a rank deficiency makes one invalid."""
    rows, led = [], [False] * n
    for _ in range(draw(st.integers(min_value=n, max_value=n + 1))):
        row = [draw(st.integers(min_value=-2 if led[c] else 0, max_value=3)) for c in range(n)]
        led = [done or x != 0 for done, x in zip(led, row)]
        rows.append(row)
    return rows


@st.composite
def _order_and_equivalent(draw):
    """A valid matrix and one rewritten by moves that keep its ordering:
    positive row scalings, multiples of earlier rows added to later ones,
    and appended rows from the span."""
    n = draw(st.integers(min_value=1, max_value=3))
    rows = draw(_matrices(n))
    small = st.integers(min_value=-3, max_value=3)
    scales = [draw(st.integers(min_value=1, max_value=4)) for _ in rows]
    out = [[c * x for x in r] for c, r in zip(scales, rows)]
    for j in range(1, len(out)):
        for i in range(j):
            k = draw(small)
            out[j] = [a + k * b for a, b in zip(out[j], out[i])]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        ks = [draw(small) for _ in out]
        out.append([sum(k * r[c] for k, r in zip(ks, out)) for c in range(n)])
    return n, rows, out


@settings(deadline=None)
@given(_order_and_equivalent())
def test_canonical_invariant_under_order_preserving_moves(case):
    n, rows, moved = case
    a = _valid_order(rows)
    b = TermOrder(moved)
    assert a == b
    assert hash(a) == hash(b)
    ring = PolyRing(QQ, tuple(f"x{i}" for i in range(n)))
    ideal = Ideal(ring, [ring.var(i) * ring.var(i) - ring.var(i) for i in range(n)])
    assert ideal.groebner(a) is ideal.groebner(b)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(_matrices(n), _matrices(n))
))
def test_canonical_separates_orders_that_sort_a_box_differently(pair):
    a, b = (_valid_order(rows) for rows in pair)
    box = list(itertools.product(range(4), repeat=a.nvars))
    if sorted(box, key=a.key) != sorted(box, key=b.key):
        assert a != b


# one of each kind of ordering, and a matrix order whose negative entries
# the packing has to lift
_PACKED_ORDERS = [
    lex(3),
    deglex(3),
    degrevlex(3),
    degrevlex(4),
    weight_order([3, 1, 2]),
    elimination_order(3, [1]),
    TermOrder([[1, 1, 1], [2, -1, 0], [-3, 0, 1]]),
]


@st.composite
def _order_and_terms(draw):
    order = draw(st.sampled_from(_PACKED_ORDERS))
    term = st.tuples(*[st.integers(min_value=0, max_value=40)] * order.nvars)
    return order, draw(term), draw(term)


@settings(deadline=None)
@given(st.one_of(
    _order_and_terms(),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            _matrices(n).map(_valid_order),
            *[st.tuples(*[st.integers(min_value=0, max_value=40)] * n)] * 2,
        )
    ),
))
def test_packed_terms_compare_multiply_and_divide_as_terms(case):
    # packed ints order as TermOrder.key does, add as terms multiply, and
    # test divisibility with their guards; unpack inverts pack
    order, s, t = case
    pk = packing(order)
    S, T = pk.pack(s), pk.pack(t)
    assert pk.unpack(S) == s and pk.unpack(T) == t
    assert (S < T) == (order.key(s) < order.key(t))
    assert (S == T) == (s == t)
    assert S + T == pk.pack(tuple(a + b for a, b in zip(s, t)))
    assert (((T | pk.guard) - S) & pk.guard == pk.guard) == tdivides(s, t)


def test_pack_refuses_a_term_that_could_fill_a_slot():
    # lex(1) packs x^d as d twice, in 8-bit slots with 7 value bits each:
    # d * (1 + 1) >= 2^7 is refused, the largest degree below is packed
    pk = packing(lex(1), 8)
    assert pk.unpack(pk.pack((63,))) == (63,)
    with pytest.raises(SlotOverflow):
        pk.pack((64,))
    wider = packing(lex(1), 16)
    assert wider.unpack(wider.pack((64,))) == (64,)
    assert packing(lex(1), 8) is pk


@st.composite
def _ranked_case(draw):
    """An ordering of each kind, flip orderings (negative rows) and random
    matrices among them, and terms with exponents up to 2^70, so that
    slots run past 64 bits, and the least degree bound that holds them."""
    n = draw(st.integers(min_value=1, max_value=3))
    weights = st.lists(st.integers(min_value=1, max_value=2**30), min_size=n, max_size=n)
    order = draw(st.one_of(
        st.sampled_from([lex(n), deglex(n), degrevlex(n)]),
        weights.map(weight_order),
        st.sets(st.integers(min_value=0, max_value=n - 1)).map(
            lambda block: elimination_order(n, block)
        ),
        st.tuples(weights, st.lists(st.integers(-9, 9), min_size=n, max_size=n)).map(
            lambda wv: flip_order(wv[0], wv[1], n)
        ),
        _matrices(n).map(_valid_order),
    ))
    exponent = st.one_of(st.integers(min_value=0, max_value=6), st.integers(0, 2**70))
    terms = draw(st.lists(st.tuples(*[exponent] * n), min_size=2, max_size=6))
    degree = max(map(sum, terms)) + draw(st.integers(min_value=0, max_value=3))
    return order, terms, degree


@settings(deadline=None)
@given(_ranked_case())
@example((lex(2), [(1, 0), (0, 2**70)], 2**70))
@example((weight_order([2**30, 1]), [(2**40, 0), (0, 2**40), (2**40 - 1, 2**30 + 1)], 2**40 + 2**30))
def test_rank_key_compares_as_key(case):
    order, terms, degree = case
    rank = order.rank_key(degree)
    for s in terms:
        assert isinstance(rank(s), int)
        for t in terms:
            assert (rank(s) < rank(t)) == (order.key(s) < order.key(t))
            assert (rank(s) == rank(t)) == (s == t)


def test_the_rank_is_the_packings():
    # rank_key reads the narrowest packing of the ordering whose slots hold
    # the degree: the one Buchberger starts on, and the next width up from
    # the degree that packing refuses
    order = lex(2)
    r = packing(order).refused
    assert order.rank_key(r - 1) is packing(order).rank
    assert order.rank_key(r) is packing(order, 64).rank
    terms = [(r, 0), (r - 1, 1), (0, r), (r - 1, 0)]
    assert sorted(terms, key=order.rank_key(r)) == sorted(terms, key=order.key)


def test_to_str_ranks_a_term_past_64_bit_slots():
    R = PolyRing(QQ, ["x", "y"])
    f = R.parse(f"x^{2**40} + y^3 + 1")
    orders = [lex(2), degrevlex(2), weight_order([1, 2**40]), flip_order([2**30, 1], [1, -5], 2)]
    for order in orders:
        terms = sorted(f.coeffs, key=order.key, reverse=True)
        assert f.to_str(order) == " + ".join(term_str(t, R.vars) for t in terms)
    assert f.to_str(lex(2)) == f"x^{2**40} + y^3 + 1"
    assert f.to_str(weight_order([1, 2**40])) == f"y^3 + x^{2**40} + 1"
