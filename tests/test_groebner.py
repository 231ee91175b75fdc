"""Buchberger, normal forms, quotient bases, and ideal arithmetic."""

import sys
from fractions import Fraction
from math import gcd
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gbfan import (
    GF,
    QQ,
    Ideal,
    PolyRing,
    TermOrder,
    deglex,
    degrevlex,
    divide_exact,
    fan_oracle_zerodim,
    ideal_of_points,
    lex,
    weight_order,
)
from gbfan.orderings import packing
from gbfan.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotZeroDimensional,
    ParseError,
    RingMismatch,
    ZeroIdealDivisor,
)
from gbfan.groebner import ReducedGB, _reduce_dict, _reducer, buchberger_dicts, kernel_poly
from gbfan.random_ideals import random_point_set, random_zero_dim_ideal
from gbfan.points import vanishing_ideal
from gbfan.terms import tdivides, term_str

from conftest import fring, ideal, kernel_gens, points, qring


KATSURA3 = [
    "x + 2*y + 2*z + 2*w - 1",
    "x^2 + 2*y^2 + 2*z^2 + 2*w^2 - x",
    "2*x*y + 2*y*z + 2*z*w - y",
    "2*x*z + y^2 + 2*y*w - z",
]
KATSURA4 = [
    "x + 2*y + 2*z + 2*w + 2*v - 1",
    "x^2 + 2*y^2 + 2*z^2 + 2*w^2 + 2*v^2 - x",
    "2*x*y + 2*y*z + 2*z*w + 2*w*v - y",
    "2*x*z + y^2 + 2*y*w + 2*z*v - z",
    "2*x*w + 2*y*z + 2*y*v - w",
]
CYCLIC4 = [
    "x + y + z + w",
    "x*y + y*z + z*w + w*x",
    "x*y*z + y*z*w + z*w*x + w*x*y",
    "x*y*z*w - 1",
]


def lac_ideal():
    R = fring(2, "x", "y", "z")
    pts = points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)])
    return R, vanishing_ideal(pts)


def test_buchberger_boolean_points():
    R, I = lac_ideal()
    o = TermOrder([[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # lex y > x > z
    got = {g.to_str(o) for g in I.groebner(o)}
    assert got == {"x^2 + x", "z^2 + z", "y + x + 1", "x*z + z"}
    o2 = lex(3)
    got2 = {g.to_str(o2) for g in I.groebner(o2)}
    assert got2 == {"y^2 + y", "z^2 + z", "x + y + 1", "y*z"}


def test_normal_forms_boolean_points():
    R, I = lac_ideal()
    f = R.parse("y*z + y")
    o1 = TermOrder([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
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
            for t in g.coeffs:
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
                si = els[i] * rxy.poly({tuple(a - b for a, b in zip(lcm, ei)): ci ** (-1)})
                sj = els[j] * rxy.poly({tuple(a - b for a, b in zip(lcm, ej)): cj ** (-1)})
                assert gb.reduce(si - sj).is_zero()


def test_criteria_do_not_change_output(rxy):
    rng = Random(4)
    for _ in range(5):
        I = random_zero_dim_ideal(rng, rxy, max_mult=7)
        o = rng.choice([lex(2), degrevlex(2)])
        with_criteria = I.groebner(o)
        plain = buchberger_dicts(kernel_gens(rxy, I.gens), o, 0, use_criteria=False)
        got = zip(with_criteria.lt_exps, with_criteria.elements)
        assert [(lt, g.coeffs) for lt, g in got] == plain


@pytest.mark.parametrize(
    "field, names, texts, counts",
    [
        pytest.param(
            GF(32003),
            "xyzw",
            CYCLIC4,
            {"degrevlex": (8, 5, 7), "lex": (11, 7, 6)},
            id="cyclic4",
        ),
        pytest.param(
            GF(2),
            "xyzw",
            CYCLIC4,
            {"degrevlex": (8, 5, 7), "lex": (11, 7, 6)},
            id="cyclic4-gf2",
        ),
        pytest.param(
            QQ,
            "xyzw",
            KATSURA3,
            {"degrevlex": (8, 5, 7), "lex": (13, 2, 4)},
            id="katsura3",
        ),
        pytest.param(
            QQ,
            "xy",
            ["x^2 + y", "x^2 - 1", "x*y - 1", "x^2 + y", None],
            {"degrevlex": (1, 1, 2), "lex": (1, 1, 2)},
            id="repeats-and-zero",
        ),
    ],
)
def test_buchberger_work_is_pinned(record_calls, field, names, texts, counts):
    # S-pairs that reach reduction, how many reduce to zero, and the basis
    # size: a change to pair order or the criteria moves these counts
    import gbfan.groebner

    R = PolyRing(field, list(names))
    p = field.characteristic
    gens = kernel_gens(R, [R.parse(t) if t else R.zero() for t in texts])
    calls = record_calls(gbfan.groebner, "_reduce_dict")
    for order in (degrevlex(len(names)), lex(len(names))):
        calls.clear()
        basis = buchberger_dicts(gens, order, p)
        # the run reduces each input first and each output element's tail
        # last; every reduction between is an S-pair's
        pairs = calls[len(gens) : len(calls) - len(basis)]
        zeros = sum(1 for call in pairs if call["return"][0] == {})
        assert (len(pairs), zeros, len(basis)) == counts[order.tag]
        assert basis == buchberger_dicts(gens, order, p, use_criteria=False)


@pytest.mark.parametrize("m", [2**61 - 1, 2**127 - 1])
@pytest.mark.parametrize(
    "names, texts",
    [
        pytest.param(
            "xyzw",
            KATSURA3,
            id="katsura3",
        ),
        pytest.param(
            "xyz",
            ["2/3*x^2*y + 1/3*y*z - 4", "5/7*x*y^2 + 11/6*x - 7/2*z",
             "-9/4*z^2 + 3/5*x*y + 1/3*x"],
            id="fracs",
        ),
    ],
)
def test_buchberger_kernel_runs_modulo_any_prime(names, texts, m):
    # the kernel takes p, so it runs modulo primes past GF(p)'s 2^64 bound;
    # for these primes its basis of the residues is the QQ basis mod m
    R = PolyRing(QQ, list(names))
    order = degrevlex(len(names))

    def residues(coeffs):
        return {e: c.numerator * pow(c.denominator, -1, m) % m for e, c in coeffs.items()}

    gens = [residues(R.parse(t).coeffs) for t in texts]
    gb = Ideal.from_strings(R, texts).groebner(order)
    want = [(lt, residues(g.coeffs)) for lt, g in zip(gb.lt_exps, gb.elements)]
    assert buchberger_dicts(gens, order, m) == want
    assert buchberger_dicts(gens, order, m, use_criteria=False) == want


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_buchberger_keys_each_term_once(record_calls, field):
    # a run compares packed terms, so it computes no order key at all: not
    # for the pair queue, a new leading term, a reduction or the final sort
    R = PolyRing(field, list("xyzwv"))
    gens = kernel_gens(R, [R.parse(t) for t in KATSURA4])
    calls = record_calls(TermOrder, "key")
    basis = buchberger_dicts(gens, degrevlex(5), field.characteristic)
    assert len(basis) > 5
    assert calls == []


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_exponents_past_the_first_slot_width_restart_wider(record_calls, field):
    # gcd(x^(5k) - 1, x^(3k) - 1) = x^(gcd(5k, 3k)) - 1 = x^k - 1, with k
    # the first slot width's range: packing refuses the generators, so the
    # run and the basis's reductions each restart on slots twice as wide
    import gbfan.groebner

    R = PolyRing(field, ["x"])
    bits = packing(R.default_order()).bits
    k = 2**bits
    widths = record_calls(gbfan.groebner, "packing")
    gb = ideal(R, f"x^{5 * k} - 1", f"x^{3 * k} - 1").groebner()
    assert gb.elements == (R.parse(f"x^{k} - 1"),)
    assert gb.reduce(R.parse(f"x^{3 * k} + 2*x")) == R.parse("2*x + 1")
    assert [call["bits"] for call in widths] == [bits, 2 * bits] * 2


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_lex_reductions_that_grow_exponents_restart_wider(record_calls, monkeypatch, field):
    # in lex, x - y^3, y - z^3 and x^2 - z reduce x^2 to z^18: a reduction
    # step outgrows 4-bit slots, and the restarts on wider slots give the
    # basis that the default width gives; so does a reduction by the basis
    import gbfan.groebner
    import gbfan.orderings

    R = PolyRing(field, ["x", "y", "z"])
    gens = ["x - y^3", "y - z^3", "x^2 - z"]
    want = Ideal.from_strings(R, gens).groebner(lex(3))
    assert want.elements == tuple(map(R.parse, ["z^18 - z", "y - z^3", "x - z^9"]))
    monkeypatch.setattr(
        gbfan.groebner, "packing", lambda order, bits=4: gbfan.orderings.packing(order, bits)
    )
    steps = record_calls(gbfan.groebner, "_reduce_dict")
    narrow = Ideal.from_strings(R, gens).groebner(lex(3))
    assert narrow == want and narrow.lt_exps == want.lt_exps
    assert any("return" not in call for call in steps)  # a step raised
    assert {call["guard"] for call in steps} == {
        gbfan.orderings.packing(lex(3), bits).guard for bits in (4, 8)
    }
    # reducing x^40 by x - z^4 reaches z^160, past the 8-bit slots that
    # the basis itself fits in
    gb = Ideal.from_strings(R, ["x - z^4", "y - z^2"]).groebner(lex(3))
    steps.clear()
    assert gb.reduce(R.parse("x^40 + y")) == R.parse("z^160 + z^2")
    assert any("return" not in call for call in steps)


@pytest.mark.parametrize("texts", [("x^2 - y^7", "x*y^4 - 1"), ("x*y^4 - 1", "x^2 - y^7")])
def test_an_s_polynomial_past_its_slots_restarts_before_reducing(
    record_calls, monkeypatch, texts
):
    # lex as the matrix [[1, 0], [0, 3]]: 6-bit slots hold up to 31 and take
    # x^2 - y^7, x*y^4 - 1 and their lcm x^2*y^4 (degree < 8), and neither
    # input reduces the other; but their S-polynomial's term y^11 weighs 33
    # in the second key slot, whichever element of the pair it comes from:
    # the run stops at that S-polynomial, after the two inputs' reductions
    # and before any other, and restarts wider
    import gbfan.groebner
    import gbfan.orderings

    R = PolyRing(GF(32003), ["x", "y"])
    order = TermOrder([[1, 0], [0, 3]])
    gens = kernel_gens(R, map(R.parse, texts))
    steps = record_calls(gbfan.groebner, "_reduce_dict")
    with pytest.raises(gbfan.orderings.SlotOverflow):
        gbfan.groebner._buchberger(gens, packing(order, 6), 32003, True)
    pk = packing(order, 6)
    assert [call["return"] for call in steps] == [
        ({pk.pack(e): c for e, c in g.items()}, 1) for g in gens
    ]
    monkeypatch.setattr(
        gbfan.groebner, "packing", lambda order, bits=6: gbfan.orderings.packing(order, bits)
    )
    want = kernel_gens(R, [R.parse("y^15 - 1"), R.parse("x - y^11")])
    assert buchberger_dicts(gens, order, 32003) == [(max(g), g) for g in want]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_first_divisors_match_a_fresh_scan(record_calls, field):
    # replay a run's reductions, inputs, S-pairs and the final pass alike,
    # against a reducer list that grows by appends, as the run's one list
    # does, with one divisor dict kept beside it: each gives what a full
    # scan with a fresh dict gives, and what the run's own reduction gave
    import gbfan.groebner

    R = PolyRing(field, list("xyzw"))
    p = field.characteristic
    order = degrevlex(4)
    gens = kernel_gens(R, [R.parse(t) for t in KATSURA3])
    calls = record_calls(gbfan.groebner, "_reduce_dict")
    out = buchberger_dicts(gens, order, p)
    basis = calls[0]["reducers"]  # the run's one list, as it ended
    assert all(call["reducers"] is basis for call in calls)
    assert all(call["divisors"] is calls[0]["divisors"] for call in calls)
    reducers: list = []
    divisors: dict = {}
    guard = packing(order).guard
    assert {call["guard"] for call in calls} == {guard}
    for k, call in enumerate(calls):
        got = _reduce_dict(call["f"], reducers, divisors, guard, p)
        assert got == _reduce_dict(call["f"], reducers, {}, guard, p)
        assert got == call["return"]
        if got[0] and k < len(calls) - len(out):  # a new element joins
            reducers.append(basis[len(reducers)])
    assert reducers == basis and divisors


def _packed_reducers(reducers, order, p) -> list:
    # polynomials in `_reduce_dict`'s reducer form, on terms packed for order
    pk = packing(order)
    out = []
    for g in reducers:
        [f] = kernel_gens(g.ring, [g])
        lt = g.leading_term(order)[0]
        out.append(_reducer({pk.pack(e): c for e, c in f.items()}, pk.pack(lt), p))
    return out


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_a_recorded_miss_is_exact(field):
    # y - 1 does not divide x^2, and the dict records that miss with the
    # list's length; once x - 2 is appended, the same dict sends x^2 on
    # to the new reducer, as a fresh dict does
    R = PolyRing(field, ["x", "y"])
    p = field.characteristic
    order = degrevlex(2)
    pk = packing(order)
    x2 = {pk.pack((2, 0)): 1}
    reducers = _packed_reducers([R.parse("y - 1")], order, p)
    divisors: dict = {}
    assert _reduce_dict(x2, reducers, divisors, pk.guard, p) == (x2, 1)
    assert divisors == {pk.pack((2, 0)): ~1}
    reducers += _packed_reducers([R.parse("x - 2")], order, p)
    got = _reduce_dict(x2, reducers, divisors, pk.guard, p)
    assert got == _reduce_dict(x2, reducers, {}, pk.guard, p)
    assert got == ({pk.pack((0, 0)): 4}, 1)
    assert divisors[pk.pack((2, 0))] == 1


@pytest.mark.parametrize("texts", [KATSURA3, CYCLIC4], ids=["katsura3", "cyclic4"])
@pytest.mark.parametrize("order", [degrevlex(4), lex(4)], ids=lambda o: o.tag)
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_remainders_join_the_basis_fully_reduced(record_calls, field, order, texts):
    # every element a run adds, an input or an S-polynomial's remainder, is
    # reduced in full by the elements before it: no term of it, leading or
    # not, is divisible by an earlier element's leading term
    import gbfan.groebner

    R = PolyRing(field, list("xyzw"))
    gens = kernel_gens(R, [R.parse(t) for t in texts])
    calls = record_calls(gbfan.groebner, "_reduce_dict")
    buchberger_dicts(gens, order, field.characteristic)
    basis = calls[0]["reducers"]  # the run's own list, as it ended
    assert len(basis) > len(gens)
    unpack = packing(order).unpack
    lts = [unpack(lt) for lt, _, _ in basis]
    for k, (lt, _, rest) in enumerate(basis):
        for t in [lt] + [e for e, _ in rest]:
            assert not any(tdivides(s, unpack(t)) for s in lts[:k])


@pytest.mark.parametrize(
    "texts, want",
    [
        (["x", "x^2 + y"], ["y", "x"]),
        (["x^2 + y", "x"], ["y", "x"]),
        (["x^2 + y", "x - 1"], ["y + 1", "x - 1"]),
        (["x^2 + y", "x^2 + y"], ["x^2 + y"]),
        (["x - 1", "x^2 + y", "x - 1"], ["y + 1", "x - 1"]),
    ],
    ids=["x-then-x2", "x2-then-x", "x2-then-x-1", "repeat", "repeat-after-another"],
)
@pytest.mark.parametrize("use_criteria", [True, False], ids=["criteria", "plain"])
@pytest.mark.parametrize("order", [degrevlex(2), lex(2)], ids=lambda o: o.tag)
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_inputs_whose_leading_terms_repeat_or_divide(field, order, use_criteria, texts, want):
    # an input whose leading term an earlier one divides, or that repeats an
    # earlier one, joins reduced or not at all; an earlier input whose
    # leading term a later one divides stops forming pairs and leaves the
    # output: the run gives the reduced basis either way
    R = PolyRing(field, ["x", "y"])
    gens = kernel_gens(R, [R.parse(t) for t in texts])
    got = buchberger_dicts(gens, order, field.characteristic, use_criteria)
    want = [R.parse(t) for t in want]
    lts = [g.leading_term(order)[0] for g in want]
    assert got == list(zip(lts, kernel_gens(R, want)))


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=str)
def test_buchberger_kernel_holds_residues(record_calls, field):
    # Buchberger, ReducedGB.reduce and nf_coords reduce raw ints on packed
    # terms by reducers (lt, a, rest): residues in [0, p) with a == 1
    # over GF(p), and over QQ ints with a > 0 and content 1, fraction-free
    import gbfan.groebner

    R = PolyRing(field, ("x", "y", "z"))
    p = field.characteristic
    calls = record_calls(gbfan.groebner, "_reduce_dict")
    I = ideal(R, "2*x^2 + 3*y*z - 1", "3*y^2 - x*z + 5", "5*x*y + z^2 - 7")
    gb = I.groebner()
    built = len(calls)
    assert all(gb.reduce(g).is_zero() for g in I.gens)
    assert not gb.reduce(R.parse("x^3*y - 2/3*z^2 + 5")).is_zero()
    reduced = len(calls)
    assert gb.nf_coords((3, 2, 1)) and gb.nf_coords((0, 0, 0))
    assert 0 < built < reduced < len(calls)

    guard = packing(gb.order).guard
    for call in calls:
        r, scale = call["return"]
        assert call["guard"] == guard
        values = list(call["f"].values()) + list(r.values())
        terms = list(call["f"]) + list(r)
        for lt, a, rest in call["reducers"]:
            assert lt not in dict(rest)
            terms += [lt] + [e for e, _ in rest]
            assert type(a) is int and a > 0
            assert gcd(a, *(c for _, c in rest)) == 1
            assert a == 1 or not p
            values += [c for _, c in rest]
        assert all(type(c) is int for c in values)
        assert all(type(t) is int and t >= 0 and not t & guard for t in terms)
        assert type(scale) is int and scale > 0 and (scale == 1 or not p)
        if p:
            assert all(0 <= c < p for c in values)
    if not p:
        assert any(a > 1 for call in calls for _, a, _ in call["reducers"])


def test_reducers_are_built_on_first_use(record_calls):
    # a basis builds its reducers on its first reduce or nf_coords, once; an
    # ideal of points or an FGLM flip that never reduces builds none
    import gbfan.groebner

    R = qring("x", "y", "z")
    built = record_calls(gbfan.groebner, "_reducer")
    gb, _ = ideal_of_points(points(R, [(1, 2, 3), ("1/2", 7, -1), (0, 0, 0), (2, -3, 5)]))
    assert built == []
    flipped = gb.change_order(lex(3))
    # each reducer is built on its packed leading term
    pack = packing(gb.order).pack
    assert [call["lt"] for call in built] == list(map(pack, gb.lt_exps))
    built.clear()
    f = R.parse("x^3*y - 2/3*z^2 + 5")
    r = flipped.reduce(f)
    pack = packing(flipped.order).pack
    assert [call["lt"] for call in built] == list(map(pack, flipped.lt_exps))
    assert flipped.reduce(f) == r and flipped.nf_coords((1, 1, 1))
    assert len(built) == len(flipped)


_FIELDS = [GF(2), GF(3), GF(32003), GF(2**61 - 1), QQ]


@st.composite
def _systems(draw):
    # a few sparse generators in 2-3 variables, coefficients n/d in the
    # field; half the draws add x_i^d + c for every i, so are zero-dimensional
    field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(2, 3))
    R = PolyRing(field, "xyz"[:n])
    p = field.characteristic

    def coeff():
        num, den = draw(st.integers(-5, 5)), draw(st.integers(1, 4))
        c = field.from_int(num)
        return c / field.from_int(den) if not p or den % p else c

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3))
        gens.append(R.poly({exp: coeff() for exp in terms}))
    if draw(st.booleans()):
        for i in range(n):
            exp = tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(n))
            gens.append(R.poly({exp: field.one(), (0,) * n: coeff()}))
    return Ideal(R, gens)


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_buchberger_over_characteristic_edges(I):
    # GF(2) makes negation the identity, 2^61 - 1 holds large residues
    n, p = I.ring.nvars, I.ring.field.characteristic
    orders = (degrevlex(n), lex(n))
    for order, other in (orders, orders[::-1]):
        gb = I.groebner(order)
        plain = buchberger_dicts(kernel_gens(I.ring, I.gens), order, p, use_criteria=False)
        got = list(zip(gb.lt_exps, gb.elements))
        assert got == [(lt, kernel_poly(I.ring, d)) for lt, d in plain]
        assert all(gb.reduce(g).is_zero() for g in I.gens)
        # FGLM on zero-dimensional draws, Buchberger from a basis otherwise
        assert I.groebner(other).change_order(order) == gb


def _built_bases(builder, ring):
    I = ideal(ring, "x^2 - y", "y^2 - x + 1")
    if builder == "buchberger":
        return [I.groebner(), I.groebner(lex(2))]
    if builder == "fglm":
        return [I.groebner().change_order(lex(2)), I.groebner(lex(2)).change_order(degrevlex(2))]
    if builder == "points":
        pts = points(ring, [(0, 0), (1, 2), (-1, 1), (2, 2), (3, -1)])
        return [ideal_of_points(pts, lex(2))[0], ideal_of_points(pts)[0]]
    return [mb.basis for mb in fan_oracle_zerodim(I)]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("builder", ["buchberger", "fglm", "points", "oracle"])
def test_builders_hand_reduced_gb_its_leading_terms(field, builder):
    # ReducedGB takes lt_exps from its builder's pairs as given, so each
    # builder must emit the true leading terms, in increasing order
    bases = _built_bases(builder, PolyRing(field, ["x", "y"]))
    assert len(bases) > 1
    for gb in bases:
        order = gb.order
        assert gb.lt_exps == tuple(g.leading_term(order)[0] for g in gb.elements)
        assert all(g.leading_term(order)[1] == field.one() for g in gb.elements)
        assert list(gb.lt_exps) == sorted(gb.lt_exps, key=order.key)


def _monic_remainder(f: dict, gb: ReducedGB) -> dict:
    # the reference: plain reduction on field elements by the monic elements
    okey = gb.order.key
    zero = gb.elements[0].ring.field.zero()
    work, out = dict(f), {}
    while work:
        t = max(work, key=okey)
        c = work.pop(t)
        for g in gb.elements:
            lt, _ = g.leading_term(gb.order)
            if all(a <= b for a, b in zip(lt, t)):
                shift = tuple(a - b for a, b in zip(t, lt))
                for e, c2 in g.coeffs.items():
                    key = tuple(a + b for a, b in zip(e, shift))
                    if key != t:
                        val = work.get(key, zero) - c * c2
                        if val:
                            work[key] = val
                        else:
                            del work[key]
                break
        else:
            out[t] = c
    return out


# leading coefficients none of whose numerators divides another's
_LEADS = [Fraction(2, 3), Fraction(5, 7), Fraction(-9, 4)]
_TAILS = [Fraction(1, 3), Fraction(-7, 2), Fraction(3, 5), Fraction(11, 6), Fraction(-4)]


@st.composite
def _qq_zero_dim(draw):
    # c*x_i^d plus terms of lower total degree for every i, so degree-first
    # orders lead with x_i^d and the ideal is zero-dimensional; plus a
    # sparse extra generator with non-integral coefficients
    n = draw(st.integers(2, 3))
    R = PolyRing(QQ, "xyz"[:n])
    gens = []
    for i in range(n):
        d = draw(st.integers(1, 3))
        lower = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * n), max_size=3))
        coeffs = {e: draw(st.sampled_from(_TAILS)) for e in lower if sum(e) < d}
        coeffs[tuple(d if j == i else 0 for j in range(n))] = draw(st.sampled_from(_LEADS))
        gens.append(R.poly(coeffs))
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3))
    gens.append(R.poly({e: draw(st.sampled_from(_LEADS + _TAILS)) for e in extra}))
    return Ideal(R, gens), draw(st.sampled_from([degrevlex(n), deglex(n)]))


@settings(max_examples=60, deadline=None)
@given(_qq_zero_dim())
def test_fraction_free_reduction_is_exact_over_qq(case):
    # the integer kernel scales by leading coefficients and divides once at
    # the end; its bases and normal forms equal plain monic reduction's
    I, order = case
    R = I.ring
    gb = I.groebner(order)
    plain = buchberger_dicts(kernel_gens(R, I.gens), order, 0, use_criteria=False)
    assert [(lt, g.coeffs) for lt, g in zip(gb.lt_exps, gb.elements)] == plain
    # under lex, standard terms lie above reducible ones, so the remainder
    # is scaled too
    for basis in (gb, gb.change_order(lex(R.nvars))):
        index = {t: i for i, t in enumerate(basis.quotient_basis())}
        for exp in [(a, b, c)[: R.nvars] for a in range(4) for b in range(4) for c in range(2)]:
            row = [Fraction(0)] * len(index)
            for e, c in _monic_remainder({exp: Fraction(1)}, basis).items():
                row[index[e]] = c
            assert basis.nf_coords(exp) == tuple(row)
        for f in list(I.gens) + [R.parse("x^3*y - 2/3*x*y^2 + 5/7*y^4 - 1/2")]:
            assert basis.reduce(f).coeffs == _monic_remainder(f.coeffs, basis)


def _check_lazy_residues(f, reducers, order):
    # _reduce_dict of f by the monic reducers, with one fresh divisor dict,
    # against _monic_remainder along the same first-divisor path; over
    # GF(p) every remainder coefficient is a residue in [1, p)
    R = f.ring
    field = R.field
    p = field.characteristic
    pk = packing(order)
    [ints] = kernel_gens(R, [f])
    packed = _packed_reducers(reducers, order, p)
    r, s = _reduce_dict({pk.pack(e): c for e, c in ints.items()}, packed, {}, pk.guard, p)
    assert all(type(c) is int and c for c in r.values())
    if p:
        assert s == 1 and all(0 < c < p for c in r.values())
    got = {pk.unpack(t): field.from_int(c) / field.from_int(s) for t, c in r.items()}
    want = _monic_remainder(
        {e: field.from_int(c) for e, c in ints.items()},
        SimpleNamespace(order=order, elements=reducers),
    )
    assert got == want


@pytest.mark.parametrize(
    "field, texts, reducers, want",
    [
        # two updates of 1 to the constant sum to 2, a nonzero multiple of p
        (GF(2), "x^2 + x*y + y^2", ["x^2 + 1", "x*y + 1"], "y^2"),
        # three updates of 1 sum to 3, whose residue 1 is left
        (GF(2), "x^2 + x*y + y^2", ["x^2 + 1", "x*y + 1", "y^2 + 1"], "1"),
        # 2 + 2 + 2 = 6 is a multiple of 3 over GF(3)
        (GF(3), "x^2 + x*y + y^2", ["x^2 + 1", "x*y + 1", "y^2 + 1"], "0"),
        (GF(32003), "x^2 - x*y", ["x^2 + 16002", "x*y + 16002"], "0"),
    ],
    ids=["gf2-twice", "gf2-thrice", "gf3", "gf32003"],
)
def test_sums_of_updates_are_reduced_when_their_term_pops(field, texts, reducers, want):
    R = PolyRing(field, ["x", "y"])
    order = degrevlex(2)
    f, reducers = R.parse(texts), [R.parse(t) for t in reducers]
    _check_lazy_residues(f, reducers, order)
    plain = _monic_remainder(f.coeffs, SimpleNamespace(order=order, elements=reducers))
    assert plain == R.parse(want).coeffs


@st.composite
def _reductions(draw):
    # f and one to three monic reducers, sparse, in 2-3 variables, under a
    # degree-first ordering; coefficients near 0 and near p, so sums often
    # reach a multiple of p
    field = draw(st.sampled_from(_FIELDS))
    p = field.characteristic
    n = draw(st.integers(2, 3))
    R = PolyRing(field, "xyz"[:n])

    def coeff():
        if p:
            near = sorted({c % p for c in (1, 2, 3, p - 1, p - 2)} - {0})
            return field.from_int(draw(st.sampled_from(near)))
        num = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
        return Fraction(num, draw(st.integers(1, 4)))

    def poly(top, max_size):
        exps = st.tuples(*[st.integers(0, top)] * n)
        terms = draw(st.lists(exps, min_size=1, max_size=max_size))
        return R.poly({e: coeff() for e in terms})

    order = draw(st.sampled_from([degrevlex(n), deglex(n)]))
    reducers = [g.monic(order) for g in (poly(2, 4) for _ in range(draw(st.integers(1, 3))))]
    return poly(3, 6), reducers, order


@settings(max_examples=150, deadline=None)
@given(_reductions())
def test_lazy_residues_match_plain_monic_reduction(case):
    # over GF(2), GF(3), GF(32003), modulo 2^61 - 1 and over QQ
    _check_lazy_residues(*case)


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
    j2 = I.lt_ideal(TermOrder([[0, 1], [1, 0]]))
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
    assert I.eliminate(["y"]).equals(ideal(rxy, "x^2"))


@pytest.mark.parametrize("i", [5, 2, -1])
def test_eliminate_refuses_an_index_outside_the_variables(rxy, i):
    # an index past the ring is an error, not an empty block returning I
    I = ideal(rxy, "x - y", "y^2")
    with pytest.raises(DimensionMismatch, match="no variable"):
        I.eliminate([i])
    with pytest.raises(ParseError, match="unknown variable"):
        I.eliminate(["z"])


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


def test_divide_exact_rejects_zero_and_inexact_divisors(rxy):
    with pytest.raises(ZeroIdealDivisor):
        divide_exact(rxy.parse("x^2 - 1"), rxy.zero())
    with pytest.raises(InvariantViolation, match="inexact"):
        divide_exact(rxy.parse("x^2 + 1"), rxy.parse("x - 1"))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize(
    "texts, unit",
    [
        ([], False),
        (["x - y"], False),
        (["x^2 - y", "y^2 - 1"], False),
        (["x*y - 1", "x"], True),
        (["3"], True),
    ],
)
def test_contains_one_agrees_with_reducing_one(field, texts, unit):
    R = PolyRing(field, ["x", "y"])
    I = Ideal(R, [R.parse(t) for t in texts])
    assert I.contains_one() == I.contains(R.one()) == unit


def test_divide_exact_checks_rings(rxy):
    # a divisor from another ring is an error, not a quotient read by position
    with pytest.raises(RingMismatch):
        divide_exact(rxy.parse("x^2 - 1"), qring("a", "b").parse("a - 1"))


def test_univariate_in(rxy):
    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    assert I.univariate_in(0) == rxy.parse("x - 1")
    assert I.univariate_in(1) == rxy.parse("y^2 - 2")


def test_univariate_in_reduces_only_powers_of_the_variable(record_calls, rxy):
    # 1, x reduce to a dependence for x - 1, and 1, y, y^2 for y^2 - 2: one
    # normal form per power, with no FGLM to an n-variable elimination order
    I = ideal(rxy, "x - 1", "y^2 - 2")
    calls = record_calls(ReducedGB, "nf_coords")
    assert I.univariate_in(0) == rxy.parse("x - 1")
    assert [call["exp"] for call in calls] == [(0, 0), (1, 0)]
    del calls[:]
    assert I.univariate_in(1) == rxy.parse("y^2 - 2")
    assert [call["exp"] for call in calls] == [(0, 0), (0, 1), (0, 2)]


def test_univariate_in_needs_zero_dimensional(rxy):
    with pytest.raises(NotZeroDimensional, match="zero-dimensional"):
        ideal(rxy, "x + y").univariate_in(0)


@pytest.mark.parametrize("i", [5, 2, -1])
def test_univariate_in_refuses_an_index_outside_the_variables(rxy, i):
    I = ideal(rxy, "x^2 - y", "y^2 - 1")
    with pytest.raises(DimensionMismatch, match="no variable"):
        I.univariate_in(i)
    assert I.univariate_in(0) == rxy.parse("x^4 - 1")


@pytest.mark.parametrize(
    "exp, error",
    [((-1, 0), ParseError), ((0, 0, 7), DimensionMismatch), ((1,), DimensionMismatch)],
    ids=["negative", "longer", "shorter"],
)
def test_nf_coords_refuses_a_malformed_exponent(rxy, exp, error):
    # checked before the exponent is packed: a negative entry would set a
    # guard bit and widen the slots without end, a wrong length would be
    # cut to the ring's or read as a shorter term
    gb = ideal(rxy, "x^2 - y", "y^2 - 1").groebner()
    with pytest.raises(error):
        gb.nf_coords(exp)
    assert gb.quotient_basis() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert gb.nf_coords((1, 2)) == (0, 0, 1, 0)


def test_groebner_cache_shared_between_equivalent_orders(rxy):
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3")
    a = I.groebner(TermOrder([[1, 1], [1, 0]]))
    b = I.groebner(TermOrder([[2, 2], [3, 1]]))  # same ordering, scaled/mixed
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


_ORDER_ENTRIES = {
    "Ideal.groebner": lambda I, pts, order: I.groebner(order),
    "Ideal.lt_ideal": lambda I, pts, order: I.lt_ideal(order),
    "Ideal.quotient_basis": lambda I, pts, order: I.quotient_basis(order),
    "ReducedGB": lambda I, pts, order: ReducedGB(I.ring, order, []),
    "ReducedGB.change_order": lambda I, pts, order: I.groebner().change_order(order),
    "ideal_of_points": lambda I, pts, order: ideal_of_points(pts, order),
    "Polynomial.leading_term": lambda I, pts, order: I.gens[0].leading_term(order),
    "Polynomial.monic": lambda I, pts, order: I.gens[0].monic(order),
    "Polynomial.to_str": lambda I, pts, order: I.gens[0].to_str(order),
}


@pytest.mark.parametrize("shift", [-1, 1], ids=["fewer", "more"])
@pytest.mark.parametrize("entry", sorted(_ORDER_ENTRIES))
def test_an_ordering_for_another_variable_count_is_refused(record_calls, entry, shift):
    # I = (x^2 - 1, y - x) in GF(7)[x, y] vanishes at (1, 1) and (6, 6).
    # Unchecked, lex(1) and lex(3) give wrong bases, an IndexError or a
    # ParseError; every entry that takes an ordering refuses them before
    # any basis is computed
    import gbfan.groebner
    import gbfan.points

    R = fring(7, "x", "y")
    I = ideal(R, "x^2 - 1", "y - x")
    pts = points(R, [(1, 1), (6, 6)])
    I.groebner()
    runs = record_calls(gbfan.groebner, "buchberger_dicts")
    fglm = record_calls(gbfan.groebner, "basis_from_functionals")
    bm = record_calls(gbfan.points, "basis_from_functionals")
    with pytest.raises(DimensionMismatch, match=f"ordering of {2 + shift} variables"):
        _ORDER_ENTRIES[entry](I, pts, lex(2 + shift))
    assert runs == fglm == bm == []
    assert list(I._cache) == [degrevlex(2)]
