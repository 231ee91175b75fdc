"""Fan enumeration, the basic-set oracle, and model selection."""

import sys
from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from gbfan import (
    Cone,
    Ideal,
    MarkedBasis,
    Polynomial,
    ReducedGB,
    TermOrder,
    enumerate_basic_sets,
    enumerate_fan,
    fan_equal,
    fan_oracle_zerodim,
    gbasic_sets,
    gfan_number,
    lex,
    minimal_models,
    natural_distraction,
    unique_gb_fast_check,
    vanishing_ideal,
    weight_order,
)
from gbfan.cli import main
from gbfan.fan import GroebnerFan, flip_order
from gbfan.files import load_ideal
from gbfan.errors import (
    BoundExceeded,
    InvariantViolation,
    NotZeroDimensional,
    DimensionMismatch,
    ZeroIdeal,
)
from gbfan.random_ideals import random_zero_dim_ideal, random_zero_dim_monomial_ideal
from gbfan.terms import term_str

from conftest import (
    fring,
    ideal,
    kernel_gens,
    packed_slots,
    points,
    qring,
    weight_refinement,
)
from test_cli import GF7_IDEAL, PINNED_INPUTS, SYMMETRIC_IDEAL


def test_principal_binomial_two_cones(rxy):
    fan = enumerate_fan(ideal(rxy, "x + y"))
    assert fan.size == 2
    assert {mb.basis.lt_key() for mb in fan} == {((1, 0),), ((0, 1),)}
    # one reduced basis spans both cones
    assert len({frozenset(mb.basis.elements) for mb in fan}) == 1
    assert gfan_number(ideal(rxy, "x + y")) == 2


def test_principal_trinomial_three_cones(rxyz):
    I = ideal(rxyz, "x + y + z")
    assert gfan_number(I) == 3
    fan = enumerate_fan(I)
    assert {mb.basis.lt_key() for mb in fan} == {
        ((1, 0, 0),),
        ((0, 1, 0),),
        ((0, 0, 1),),
    }


def test_symmetric_ideal_two_cones(rxy):
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    fan = enumerate_fan(I)
    assert fan.size == 2
    assert gfan_number(I) == 2
    oracle = fan_oracle_zerodim(I)
    assert fan == oracle


def test_boolean_points_fan_and_models():
    R = fring(2, "x", "y", "z")
    I = vanishing_ideal(points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)]))
    fan = enumerate_fan(I)
    assert fan.size == 2
    models = minimal_models(R.parse("y*z + y"), I)
    assert {m.to_str() for m in models} == {"x + 1", "y"}
    assert minimal_models(R.zero(), I) == {R.zero()}
    member = I.gens[0]
    assert minimal_models(member, I) == {R.zero()}


def test_unique_fast_check(rxy):
    R3 = qring("x", "y", "z")
    I = vanishing_ideal(points(R3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]))
    assert unique_gb_fast_check(I)
    assert gfan_number(I) == 1
    sym = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    assert not unique_gb_fast_check(sym)


def test_unique_fast_check_mixed_constants(rxy):
    # wrong-order distraction-style generators still give one basis
    I = ideal(
        rxy,
        "x*(x - 1/5)*(x - 2)*(x + 1)",
        "y*(y - 1)*(y - 2)",
        "(x - 2)*(y - 1)*(y - 2)",
        "(x + 1)*(x - 1/5)*(y - 1)",
    )
    assert unique_gb_fast_check(I)
    gb = I.groebner()
    assert {g.to_str(gb.order) for g in gb} == {
        "x^4 - 6/5*x^3 - 9/5*x^2 + 2/5*x",
        "y^2 - 3*y + 2",
        "x^2*y - x^2 + 4/5*x*y - 4/5*x - 1/5*y + 1/5",
    }
    assert gfan_number(I) == 1
    # the same ideal is the distraction of a different monomial ideal,
    # with the constants consumed in a different order
    from gbfan import QQ, MonomialIdeal, distraction_ideal

    other = MonomialIdeal(2, [(4, 0), (0, 2), (2, 1)])
    pi = (
        tuple(QQ.parse(c) for c in ("-1", "1/5", "0", "2")),
        tuple(QQ.parse(c) for c in ("1", "2")),
    )
    assert distraction_ideal(rxy, other, pi).equals(I)


def test_zero_ideal_rejected(rxy):
    with pytest.raises(ZeroIdeal):
        enumerate_fan(Ideal(rxy, []))
    with pytest.raises(ZeroIdeal):
        gfan_number(Ideal(rxy, []))


def test_oracle_rejects_zero_ideal_before_reading_its_basis(rxy):
    with pytest.raises(ZeroIdeal):
        fan_oracle_zerodim(Ideal(rxy, []))


def test_unit_ideal_single_cone(rxy):
    I = ideal(rxy, "1")
    fan = enumerate_fan(I)
    assert fan.size == 1 and fan.cones[0].cone.ineqs == ()
    assert gfan_number(I) == 1


def test_unit_ideal_basic_sets_and_oracle(rxy, tmp_path, capsys):
    I = ideal(rxy, "1")
    assert enumerate_basic_sets(I) == [[]]
    assert gbasic_sets(enumerate_fan(I)) == [[]]
    assert fan_oracle_zerodim(I) == enumerate_fan(I)
    path = tmp_path / "unit.txt"
    path.write_text("# field: QQ\n# vars: x, y\n1\n")
    assert main(["basic-sets", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"schema": 1, "basic_sets": [""]}\n'
    # multiplicity 0, so the smallest bound the CLI accepts lets it through
    assert main(["basic-sets", str(path), "--bound", "0"]) == 0
    assert capsys.readouterr().out == "\n"


@pytest.mark.parametrize(
    "gens, size",
    [(("x^2 - y", "y^2 - x*z"), 6), (("x^2 - y^3", "x*y - z"), 9)],
)
def test_positive_dimensional_walk_covers_sampled_weights(rxyz, gens, size):
    I = ideal(rxyz, *gens)
    fan = enumerate_fan(I)
    assert fan.size == size
    rng = Random(37)
    for _ in range(40):
        w = tuple(rng.randint(1, 40) for _ in range(3))
        key = I.groebner(weight_refinement(w)).lt_key()
        assert any(mb.basis.lt_key() == key and mb.cone.contains(w) for mb in fan)


def test_zero_dimensional_walk_runs_buchberger_once(record_calls):
    # every neighbor basis comes by FGLM from the start basis
    import gbfan.groebner

    calls = record_calls(gbfan.groebner, "buchberger_dicts")
    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    fan = enumerate_fan(I)
    runs = [call["order"] for call in calls]
    assert fan.size > 2
    assert runs == [I.ring.default_order()]
    assert fan == fan_oracle_zerodim(I)


def test_walk_caches_only_the_start_basis(rxyz):
    # every flip basis is converted from the start basis, so a
    # positive-dimensional walk leaves the ideal's cache as it found it
    I = ideal(rxyz, "x^2 - y^3", "x*y - z")
    assert enumerate_fan(I).size == 9
    assert list(I._cache) == [rxyz.default_order()]


def test_walk_and_oracle_share_normal_forms(record_calls):
    # both routes read the normal forms of the ideal's one cached basis, so
    # no monomial is reduced twice
    import gbfan.groebner
    from gbfan.groebner import ReducedGB

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    I.groebner()
    coords = record_calls(ReducedGB, "nf_coords")
    reductions = record_calls(gbfan.groebner, "_reduce_dict")
    fan = enumerate_fan(I)
    assert fan.size > 2
    assert fan == fan_oracle_zerodim(I)
    requested = [call["exp"] for call in coords]
    reduced = [tuple(call["f"]) for call in reductions]
    assert all(len(f) == 1 for f in reduced)
    assert len(reduced) == len(set(requested)) < len(requested)


def test_oracle_leaves_no_reference_cycles():
    # the oracle's walk is module-level, with no closure to hold a cycle,
    # so its data is freed by reference counting and peak memory does not
    # wait on the cycle collector
    import gc

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    gc.collect()
    gc.disable()
    try:
        assert fan_oracle_zerodim(I).size > 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_concurrent_change_order_on_one_basis():
    # eight threads flip from one cached basis while filling its
    # normal-form cache; each gets the basis that Buchberger computes
    from concurrent.futures import ThreadPoolExecutor

    from gbfan.groebner import buchberger_dicts

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    start = I.groebner()
    weights = [(1, 2, 3), (3, 2, 1), (5, 1, 1), (1, 4, 1), (2, 7, 3)]
    orders = [weight_order(w) for w in weights] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(start.change_order, orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    gens = kernel_gens(I.ring, I.gens)
    for order, gb in zip(orders, results):
        pairs = buchberger_dicts(gens, order, 0)
        got = list(zip(gb.lt_exps, gb.elements))
        assert got == [(lt, Polynomial(I.ring, d)) for lt, d in pairs]


def test_walk_matches_facets_before_flipping(record_calls, rxy):
    # the second cone's facet has the first cone's flip weight, the sum of
    # the rays the two cones share on it, so the walk flips it only once
    import gbfan.fan

    flips = record_calls(gbfan.fan, "flip_order")
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    fan = enumerate_fan(I)
    assert fan.size == 2
    assert sum(len(mb.cone.ineqs) for mb in fan) == 2
    # degrevlex leads x^2 + x*y + y^2 by x^2, on the side x >= y
    assert [(call["weight"], call["crossing"]) for call in flips] == [((1, 1), (1, -1))]


def test_oracle_builds_no_cones(record_calls):
    # a marked basis determines its cone, so the oracle leaves cones to
    # whoever asks for them
    from gbfan.cones import Cone

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    fan = enumerate_fan(I)
    built = record_calls(Cone, "from_vectors")
    oracle = fan_oracle_zerodim(I)
    assert built == []
    assert fan == oracle
    assert built == []
    assert fan_equal(fan, oracle)
    assert len(built) == oracle.size


def test_gbasic_sets(rxy):
    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    sets = gbasic_sets(enumerate_fan(I))
    assert sets == [[(0, 0), (0, 1)]]
    grid = ideal(rxy, "x^2 - x", "y^2 - y")
    assert gbasic_sets(enumerate_fan(grid)) == [[(0, 0), (0, 1), (1, 0), (1, 1)]]
    with pytest.raises(NotZeroDimensional):
        gbasic_sets(enumerate_fan(ideal(rxy, "x + y")))


def test_gbasic_sets_boolean_demo():
    R = fring(2, "x", "y", "z")
    I = vanishing_ideal(points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)]))
    sets = {tuple(s) for s in gbasic_sets(enumerate_fan(I))}
    assert sets == {
        ((0, 0, 0), (0, 0, 1), (1, 0, 0)),  # 1, z, x
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),  # 1, z, y
    }


def test_fan_equal_basics(rxy):
    f1 = enumerate_fan(ideal(rxy, "x + y"))
    assert fan_equal(f1, f1)
    f2 = enumerate_fan(ideal(rxy, "x - 2*y"))
    assert fan_equal(f1, f2)  # same cones, different bases
    f3 = enumerate_fan(ideal(rxy, "x + y^2"))
    assert not fan_equal(f1, f3)
    with pytest.raises(DimensionMismatch):
        fan_equal(f1, enumerate_fan(ideal(qring("x", "y", "z"), "x + y + z")))


def test_enumerate_basic_sets_symmetric_example(rxy):
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    sets = {tuple(s) for s in enumerate_basic_sets(I)}
    names = lambda s: [term_str(t, rxy.vars) for t in s]
    as_names = {tuple(names(s)) for s in sets}
    assert ("1", "y", "y^2", "x", "x^2") in as_names  # the symmetric one
    g_basic = {tuple(s) for s in gbasic_sets(enumerate_fan(I))}
    assert g_basic <= sets
    assert len(sets) == 3


def test_single_basic_set_when_fan_is_one_cone(rxy):
    grid = ideal(rxy, "x^2 - x", "y^2 - y")
    sets = enumerate_basic_sets(grid)
    assert len(sets) == 1
    assert sets[0] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_basic_sets_bound(rxy):
    grid = ideal(rxy, "(x^4 - x)*(x-2)*(x-3)*(x+1)", "(y^4 - y)*(y-2)*(y-3)*(y+1)")
    with pytest.raises(BoundExceeded):
        enumerate_basic_sets(grid, bound=12)


def test_basic_sets_carry_representations_only_for_the_oracle(record_calls):
    # enumerate_basic_sets keeps only the terms, so its reductions track no
    # combination; the oracle's walk finds the same sets with each row's
    # combination, which its corner reductions need.  Over QQ rows and
    # their combinations are ints, and the corners' relations Fractions.
    # Over GF(32003) a row is packed: n vector slots, then, when it is
    # represented, the coefficients of the terms of the rows up to its own;
    # every slot is a residue, the pivot's is 1, and relations hold residues
    import gbfan.fan

    gens = ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    calls = record_calls(gbfan.fan, "echelon_reduce")
    found = []
    for R in (qring("x", "y", "z"), fring(32003, "x", "y", "z")):
        I = ideal(R, *gens)
        p = R.field.characteristic
        n = I.multiplicity()
        calls.clear()
        sets = enumerate_basic_sets(I)
        bare = len(calls)
        assert len(sets) > 1 and bare > 0
        assert all(call["term"] is None for call in calls)
        represented = list(gbfan.fan._basic_sets_data(I.groebner(), 12, represent=True))
        assert [terms for terms, _, _ in represented] == sets
        assert len(calls) == 2 * bare
        assert all(call["term"] is not None for call in calls[bare:])
        for call in calls[:bare]:
            pivot, row, rep = call["return"]
            assert rep is None
            if p and pivot is not None:
                assert packed_slots(row, n, n, p)[pivot] == 1
        for _, _, rows in represented:
            for j, (pivot, row, rep) in enumerate(rows):
                if p:
                    slots = packed_slots(row, n + j + 1, n, p)
                    assert all(0 <= a < p for a in slots)
                    assert slots[pivot] == 1 and slots[n + j] and rep is not None
                else:
                    assert all(type(a) is int for a in row + list(rep.values()))
        calls.clear()
        fan_oracle_zerodim(I)
        zero = [call for call in calls if call["return"][0] is None]
        assert zero and all(call["return"][2][call["term"]] == 1 for call in zero)
        values = [c for call in zero for c in call["return"][2].values()]
        if p:
            assert all(type(c) is int and 0 <= c < p for c in values)
        else:
            assert all(type(c) is Fraction for c in values)
        found.append(sets)
    assert found[0] == found[1]


def test_walk_solves_no_lp(record_calls):
    # a walked basis is certified by its own ordering when it is marked,
    # and each facet's weight is a sum of the cone's rays, so the walk
    # leaves Fourier-Motzkin to the oracle
    import gbfan.cones

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    solves = record_calls(gbfan.cones, "solve_system")
    facets = record_calls(Cone, "facet_interior_point")
    assert enumerate_fan(I).size == 6
    assert len(facets) > 0
    assert solves == []


def test_marked_basis_rejects_a_term_its_ordering_does_not_lead(rxy):
    # y is a realizable marking of x + y, but not the one lex gives
    basis = ReducedGB(rxy, lex(2), [((0, 1), {(1, 0): 1, (0, 1): 1})])
    with pytest.raises(InvariantViolation, match="does not lead"):
        MarkedBasis(basis)


def test_marked_basis_keys_each_term_once(record_calls):
    # a flip basis's marking check keys each term once, and its reductions
    # key none, since they compare packed terms; the basis builds its
    # reducers only once it reduces
    R = qring("x", "y", "z")
    I = ideal(R, "x^2 - y*z + 1", "y^2 - x*z + 2", "z^2 - x*y + 3")
    flip = I.groebner().change_order(lex(3))
    standard = flip.quotient_basis()
    calls = record_calls(TermOrder, "key")
    MarkedBasis(flip)
    assert flip._kernel is None
    checked = [call["exp"] for call in calls]
    calls.clear()
    for g in I.gens:
        assert flip.reduce(g).is_zero()
    for t in standard:
        flip.nf_coords(tuple(2 * e for e in t))
    assert calls == []
    assert checked
    assert len(checked) == len(set(checked))


def test_oracle_requires_zero_dimensional(rxy):
    with pytest.raises(NotZeroDimensional):
        fan_oracle_zerodim(ideal(rxy, "x + y"))
    with pytest.raises(NotZeroDimensional):
        enumerate_basic_sets(ideal(rxy, "x + y"))


def test_fan_matches_oracle_on_random_ideals():
    rng = Random(17)
    rings = [qring("x", "y"), fring(5, "x", "y"), qring("x", "y", "z")]
    for _ in range(12):
        R = rng.choice(rings)
        I = random_zero_dim_ideal(rng, R, max_mult=7)
        fan = enumerate_fan(I)
        oracle = fan_oracle_zerodim(I)
        assert fan == oracle
        assert unique_gb_fast_check(I) == (fan.size == 1)


def test_natural_distraction_has_one_cone():
    rng = Random(23)
    R = qring("x", "y")
    for _ in range(5):
        M = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        D = natural_distraction(R, M)
        assert gfan_number(D) == 1


def test_fan_cones_cover_orthant_by_sampling(rxy):
    rng = Random(31)
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    fan = enumerate_fan(I)
    for _ in range(25):
        w = (rng.randint(1, 30), rng.randint(1, 30))
        assert any(mb.cone.contains(w) for mb in fan)


def _eager_walk(ideal):
    """The walk as it was before it kept unmatched facets, a reference for
    `enumerate_fan`'s text: it flips every facet whose weight it has not
    flipped yet, at once, and drops a flip whose cone it has found."""
    n = ideal.ring.nvars
    start = ideal.groebner()
    visited = {}
    flipped = set()
    stack = [start]
    while stack:
        gb = stack.pop()
        key = gb.lt_key()
        if key in visited:
            continue
        visited[key] = MarkedBasis(gb)
        cone = visited[key].cone
        for v in cone.ineqs:
            w = cone.facet_interior_point(v)
            if w in flipped:
                continue
            flipped.add(w)
            neighbor = start.change_order(flip_order(w, v, n))
            if neighbor.lt_key() not in visited:
                stack.append(neighbor)
    return GroebnerFan(ideal.ring, visited.values())


def _fan_text(fan):
    """Each cone and its basis as `gbfan fan` prints them, in its ordering."""
    return "\n".join(
        "\n".join([str(mb.cone), *(g.to_str(mb.basis.order) for g in mb.basis)])
        for mb in fan
    )


def _check_one_flip_per_cone(ideal):
    expected = _fan_text(_eager_walk(ideal))
    real = ReducedGB.change_order
    with patch.object(ReducedGB, "change_order", autospec=True, side_effect=real) as flips:
        fan = enumerate_fan(ideal)
    assert _fan_text(fan) == expected
    assert flips.call_count == fan.size - 1


# the fans that `gbfan fan` prints in tests/test_cli.py, then three more
# positive-dimensional ones
@pytest.mark.parametrize(
    "text, field",
    [
        pytest.param(PINNED_INPUTS["fracs.ideal"], None, id="fracs-fan"),
        pytest.param(PINNED_INPUTS["fracs.ideal"], "GF(32003)", id="fracs-fan-gf"),
        pytest.param(PINNED_INPUTS["posdim.ideal"], None, id="posdim-fan-and-x2-y3"),
        pytest.param(SYMMETRIC_IDEAL, None, id="symmetric"),
        pytest.param(GF7_IDEAL, None, id="gf7"),
        pytest.param("# field: QQ\n# vars: x, y, z\nx^3 - y*z\ny^2 - x*z^2\n", None, id="x3-yz"),
        pytest.param(
            "# field: GF(32003)\n# vars: x, y, z\nx^2*y - z^3 + 1\nx*z - y^2\n",
            None,
            id="x2y-z3-gf",
        ),
        pytest.param(
            "# field: QQ\n# vars: x, y, z, w\nx*z - y^2\nx*w - y*z\ny*w - z^2\n",
            None,
            id="twisted-cubic",
        ),
    ],
)
def test_walk_flips_once_per_cone_and_prints_the_eager_walks_text(tmp_path, text, field):
    path = tmp_path / "ideal.txt"
    path.write_text(text)
    _check_one_flip_per_cone(load_ideal(str(path), field)[1])


@st.composite
def _point_ideals(draw):
    """Vanishing ideals of up to 10 points in 3 variables, or 6 in 4."""
    n = draw(st.sampled_from([3, 4]))
    names = ("x", "y", "z", "w")[:n]
    R = draw(st.sampled_from([qring(*names), fring(32003, *names)]))
    coords = st.tuples(*[st.integers(-9, 9)] * n)
    pts = draw(st.sets(coords, min_size=1, max_size=10 if n == 3 else 6))
    return vanishing_ideal(points(R, sorted(pts)))


@settings(max_examples=40, deadline=None)
@given(_point_ideals())
def test_point_fans_flip_once_per_cone_and_print_the_eager_walks_text(I):
    _check_one_flip_per_cone(I)


def test_a_flip_onto_a_found_cone_raises(monkeypatch):
    # a facet whose two sides give different weights is never matched, so
    # its second flip reaches the cone that the first flip started from
    real = Cone.facet_interior_point

    def lopsided(cone, v):
        w = real(cone, v)
        return tuple(2 * x for x in w) if next(x for x in v if x) < 0 else w

    monkeypatch.setattr(Cone, "facet_interior_point", lopsided)
    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    assert _eager_walk(I).size == 6
    with pytest.raises(InvariantViolation, match="found cone"):
        enumerate_fan(I)
