"""Fan enumeration, the basic-set oracle, and model selection."""

import sys
from random import Random

import pytest

from gbfan import (
    Ideal,
    Polynomial,
    enumerate_basic_sets,
    enumerate_fan,
    fan_equal,
    fan_oracle_zerodim,
    gbasic_sets,
    gfan_number,
    minimal_models,
    natural_distraction,
    unique_gb_fast_check,
    vanishing_ideal,
    weight_order,
)
from gbfan.cli import main
from gbfan.errors import (
    BoundExceeded,
    NotZeroDimensional,
    DimensionMismatch,
    ZeroIdeal,
)
from gbfan.random_ideals import random_zero_dim_ideal, random_zero_dim_monomial_ideal
from gbfan.terms import term_str

from conftest import fring, ideal, points, qring, weight_refinement


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


def test_zero_dimensional_walk_runs_buchberger_once(monkeypatch):
    # every neighbor basis comes by FGLM from the start basis
    import gbfan.groebner

    runs = []
    real = gbfan.groebner.buchberger_dicts

    def counting(*args, **kwargs):
        runs.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(gbfan.groebner, "buchberger_dicts", counting)
    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    fan = enumerate_fan(I)
    assert fan.size > 2
    assert runs == [I.ring.default_order()]
    assert fan == fan_oracle_zerodim(I)


def test_walk_and_oracle_share_normal_forms(monkeypatch):
    # both routes read the normal forms of the ideal's one cached basis, so
    # no monomial is reduced twice
    import gbfan.groebner
    from gbfan.groebner import ReducedGB

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    I.groebner()
    requested, reduced = [], []
    real_coords = ReducedGB.nf_coords
    real_reduce = gbfan.groebner._reduce_dict

    def coords(self, exp):
        requested.append(exp)
        return real_coords(self, exp)

    def reduce(f, *args, **kwargs):
        reduced.append(tuple(f))
        return real_reduce(f, *args, **kwargs)

    monkeypatch.setattr(ReducedGB, "nf_coords", coords)
    monkeypatch.setattr(gbfan.groebner, "_reduce_dict", reduce)
    fan = enumerate_fan(I)
    assert fan.size > 2
    assert fan == fan_oracle_zerodim(I)
    assert all(len(f) == 1 for f in reduced)
    assert len(reduced) == len(set(requested)) < len(requested)


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
    gens = [g.coeffs for g in I.gens]
    for order, gb in zip(orders, results):
        dicts = buchberger_dicts(gens, order)
        assert gb.elements == tuple(Polynomial(I.ring, d) for d in dicts)


def test_walk_matches_facets_before_flipping(monkeypatch, rxy):
    # the second cone matches the shared facet by the first cone's flip
    # weight, so it solves no facet LP of its own
    import gbfan.fan
    from gbfan.cones import Cone

    lps, flips = [], []
    real_point = Cone.facet_interior_point
    real_flip = gbfan.fan.flip_order

    def point(self, v):
        lps.append(v)
        return real_point(self, v)

    def flip(w, v, n):
        flips.append(v)
        return real_flip(w, v, n)

    monkeypatch.setattr(Cone, "facet_interior_point", point)
    monkeypatch.setattr(gbfan.fan, "flip_order", flip)
    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    fan = enumerate_fan(I)
    assert fan.size == 2
    assert sum(len(mb.cone.ineqs) for mb in fan) == 2
    assert len(flips) == 1
    assert len(lps) == 1


def test_oracle_builds_no_cones(monkeypatch):
    # a marked basis determines its cone, so the oracle leaves cones to
    # whoever asks for them
    from gbfan.cones import Cone

    I = ideal(qring("x", "y", "z"), "x^2 - y*z", "y^2 - x*z", "z^2 - x*y", "x*y*z")
    fan = enumerate_fan(I)
    built = []
    real = Cone.from_vectors.__func__

    def counting(cls, vectors, n):
        built.append(n)
        return real(cls, vectors, n)

    monkeypatch.setattr(Cone, "from_vectors", classmethod(counting))
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
