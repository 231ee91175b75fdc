"""Acceptance suite.

Every check is exact (all arithmetic is exact, so every tolerance is zero).
One PASS/FAIL line per criterion is printed; run with ``pytest -s`` to see
them.  Expected runtime for this module: well under two minutes.
"""

from contextlib import contextmanager
from random import Random

import pytest

from gbfan import (
    GF,
    QQ,
    GridSpec,
    Ideal,
    LinearShift,
    MonomialIdeal,
    PointSet,
    degrevlex,
    distraction_ideal,
    distraction_term,
    enumerate_basic_sets,
    enumerate_fan,
    fan_equal,
    fan_oracle_zerodim,
    field_equation_grid,
    gfan_number,
    minimal_models,
    natural_distraction,
    staircase,
    subset_complement_ideals,
    unique_gb_fast_check,
    vanishing_ideal,
)
from gbfan.random_ideals import (
    random_linear_shift,
    random_zero_dim_ideal,
    random_zero_dim_monomial_ideal,
)

from conftest import fring, ideal, points, qring, socle_bijection_holds


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {num}: FAIL ({label})")
        raise
    print(f"acceptance criterion {num}: PASS ({label})")


def basis_set(gb) -> frozenset:
    return frozenset(gb.elements)


def parse_bases(ring, bases) -> set[frozenset]:
    return {frozenset(ring.parse(t) for t in b) for b in bases}


def fan_bases(fan) -> set[frozenset]:
    return {basis_set(mb.basis) for mb in fan.cones}


# ---------------------------------------------------------------------------


def test_criterion_1_boolean_model_selection():
    with criterion(1, "boolean network demo: two bases, two models"):
        R = fring(2, "x", "y", "z")
        I = vanishing_ideal(points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)]))
        fan = enumerate_fan(I)
        assert fan.size == 2
        expected = parse_bases(
            R,
            [
                ("x^2 + x", "z^2 + z", "y + x + 1", "x*z + z"),
                ("y^2 + y", "z^2 + z", "x + y + 1", "y*z"),
            ],
        )
        assert fan_bases(fan) == expected
        models = minimal_models(R.parse("y*z + y"), I)
        assert models == {R.parse("x + 1"), R.parse("y")}


def test_criterion_2_small_fans_and_shift():
    with criterion(2, "two- and three-cone fans; shift keeps leading-term ideals"):
        R = qring("x", "y")
        I = ideal(R, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
        fan = enumerate_fan(I)
        assert fan.size == 2 and gfan_number(I) == 2
        lt_keys = {mb.basis.lt_key() for mb in fan}
        j1 = tuple(sorted([(2, 0), (1, 2), (0, 3)]))
        j2 = tuple(sorted([(3, 0), (2, 1), (0, 2)]))
        assert lt_keys == {j1, j2}
        assert gfan_number(ideal(R, "x + y")) == 2
        assert gfan_number(ideal(qring("x", "y", "z"), "x + y + z")) == 3
        shift = LinearShift(
            R, (QQ.one(), QQ.one()), (QQ.from_int(1), QQ.from_int(-2))
        )
        shifted = Ideal(R, [shift.apply(g) for g in I.gens])
        assert {mb.basis.lt_key() for mb in enumerate_fan(shifted)} == {j1, j2}


def test_criterion_3_nonradical_grid_split():
    with criterion(3, "non-radical grid split: 24 = 7 + 17, equal two-cone fans"):
        R = qring("x", "y")
        spec = GridSpec.from_polys(
            R, [R.parse("x*(x^2+1)^2*(x-1)"), R.parse("(y^3-1)*(y+2)")]
        )
        c1 = ideal(R, "x - 1", "y^2 + y + 1")
        c2 = ideal(R, "y + 2", "x")
        c3 = ideal(R, "y + 2", "x^4 + 2*x^2 + 1")
        I1 = c1.intersect(c2).intersect(c3)
        grid = spec.ideal()
        I2 = grid.colon(I1)
        assert (grid.multiplicity(), I1.multiplicity(), I2.multiplicity()) == (24, 7, 17)

        gb1 = I1.groebner()
        assert basis_set(gb1) == frozenset(
            R.parse(t)
            for t in (
                "x*y +2*x -y -2",
                "y^3 +3*y^2 +3*y +2",
                "x^5 +2*x^3 +(4/3)*y^2 +x +(4/3)*y -8/3",
            )
        )
        gb2 = I2.groebner()
        assert basis_set(gb2) == frozenset(
            R.parse(t)
            for t in (
                "y^4 +2*y^3 -y -2",
                "x*y^3 -y^3 -x +1",
                "x^5*y -x^5 +2*x^3*y -2*x^3 +(-4/3)*y^3 +x*y -x +4/3",
                "x^6 -x^5 +2*x^4 -2*x^3 +x^2 -x",
            )
        )
        fan1, fan2 = enumerate_fan(I1), enumerate_fan(I2)
        assert fan1.size == 2 and fan2.size == 2
        assert gfan_number(I1) == 2 and gfan_number(I2) == 2
        assert fan_equal(fan1, fan2)
        assert fan_bases(fan1) == parse_bases(
            R,
            [
                (
                    "x*y +2*x -y -2",
                    "y^3 +3*y^2 +3*y +2",
                    "x^5 +2*x^3 +(4/3)*y^2 +x +(4/3)*y -8/3",
                ),
                (
                    "x*y -y +2*x -2",
                    "y^2 +(3/4)*x^5 +(3/2)*x^3 +y +(3/4)*x -2",
                    "x^6 -x^5 +2*x^4 -2*x^3 +x^2 -x",
                ),
            ],
        )
        assert fan_bases(fan2) == parse_bases(
            R,
            [
                (
                    "y^4 +2*y^3 -y -2",
                    "x*y^3 -y^3 -x +1",
                    "x^5*y -x^5 +2*x^3*y -2*x^3 +(-4/3)*y^3 +x*y -x +4/3",
                    "x^6 -x^5 +2*x^4 -2*x^3 +x^2 -x",
                ),
                (
                    "y^3 +(-3/4)*x^5*y +(-3/2)*x^3*y +(3/4)*x^5 +(-3/4)*x*y "
                    "+(3/2)*x^3 +(3/4)*x -1",
                    "x^5*y^2 +2*x^3*y^2 +x^5*y +x*y^2 +2*x^3*y -2*x^5 +x*y "
                    "-4*x^3 -2*x",
                    "x^6 -x^5 +2*x^4 -2*x^3 +x^2 -x",
                ),
            ],
        )
        # sorted quotient bases as printed
        qb1 = [R.parse(t).leading_term(degrevlex(2))[0] for t in
               ("1", "y", "x", "y^2", "x^2", "x^3", "x^4")]
        assert I1.quotient_basis(degrevlex(2)) == qb1


def test_criterion_4_radical_grid_split():
    with criterion(4, "radical grid split: 12 = 2 + 10, one-cone fans"):
        R = qring("x", "y")
        grid = ideal(R, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)")
        J1 = grid + ideal(R, "x - 1 + y^2 - 2")
        J2 = grid.colon(J1)
        assert (grid.multiplicity(), J1.multiplicity(), J2.multiplicity()) == (12, 2, 10)
        assert basis_set(J1.groebner()) == frozenset(
            {R.parse("x - 1"), R.parse("y^2 - 2")}
        )
        assert basis_set(J2.groebner()) == frozenset(
            R.parse(t)
            for t in (
                "y^3 +2*y^2 -2*y -4",
                "x^3*y +2*x^3 -2*x^2*y -4*x^2 +x*y +2*x -2*y -4",
                "x^4 -3*x^3 +3*x^2 -3*x +2",
            )
        )
        assert enumerate_fan(J1).size == 1
        assert enumerate_fan(J2).size == 1
        assert sorted(J1.quotient_basis()) == [(0, 0), (0, 1)]
        printed = ["1", "y", "y^2", "x", "x*y", "x*y^2", "x^2", "x^2*y",
                   "x^2*y^2", "x^3"]
        expected = [next(iter(R.parse(t).coeffs)) for t in printed]
        assert sorted(J2.quotient_basis()) == expected


def test_criterion_5_field_equation_split():
    with criterion(5, "field-equation split over GF(3): 27 = 9 + 18, four cones"):
        R = fring(3, "x", "y", "z")
        grid = field_equation_grid(R).ideal()
        J1 = grid + ideal(R, "x^2 - y - z")
        J2 = grid.colon(J1)
        assert (grid.multiplicity(), J1.multiplicity(), J2.multiplicity()) == (27, 9, 18)
        fan1, fan2 = enumerate_fan(J1), enumerate_fan(J2)
        assert fan1.size == 4 and fan2.size == 4
        assert fan_bases(fan1) == parse_bases(
            R,
            [
                ("x^2 -y -z", "z^3 -z", "x*y +x*z -x", "y^2 -y*z +z^2 -y -z"),
                ("x^2 -z -y", "y^3 -y", "x*z +x*y -x", "z^2 -y*z +y^2 -z -y"),
                ("y -x^2 +z", "x^3 -x", "z^3 -z"),
                ("z +y -x^2", "x^3 -x", "y^3 -y"),
            ],
        )
        assert fan_bases(fan2) == parse_bases(
            R,
            [
                (
                    "z^3 -z",
                    "y^3 -y",
                    "x*y^2 -x*y*z +x*z^2 +x*y +x*z",
                    "x^2*y +x^2*z +x^2 +y^2 -y*z +z^2 -1",
                    "x^3 -x",
                ),
                (
                    "y^3 -y",
                    "x^3 -x",
                    "x^2*z +x^2*y +z^2 +x^2 -y*z +y^2 -1",
                    "x*z^2 -x*y*z +x*y^2 +x*z +x*y",
                    "z^3 -z",
                ),
                ("x^3 -x", "z^3 -z", "y^2 +x^2*y -y*z +x^2*z +z^2 +x^2 -1"),
                ("x^3 -x", "z^2 -y*z +y^2 +x^2*z +x^2*y +x^2 -1", "y^3 -y"),
            ],
        )
        printed_qb1 = ["1", "z", "z^2", "y", "y*z", "y*z^2", "x", "x*z", "x*z^2"]
        expected_qb1 = [next(iter(R.parse(t).coeffs)) for t in printed_qb1]
        assert sorted(J1.quotient_basis()) == expected_qb1
        assert fan_equal(fan1, fan2)


def test_criterion_6_grid_minus_grid():
    with criterion(6, "full design minus sub-design: one-cone fan, exact basis"):
        R = qring("x", "y")
        X = GridSpec.from_roots(
            R,
            [[QQ.from_int(i) for i in range(5)], [QQ.from_int(i) for i in range(4)]],
        )
        white = points(R, [(0, 1), (0, 3), (1, 1), (1, 3), (3, 1), (3, 3)])
        black_ideal = X.ideal().colon(vanishing_ideal(white))
        I1, I2 = subset_complement_ideals(X.points(), white)
        assert black_ideal.equals(I2)
        fan = enumerate_fan(black_ideal)
        assert fan.size == 1
        assert basis_set(black_ideal.groebner()) == frozenset(
            R.parse(t)
            for t in (
                "x^2*y^2 -2*x^2*y -6*x*y^2 +12*x*y +8*y^2 -16*y",
                "y^4 -6*y^3 +11*y^2 -6*y",
                "x^5 -10*x^4 +35*x^3 -50*x^2 +24*x",
            )
        )


def test_criterion_7_distraction_suite():
    with criterion(7, "distraction suite: exact expansions plus 50 random staircases"):
        R = qring("x", "y")
        pi = (
            tuple(QQ.from_int(c) for c in (3, 2, 5)),
            tuple(QQ.from_int(c) for c in (2, -1, 3, 12)),
        )
        assert distraction_term(R, (3, 1), pi) == R.parse("(x-3)*(x-2)*(x-5)*(y-2)")
        assert distraction_term(R, (2, 4), pi) == R.parse(
            "(x-3)*(x-2)*(y-2)*(y+1)*(y-3)*(y-12)"
        )

        mono = MonomialIdeal(2, [(4, 0), (0, 3), (2, 1), (1, 2)])
        pts7 = points(
            R,
            [("0", "0"), ("0", "1"), ("0", "2"), ("1/5", "0"), ("1/5", "1"),
             ("2", "0"), ("-1", "0")],
        )
        spec7 = (
            tuple(QQ.parse(c) for c in ("0", "1/5", "2", "-1")),
            tuple(QQ.parse(c) for c in ("0", "1", "2")),
        )
        assert vanishing_ideal(pts7).equals(distraction_ideal(R, mono, spec7))

        stair_mono = MonomialIdeal(2, [(5, 0), (4, 1), (1, 2), (0, 4)])
        nat = natural_distraction(R, stair_mono)
        assert set(nat.gens) == {
            R.parse("x*(x-1)*(x-2)*(x-3)*(x-4)"),
            R.parse("x*(x-1)*(x-2)*(x-3)*y"),
            R.parse("x*y*(y-1)"),
            R.parse("y*(y-1)*(y-2)*(y-3)"),
        }

        rng = Random(314)
        R3 = qring("x", "y", "z")
        for trial in range(50):
            n = 2 if trial % 2 else 3
            ring = R if n == 2 else R3
            mono = random_zero_dim_monomial_ideal(rng, n, max_degree=4)
            assert vanishing_ideal(staircase(ring, mono)).equals(
                natural_distraction(ring, mono)
            )


# ---------------------------------------------------------------------------
# criterion 8: theorem-level property suites


@pytest.fixture(scope="module")
def corpus():
    """>= 100 random zero-dimensional ideals over QQ and GF(5) with
    multiplicity <= 10, with both fan routes precomputed."""
    rng = Random(2024)
    rings = [
        qring("x", "y"),
        fring(5, "x", "y"),
        qring("x", "y", "z"),
        fring(5, "x", "y", "z"),
    ]
    entries = []
    while len(entries) < 104:
        ring = rings[len(entries) % len(rings)]
        cap = rng.choice((3, 4, 4, 5, 5, 6, 6, 7, 8, 10))
        I = random_zero_dim_ideal(rng, ring, max_mult=cap)
        fan = enumerate_fan(I)
        oracle = fan_oracle_zerodim(I, bound=12)
        entries.append((ring, I, fan, oracle))
    return entries


def test_criterion_8i_fan_matches_oracle(corpus):
    with criterion(8, "(i) flip enumeration equals basic-set oracle and Buchberger on the corpus"):
        assert len(corpus) >= 100
        fields = {ring.field.name for ring, _, _, _ in corpus}
        assert fields == {"QQ", "GF(5)"}
        for ring, I, fan, oracle in corpus:
            assert fan == oracle
            # Buchberger from scratch (a fresh ideal has an empty cache) is
            # the walk's reference, since FGLM flips and the oracle share
            # the normal-form table
            for mb in fan:
                assert Ideal(ring, I.gens).groebner(mb.basis.order) == mb.basis
        # cones tile the orthant: a sampled weight lies in exactly the
        # cone whose marking its own basis realizes
        rng = Random(5150)
        from conftest import weight_refinement

        for ring, I, fan, _ in corpus[:30]:
            for _ in range(2):
                w = tuple(rng.randint(1, 19) for _ in range(ring.nvars))
                homes = [mb for mb in fan if mb.cone.contains(w)]
                assert homes
                gb = I.groebner(weight_refinement(w))
                assert any(mb.basis.lt_key() == gb.lt_key() for mb in homes)


def test_criterion_8ii_unique_check_matches_fan_size(corpus):
    with criterion(8, "(ii) factor-closed test equals one-cone condition"):
        for _, I, fan, _ in corpus:
            assert unique_gb_fast_check(I) == (fan.size == 1)


def test_criterion_8iii_complementary_pairs():
    with criterion(8, "(iii) 50 random complementary pairs share fans and socle maps"):
        rng = Random(77)
        done = 0
        shapes2 = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)]
        while done < 50:
            if done % 3 == 2:
                ring = fring(5, "x", "y")
            elif done % 3 == 1:
                ring = fring(3, "x", "y")
            else:
                ring = qring("x", "y")
            dx, dy = rng.choice(shapes2)
            p = ring.field.characteristic
            pool = list(range(p if p else 6))
            if len(pool) < max(dx, dy):
                continue
            spec = GridSpec.from_roots(
                ring,
                [
                    [ring.field.from_int(v) for v in rng.sample(pool, dx)],
                    [ring.field.from_int(v) for v in rng.sample(pool, dy)],
                ],
            )
            X = spec.points()
            size = rng.randint(1, len(X) - 1)
            subset = PointSet(ring, rng.sample(list(X.points), size))
            I1, I2 = subset_complement_ideals(X, subset)
            assert fan_equal(enumerate_fan(I1), enumerate_fan(I2))
            assert socle_bijection_holds(spec, I1, I2)
            assert socle_bijection_holds(spec, I2, I1)
            done += 1


def test_criterion_8iv_shift_invariance(corpus):
    with criterion(8, "(iv) leading-term ideal sets survive linear shifts"):
        rng = Random(99)
        small = [e for e in corpus if e[1].multiplicity() <= 6][:12]
        assert len(small) == 12
        for ring, I, fan, _ in small:
            before = {mb.basis.lt_key() for mb in fan}
            for _ in range(5):
                shift = random_linear_shift(rng, ring)
                shifted = Ideal(ring, [shift.apply(g) for g in I.gens])
                after = {mb.basis.lt_key() for mb in enumerate_fan(shifted)}
                assert before == after


def test_criterion_8v_monomial_identities():
    with criterion(8, "(v) order-ideal identities for 50 random monomial pairs"):
        rng = Random(55)
        R2 = qring("x", "y")
        R3 = qring("x", "y", "z")
        for trial in range(50):
            n = 2 if trial % 2 else 3
            ring = R2 if n == 2 else R3
            m1 = random_zero_dim_monomial_ideal(rng, n, max_degree=3)
            m2 = random_zero_dim_monomial_ideal(rng, n, max_degree=3)
            o1, o2 = set(m1.order_ideal()), set(m2.order_ideal())
            assert set((m1 + m2).order_ideal()) == o1 & o2
            assert set(m1.intersect(m2).order_ideal()) == o1 | o2
            s1 = set(staircase(ring, m1).points)
            s2 = set(staircase(ring, m2).points)
            assert set(staircase(ring, m1.intersect(m2)).points) == s1 | s2
            if trial % 5 == 0:
                degrees = [0] * n
                for g in list(m1.gens) + list(m2.gens):
                    degrees = [max(d, e) for d, e in zip(degrees, g)]
                pi = [
                    tuple(QQ.from_int(v) for v in rng.sample(range(-6, 7), d))
                    for d in degrees
                ]
                left = distraction_ideal(ring, m1.intersect(m2), pi)
                right = distraction_ideal(ring, m1, pi).intersect(
                    distraction_ideal(ring, m2, pi)
                )
                assert left.equals(right)


def test_criterion_8vi_one_cone_means_one_basic_set(corpus):
    with criterion(8, "(vi) one-cone ideals have exactly one basic set"):
        checked = 0
        for _, I, fan, _ in corpus:
            if fan.size == 1 and I.multiplicity() <= 8:
                assert len(enumerate_basic_sets(I)) == 1
                checked += 1
        rng = Random(121)
        R = qring("x", "y")
        while checked < 12:
            mono = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
            if len(mono.order_ideal()) > 8:
                continue
            D = natural_distraction(R, mono)
            assert gfan_number(D) == 1
            assert len(enumerate_basic_sets(D)) == 1
            checked += 1


def test_criterion_8vii_walked_facets_have_one_neighbor(corpus):
    with criterion(8, "(vii) every walked facet is shared with exactly one other cone"):
        facets = 0
        for _, _, fan, _ in corpus:
            for mb in fan:
                for v in mb.cone.ineqs:
                    w = mb.cone.facet_interior_point(v)
                    assert min(w) > 0
                    homes = [other for other in fan if other.cone.contains(w)]
                    assert len(homes) == 2 and any(h is mb for h in homes)
                    (neighbor,) = [h for h in homes if h is not mb]
                    across = tuple(-x for x in v)
                    assert across in neighbor.cone.ineqs
                    assert neighbor.cone.facet_interior_point(across) == w
                    facets += 1
        assert facets > 0
