"""Ideals of points, grids, distractions, staircases, and shifts."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import gbfan.groebner
import gbfan.linalg
import gbfan.points
from gbfan import (
    GF,
    QQ,
    GridSpec,
    Ideal,
    MonomialIdeal,
    PointSet,
    PolyRing,
    TermOrder,
    degrevlex,
    distraction_ideal,
    distraction_term,
    field_equation_grid,
    gfan_number,
    grid_primary_components,
    ideal_of_points,
    lex,
    maximal_grid,
    natural_distraction,
    shift_ideal,
    staircase,
    vanishing_ideal,
)
from gbfan.errors import (
    CharacteristicTooSmall,
    DomainError,
    DuplicatePoint,
    EmptyPointSet,
    FactorProductMismatch,
    FieldMismatch,
    NotZeroDimensional,
    ParseError,
    RationalsNotFinite,
    RepeatedConstant,
    RepeatedRoot,
    SpecTooShort,
)
from gbfan.files import load_grid
from gbfan.groebner import kernel_poly
from gbfan.random_ideals import (
    corpus_rings,
    random_point_set,
    random_zero_dim_ideal,
    random_zero_dim_monomial_ideal,
)

from conftest import fring, ideal, packed_slots, points, qring


def test_point_set_validation(rxy):
    with pytest.raises(DuplicatePoint):
        points(rxy, [(0, 0), (0, 0)])
    with pytest.raises(EmptyPointSet):
        ideal_of_points(PointSet(rxy, []))


def test_point_coordinates_are_taken_into_the_field():
    # a GF(7) point set in a GF(5) ring used to give the ideal of one point
    R = fring(5, "x")
    gf7 = GF(7)
    with pytest.raises(FieldMismatch):
        PointSet(R, [(gf7.from_int(1),), (gf7.from_int(6),)])
    with pytest.raises(FieldMismatch):
        PointSet(qring("x"), [(GF(5).from_int(1),)])
    with pytest.raises(FieldMismatch):
        PointSet(R, [(Fraction(1, 2),)])
    # ints are mapped into the field before the duplicate check: 6 = 1 mod 5
    with pytest.raises(DuplicatePoint):
        PointSet(R, [(1,), (6,)])
    ps = PointSet(R, [(1,), (3,)])
    gb, quotient = ideal_of_points(ps)
    assert [g.to_str() for g in gb] == ["x^2 + x + 3"]
    assert quotient == [(0,), (1,)]
    # a probe's coordinates are taken into the field the same way
    assert (1,) in ps and (6,) in ps and (R.field.from_int(8),) in ps
    assert (2,) not in ps
    with pytest.raises(FieldMismatch):
        (gf7.from_int(1),) in ps
    Q = PointSet(qring("x"), [(1,), (Fraction(1, 2),)])
    assert (1,) in Q and (Fraction(1),) in Q and (Fraction(1, 2),) in Q
    assert (2,) not in Q and (Fraction(-1, 2),) not in Q
    with pytest.raises(FieldMismatch):
        (GF(5).from_int(1),) in Q


def test_single_point_maximal_ideal(rxyz):
    gb, quotient = ideal_of_points(points(rxyz, [(2, -1, 3)]))
    assert {g.to_str() for g in gb} == {"x - 2", "y + 1", "z - 3"}
    assert quotient == [(0, 0, 0)]


def test_boolean_points_basis():
    R = fring(2, "x", "y", "z")
    pts = points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)])
    o = TermOrder([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    gb, quotient = ideal_of_points(pts, o)
    assert {g.to_str(o) for g in gb} == {"x^2 + x", "z^2 + z", "y + x + 1", "x*z + z"}
    assert len(quotient) == 3


def test_vanishing_and_multiplicity_random():
    rng = Random(14)
    for R in (qring("x", "y"), fring(5, "x", "y", "z")):
        pts = random_point_set(rng, R, 7)
        I = vanishing_ideal(pts)
        assert I.multiplicity() == len(pts)
        for g in I.gens:
            assert all(not g.evaluate(p) for p in pts)


@st.composite
def _point_sets(draw):
    field = draw(st.sampled_from([GF(2), GF(32003), GF(2**61 - 1), QQ]))
    names = ("x", "y", "z")[: draw(st.integers(min_value=1, max_value=3))]
    R = PolyRing(field, names)
    # a denominator of 3 is a unit in every field drawn
    coord = st.builds(
        lambda num, den: field.parse(f"{num}/{den}"),
        st.integers(min_value=-4, max_value=4),
        st.sampled_from([1, 3]),
    )
    drawn = draw(st.lists(st.tuples(*[coord] * len(names)), min_size=1, max_size=6))
    return PointSet(R, dict.fromkeys(drawn))


@settings(max_examples=60, deadline=None)
@given(_point_sets())
def test_three_routes_agree_on_point_ideals(pts):
    # Buchberger-Möller straight to lex, FGLM from the degrevlex basis, and
    # Buchberger from its generators give one reduced lex basis
    R = pts.ring
    order = lex(R.nvars)
    direct, quotient = ideal_of_points(pts, order)
    start, _ = ideal_of_points(pts)
    assert direct == start.change_order(order) == Ideal(R, start.elements).groebner(order)
    assert len(quotient) == len(pts)
    for g in direct:
        assert all(not g.evaluate(pt) for pt in pts)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["gf32003", "qq"])
def test_kernel_holds_residues_over_gf_p_and_ints_over_qq(record_calls, field):
    # Over GF(p) Buchberger-Möller and FGLM run on ints in [0, p) with
    # pivot-1 rows, packed: row j of a call with vectors of length n unpacks
    # to n vector entries and the coefficients of the terms of rows 0..j.
    # Over QQ both run the exact kernel (p = 0): rows, their combinations
    # and nonzero results are ints, and relations come back in Fractions.
    # The evaluation vectors of integer points hold ints, while FGLM's
    # input, the cached normal forms, holds Fractions
    R = PolyRing(field, ("x", "y", "z"))
    p = field.characteristic
    calls = record_calls(gbfan.linalg, "echelon_reduce")
    gb, _ = ideal_of_points(random_point_set(Random(3), R, 12))
    built = len(calls)
    gb.change_order(lex(3))
    assert 0 < built < len(calls)

    def entries(calls):
        # (input vectors, int entries, relation coefficients)
        vecs, ints, relations = [], [], []
        unpacked = set()  # each caller's rows, once they are all in
        for call in calls:
            pivot, reduced, rep = call["return"]
            vecs += call["vec"]
            n, rows = len(call["vec"]), call["rows"]
            if not call["p"]:
                ints += reduced
                for _, row, row_rep in rows:
                    ints += row
                    ints += row_rep.values()
                (ints if pivot is not None else relations).extend(rep.values())
                continue
            if pivot is None:
                assert reduced == 0 and rep[call["term"]] == 1
                relations += rep.values()
            else:
                # the caller appends the new row to the list it passed
                assert rep == call["term"] and (pivot, reduced, rep) in rows
            if id(rows) not in unpacked:
                unpacked.add(id(rows))
                for j, (row_pivot, row, _) in enumerate(rows):
                    slots = packed_slots(row, n + j + 1, n, p)
                    assert slots[row_pivot] == 1 and slots[n + j]
                    ints += slots
        return vecs, ints, relations

    assert {call["p"] for call in calls} == {p}
    build_vecs, build_ints, build_relations = entries(calls[:built])
    flip_vecs, flip_ints, flip_relations = entries(calls[built:])
    flip_vecs += [a for t in gb.quotient_basis() for a in gb.nf_coords(t)]
    ints = build_ints + flip_ints
    relations = build_relations + flip_relations
    assert build_vecs and build_ints and build_relations
    assert flip_vecs and flip_ints and flip_relations
    if p:
        everything = build_vecs + flip_vecs + ints + relations
        assert all(type(a) is int and 0 <= a < p for a in everything)
    else:
        assert all(type(a) is int for a in build_vecs + ints)
        assert all(type(a) is Fraction for a in flip_vecs + relations)


def _fraction_kernel(pts, order):
    # the reference: the kernel on all-Fraction evaluation vectors
    columns = list(zip(*pts.points))
    ones = (Fraction(1),) * len(pts)

    def evaluations(t, below, i):
        if below is None:
            return ones
        return tuple(a * b for a, b in zip(below, columns[i]))

    return gbfan.linalg.basis_from_functionals(order, 0, evaluations)


def _certify(pts, order, gb, quotient):
    # an independent check that gb is the reduced basis of the vanishing
    # ideal I: Q (the quotient) is an order ideal of one term per point,
    # the leading terms are the minimal terms outside Q, every element is
    # monic with its tail in Q and vanishes at every point.  The elements
    # then span an ideal J inside I whose quotient Q spans, and
    # dim K[x]/J <= |Q| = dim K[x]/I forces J = I
    n = pts.ring.nvars
    qset = set(quotient)
    assert len(qset) == len(quotient) == len(pts)

    def below(t):
        return [t[:i] + (t[i] - 1,) + t[i + 1 :] for i in range(n) if t[i]]

    def above(t):
        return [t[:i] + (t[i] + 1,) + t[i + 1 :] for i in range(n)]

    assert all(u in qset for t in quotient for u in below(t))
    leads = []
    for g in gb:
        lead, c = g.leading_term(order)
        assert c == 1
        assert lead not in qset and all(u in qset for u in below(lead))
        assert all(t in qset for t in g.coeffs if t != lead)
        assert all(not g.evaluate(pt) for pt in pts)
        leads.append(lead)
    for t in quotient:
        for u in above(t):
            assert u in qset or any(all(a <= b for a, b in zip(lt, u)) for lt in leads)


def _assert_exact(pts, order):
    gb, quotient = ideal_of_points(pts, order)
    _certify(pts, order, gb, quotient)
    pairs, fraction_quotient = _fraction_kernel(pts, order)
    got = list(zip(gb.lt_exps, gb.elements))
    assert got == [(lt, kernel_poly(pts.ring, d)) for lt, d in pairs]
    assert quotient == fraction_quotient


@st.composite
def _rational_point_sets(draw):
    names = ("x", "y", "z")[: draw(st.integers(min_value=1, max_value=3))]
    R = PolyRing(QQ, names)
    # all-integer sets, or integral coordinates mixed with proper fractions
    top = draw(st.sampled_from([1, 12]))
    coord = st.builds(
        Fraction,
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=top),
    )
    drawn = draw(st.lists(st.tuples(*[coord] * len(names)), min_size=1, max_size=9))
    return PointSet(R, dict.fromkeys(drawn))


@settings(max_examples=60, deadline=None)
@given(_rational_point_sets(), st.sampled_from(["lex", "degrevlex"]))
def test_int_and_mixed_coordinates_match_fraction_vectors(pts, name):
    order = lex(pts.ring.nvars) if name == "lex" else degrevlex(pts.ring.nvars)
    _assert_exact(pts, order)


M61 = 2**61 - 1


@pytest.mark.parametrize(
    "coords",
    [
        # the hard cases of a modular route: two points that meet modulo
        # 2^61 - 1, a denominator of 2^61 - 1, a 101-bit and a 261-bit
        # constant term, and a rational coordinate among integers
        pytest.param([("0", "0"), (str(M61), "0"), ("1", "1")], id="collide"),
        pytest.param([(f"1/{M61}", "2"), ("0", "1")], id="denominator"),
        pytest.param([(str(2**50), "0"), (str(2**50 + 1), "0")], id="101-bit"),
        pytest.param([(str(2**130), "0"), (str(2**130 + 1), "0")], id="261-bit"),
        pytest.param(
            [("1", "2"), ("1/2", "7"), ("0", "0"), ("2", "-3")], id="one-half"
        ),
    ],
)
def test_qq_points_give_the_certified_exact_basis(coords):
    pts = points(qring("x", "y"), coords)
    for order in (lex(2), degrevlex(2)):
        _assert_exact(pts, order)


def _one_half_basis():
    pts = points(qring("x", "y"), [("1", "2"), ("1/2", "7"), ("0", "0"), ("2", "-3")])
    order = degrevlex(2)
    pairs, quotient = _fraction_kernel(pts, order)
    return pts, order, [coeffs for _, coeffs in pairs], quotient


def _certifies(pts, order, elements, quotient):
    gb = [kernel_poly(pts.ring, g) for g in elements]
    try:
        _certify(pts, order, gb, quotient)
    except AssertionError:
        return False
    return True


def test_certificate_accepts_only_the_reduced_basis():
    pts, order, elements, quotient = _one_half_basis()
    assert _certifies(pts, order, elements, quotient)
    # still vanishes everywhere, but not monic
    doubled = [{t: 2 * c for t, c in g.items()} for g in elements]
    assert not _certifies(pts, order, doubled, quotient)
    # monic and vanishing, but a tail term (a leading term) lies outside
    # the quotient basis
    merged = dict(elements[-1])
    for t, c in elements[0].items():
        merged[t] = merged.get(t, 0) + c
    assert not _certifies(pts, order, elements[:-1] + [merged], quotient)
    # the right elements against a quotient basis that is not an order ideal
    assert not _certifies(pts, order, elements, quotient[:-1] + [(5, 5)])


def test_certificate_rejects_a_perturbed_coefficient():
    # every tail coefficient of every element, one at a time, off by one:
    # the element no longer vanishes at every point
    pts, order, elements, quotient = _one_half_basis()
    tried = 0
    for i, g in enumerate(elements):
        lead = max(g, key=order.key)
        for t in g:
            if t == lead:
                continue
            bumped = dict(g)
            bumped[t] += 1
            candidate = elements[:i] + [bumped] + elements[i + 1 :]
            assert not _certifies(pts, order, candidate, quotient)
            tried += 1
    assert tried


def test_iterated_intersection_oracle(rxy):
    # intersecting the maximal ideals one point at a time must agree
    pts = points(rxy, [(0, 0), (1, 2), (-1, 1), (2, 2)])
    I = vanishing_ideal(pts)
    expected = None
    for p in pts:
        m = Ideal(
            rxy,
            [rxy.var(i) - rxy.const(c) for i, c in enumerate(p)],
        )
        expected = m if expected is None else expected.intersect(m)
    assert I.equals(expected)


def test_grid_ideal_and_points(rxy):
    spec = GridSpec.from_roots(
        rxy,
        [
            [QQ.from_int(i) for i in range(5)],
            [QQ.from_int(i) for i in range(4)],
        ],
    )
    I = spec.ideal()
    assert I.gens[0] == rxy.parse("x*(x-1)*(x-2)*(x-3)*(x-4)")
    assert I.gens[1] == rxy.parse("y*(y-1)*(y-2)*(y-3)")
    assert len(spec.points()) == 20
    assert spec.multiplicity() == 20
    assert I.multiplicity() == 20
    assert spec.socle_term() == (4, 3)


def test_grid_single_point(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.from_int(3)], [QQ.from_int(-1)]])
    assert len(spec.points()) == 1
    assert spec.socle_term() == (0, 0)


def test_grid_repeated_root_rejected(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.one(), QQ.one()], [QQ.zero()]])
    with pytest.raises(RepeatedRoot):
        spec.points()


def test_grid_roots_are_compared_in_the_field(rxy):
    # 6 is 1 in GF(5): a repeated root, not two points that coincide
    R = fring(5, "x", "y")
    F = R.field
    spec = GridSpec.from_roots(R, [(1, 7), (0,)])
    assert spec.entries[0] == ("roots", (F.one(), F.from_int(2)))
    with pytest.raises(RepeatedRoot):
        GridSpec.from_roots(R, [(1, 6), (0,)]).points()
    for roots in ([(0.5,), (0,)], [(GF(5).one(),), (0,)]):
        with pytest.raises(FieldMismatch):
            GridSpec.from_roots(rxy, roots)


def test_unfactored_grid_points_rejected_without_repeated_root(rxy):
    spec = GridSpec.from_polys(rxy, [rxy.parse("x^2 - 2"), rxy.parse("y - 1")])
    with pytest.raises(DomainError, match="factored form") as info:
        spec.points()
    assert not isinstance(info.value, RepeatedRoot)


def test_grid_is_its_own_reduced_basis(rxy):
    spec = GridSpec.from_polys(
        rxy, [rxy.parse("x*(x^2+1)^2*(x-1)"), rxy.parse("(y^3-1)*(y+2)")]
    )
    I = spec.ideal()
    for order in (lex(2), degrevlex(2)):
        assert set(I.groebner(order).elements) == set(I.gens)
    assert gfan_number(I) == 1
    assert I.multiplicity() == 24


def test_socle_term_examples(rxy):
    assert GridSpec.from_roots(
        rxy, [[QQ.from_int(i) for i in range(5)], [QQ.from_int(i) for i in range(4)]]
    ).socle_term() == (4, 3)
    R3 = fring(3, "x", "y", "z")
    assert field_equation_grid(R3).socle_term() == (2, 2, 2)


def test_field_equation_grid():
    R = fring(3, "x", "y", "z")
    spec = field_equation_grid(R)
    gens = {g.to_str() for g in spec.generators()}
    assert gens == {"x^3 + 2*x", "y^3 + 2*y", "z^3 + 2*z"}
    assert spec.ideal().multiplicity() == 27
    assert len(spec.points()) == 27
    R1 = fring(2, "x")
    assert field_equation_grid(R1).generator(0) == R1.parse("x^2 + x")
    with pytest.raises(RationalsNotFinite):
        field_equation_grid(qring("x"))


def test_maximal_grid_boolean_points():
    # brute force: the least-degree monic univariate vanishing on {0, 1}
    R = fring(2, "x", "y", "z")
    I = vanishing_ideal(points(R, [(1, 0, 0), (0, 1, 0), (1, 0, 1)]))
    spec = maximal_grid(I)
    for i in range(3):
        g = spec.generator(i)
        name = R.vars[i]
        assert g == R.parse(f"{name}^2 + {name}")
    with pytest.raises(NotZeroDimensional):
        maximal_grid(ideal(qring("x", "y"), "x + y"))


def test_maximal_grid_of_grid_is_itself(rxy):
    spec = GridSpec.from_polys(rxy, [rxy.parse("x - 1"), rxy.parse("y^2 - 2")])
    I = spec.ideal()
    got = maximal_grid(I)
    assert got.generator(0) == rxy.parse("x - 1")
    assert got.generator(1) == rxy.parse("y^2 - 2")


def test_maximal_grid_divides_any_contained_grid(rxy):
    from gbfan import divide_exact

    I = ideal(rxy, "(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2")
    spec = maximal_grid(I)
    # the ambient grid's generators are multiples of the maximal grid's
    big = [rxy.parse("(x^2+1)*(x-1)*(x-2)"), rxy.parse("(y^2-2)*(y+2)")]
    for i, g in enumerate(big):
        assert spec.ideal().contains(g)
        divide_exact(g, spec.generator(i))


def test_maximal_grid_of_unit_ideal_is_domain_error(rxy):
    with pytest.raises(DomainError, match="unit ideal") as info:
        maximal_grid(Ideal(rxy, [rxy.one()]))
    assert type(info.value) is DomainError


@pytest.mark.parametrize(
    "R, gens, expected",
    [
        pytest.param(
            qring("x", "y"),
            ["(x^2+1)*(x-1)*(x-2)", "(y^2-2)*(y+2)", "x - 1 + y^2 - 2"],
            ["x - 1", "y^2 - 2"],
            id="j1",
        ),
        pytest.param(
            fring(7, "x", "y", "z"),
            ["x^2 - 1", "y^3 - y", "z^2 - x*z", "x*y - y"],
            ["x^2 - 1", "y^3 - y", "z^3 - z"],
            id="gf7",
        ),
    ],
)
def test_maximal_grid_runs_buchberger_once(record_calls, R, gens, expected):
    runs = record_calls(gbfan.groebner, "buchberger_dicts")
    spec = maximal_grid(ideal(R, *gens))
    assert spec.generators() == [R.parse(t) for t in expected]
    assert len(runs) == 1


def test_eliminants_match_the_elimination_route():
    # 44 draws: the powers read from the degrevlex normal forms against one
    # elimination Buchberger run per variable, on fresh ideals
    rng = Random(1010)
    for n in (2, 3):
        for R in corpus_rings(n):
            for _ in range(11):
                drawn = random_zero_dim_ideal(rng, R, max_mult=8)
                order = R.default_order()
                spec = maximal_grid(Ideal(R, drawn.gens))
                for i in range(n):
                    others = [j for j in range(n) if j != i]
                    elim = Ideal(R, drawn.gens).eliminate(others)
                    ref = min(elim.gens, key=lambda g: g.degree_in(i)).monic(order)
                    assert Ideal(R, drawn.gens).univariate_in(i) == ref
                    assert spec.generator(i) == ref


QQ_XY = "# field: QQ\n# vars: x, y\n"


@pytest.mark.parametrize(
    "roots, polys, text, message",
    [
        pytest.param(
            [[], [1]], None, "x:\ny: 1\n", "no roots for x", id="empty-roots"
        ),
        pytest.param(
            None,
            ["x*y", "y - 1"],
            "x: poly x*y\ny: poly y - 1\n",
            "x entry must be univariate of positive degree",
            id="bivariate-poly",
        ),
        pytest.param(
            None,
            ["x - 1", "3"],
            "x: poly x - 1\ny: poly 3\n",
            "y entry must be univariate of positive degree",
            id="constant-poly",
        ),
        # a grid file names every variable once, so the loader reports a
        # wrong count as missing or duplicate lines before it builds a grid
        pytest.param(
            [[1]], ["x - 1"], None, "need one grid entry per variable",
            id="entry-count",
        ),
    ],
)
def test_grid_routes_share_one_validation(rxy, tmp_path, roots, polys, text, message):
    routes = []
    if roots is not None:
        roots = [[QQ.from_int(c) for c in r] for r in roots]
        routes.append(lambda: GridSpec.from_roots(rxy, roots))
        routes.append(lambda: GridSpec(rxy, tuple(("roots", r) for r in roots)))
    if polys is not None:
        polys = [rxy.parse(t) for t in polys]
        routes.append(lambda: GridSpec.from_polys(rxy, polys))
        routes.append(lambda: GridSpec(rxy, tuple(("poly", g) for g in polys)))
    for build in routes:
        with pytest.raises(ParseError) as info:
            build()
        assert str(info.value) == message
    if text is not None:
        path = tmp_path / "grid.txt"
        path.write_text(QQ_XY + text)
        with pytest.raises(ParseError) as info:
            load_grid(str(path))
        assert str(info.value) == f"{path}: {message}"


def test_grid_orders_and_monic_entries(rxy):
    R = fring(7, "x", "y", "z")
    F = R.field
    spec = GridSpec.from_roots(
        R, [[F.from_int(c) for c in axis] for axis in ([0, 1, 6], [2, 3], [5, 4])]
    )
    assert all(type(roots) is tuple for _, roots in spec.entries)
    assert list(spec.points()) == [
        tuple(F.from_int(c) for c in p)
        for p in [
            (0, 2, 5), (0, 2, 4), (0, 3, 5), (0, 3, 4),
            (1, 2, 5), (1, 2, 4), (1, 3, 5), (1, 3, 4),
            (6, 2, 5), (6, 2, 4), (6, 3, 5), (6, 3, 4),
        ]
    ]
    assert spec.quotient_terms() == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1),
    ]
    assert spec.multiplicity() == 12
    polys = GridSpec.from_polys(rxy, [rxy.parse("2*x^2 - 4"), rxy.parse("3*y - 1")])
    assert polys.entries == (
        ("poly", rxy.parse("x^2 - 2")),
        ("poly", rxy.parse("y - 1/3")),
    )
    comps = grid_primary_components(
        GridSpec.from_roots(rxy, [[QQ.zero(), QQ.one()], [QQ.from_int(2), QQ.from_int(3)]]),
        [[rxy.parse("x"), rxy.parse("x - 1")], [rxy.parse("y - 2"), rxy.parse("y - 3")]],
    )
    assert [[g.to_str() for g in c.gens] for c in comps] == [
        ["x", "y - 2"], ["x", "y - 3"], ["x - 1", "y - 2"], ["x - 1", "y - 3"],
    ]


def test_distraction_term_examples(rxy):
    pi = (
        tuple(QQ.from_int(c) for c in (3, 2, 5)),
        tuple(QQ.from_int(c) for c in (2, -1, 3, 12)),
    )
    d1 = distraction_term(rxy, (3, 1), pi)
    assert d1 == rxy.parse("(x-3)*(x-2)*(x-5)*(y-2)")
    d2 = distraction_term(rxy, (2, 4), pi)
    assert d2 == rxy.parse("(x-3)*(x-2)*(y-2)*(y+1)*(y-3)*(y-12)")
    assert distraction_term(rxy, (0, 0), pi) == rxy.one()
    with pytest.raises(SpecTooShort):
        distraction_term(rxy, (4, 0), pi)


def test_distraction_term_gf5():
    R = fring(5, "x", "y")
    F = R.field
    pi = (
        tuple(F.from_int(c) for c in (1, 3, 0)),
        tuple(F.from_int(c) for c in (0, 1, 2, 3)),
    )
    d1 = distraction_term(R, (3, 1), pi)
    assert d1 == R.parse("(x-1)*(x-3)*x*y")
    d2 = distraction_term(R, (2, 4), pi)
    assert d2 == R.parse("(x-1)*(x-3)*y*(y-1)*(y-2)*(y-3)")


def test_distraction_spec_validation(rxy):
    with pytest.raises(RepeatedConstant):
        distraction_ideal(
            rxy,
            MonomialIdeal(2, [(2, 0), (0, 1)]),
            ((QQ.one(), QQ.one()), (QQ.zero(),)),
        )


def test_distraction_constants_repeat_by_their_field_values():
    # 1 and 6 are one constant of GF(5), so the tuple repeats it; 1 and 7
    # are two, taken into the field as x - 1 and x - 2
    R = fring(5, "x")
    mono = MonomialIdeal(1, [(2,)])
    with pytest.raises(RepeatedConstant):
        distraction_ideal(R, mono, [(1, 6)])
    assert distraction_ideal(R, mono, [(1, 7)]).gens == (R.parse("(x - 1)*(x - 2)"),)


def test_distraction_ideal_is_vanishing_ideal_of_design(rxy):
    mono = MonomialIdeal(2, [(4, 0), (0, 3), (2, 1), (1, 2)])
    pi = (
        tuple(QQ.parse(c) for c in ("0", "1/5", "2", "-1")),
        tuple(QQ.parse(c) for c in ("0", "1", "2")),
    )
    D = distraction_ideal(rxy, mono, pi)
    pts = points(
        rxy,
        [
            ("0", "0"),
            ("0", "1"),
            ("0", "2"),
            ("1/5", "0"),
            ("1/5", "1"),
            ("2", "0"),
            ("-1", "0"),
        ],
    )
    assert vanishing_ideal(pts).equals(D)
    assert gfan_number(D) == 1
    assert D.multiplicity() == 7


def test_distraction_generators_are_reduced_basis_for_every_order():
    rng = Random(8)
    R = qring("x", "y")
    for _ in range(6):
        mono = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        degrees = [0, 0]
        for g in mono.gens:
            degrees = [max(d, e) for d, e in zip(degrees, g)]
        tuples = []
        for d in degrees:
            vals = rng.sample(range(-6, 7), d)
            tuples.append(tuple(QQ.from_int(v) for v in vals))
        D = distraction_ideal(R, mono, tuples)
        expected = set(D.gens)
        orders = [lex(2), degrevlex(2)]
        for _ in range(3):
            first = [rng.randint(1, 5), rng.randint(1, 5)]
            second = [rng.randint(-3, 3), rng.randint(-3, 3)]
            orders.append(TermOrder([first, second, [1, 1], [0, -1]]))
        for o in orders:
            assert set(D.groebner(o).elements) == expected
        assert gfan_number(D) == 1


def test_simple_distraction(rxy):
    D = distraction_ideal(rxy, MonomialIdeal(2, [(1, 0), (0, 1)]), ((QQ.from_int(4),), (QQ.zero(),)))
    assert {g.to_str() for g in D.gens} == {"x - 4", "y"}


def test_natural_distraction_staircase_generators(rxy):
    mono = MonomialIdeal(2, [(5, 0), (4, 1), (1, 2), (0, 4)])
    D = natural_distraction(rxy, mono)
    expected = {
        rxy.parse("x*(x-1)*(x-2)*(x-3)*(x-4)"),
        rxy.parse("x*(x-1)*(x-2)*(x-3)*y"),
        rxy.parse("x*y*(y-1)"),
        rxy.parse("y*(y-1)*(y-2)*(y-3)"),
    }
    assert set(D.gens) == expected


def test_natural_distraction_univariate():
    R = qring("x")
    D = natural_distraction(R, MonomialIdeal(1, [(2,)]))
    assert D.gens == (R.parse("x*(x-1)"),)


def test_natural_distraction_characteristic_guard():
    R = fring(2, "x", "y")
    with pytest.raises(CharacteristicTooSmall):
        natural_distraction(R, MonomialIdeal(2, [(3, 0), (0, 1)]))
    # max degree equal to p is fine (constants 0..p-1)
    D = natural_distraction(R, MonomialIdeal(2, [(2, 0), (0, 1)]))
    assert set(D.gens) == {R.parse("x*(x-1)"), R.parse("y")}


def test_staircase_block_example(rxyz):
    mono = MonomialIdeal(3, [(2, 0, 0), (1, 1, 2), (0, 2, 0), (0, 0, 3)])
    pts = staircase(rxyz, mono)
    expected = {
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2),
        (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1),
    }
    got = {tuple(int(str(c)) for c in p) for p in pts}
    assert got == expected
    assert len(pts) == 11


def test_staircase_origin(rxy):
    pts = staircase(rxy, MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert pts.points == ((QQ.zero(), QQ.zero()),)


def test_staircase_characteristic_guard():
    R = fring(3, "x", "y")
    with pytest.raises(CharacteristicTooSmall):
        staircase(R, MonomialIdeal(2, [(4, 0), (0, 1)]))
    # exponents 0..2 embed distinctly in GF(3), as natural_distraction's 0..2 do
    pts = staircase(R, MonomialIdeal(2, [(3, 0), (0, 1)]))
    assert [tuple(map(str, p)) for p in pts] == [("0", "0"), ("1", "0"), ("2", "0")]


def test_staircase_vanishing_equals_natural_distraction():
    rng = Random(12)
    R2, R3 = qring("x", "y"), qring("x", "y", "z")
    for _ in range(10):
        n = rng.choice((2, 3))
        R = R2 if n == 2 else R3
        mono = random_zero_dim_monomial_ideal(rng, n, max_degree=4)
        assert vanishing_ideal(staircase(R, mono)).equals(natural_distraction(R, mono))


def test_staircase_union_identity():
    rng = Random(19)
    R = qring("x", "y")
    for _ in range(12):
        m1 = random_zero_dim_monomial_ideal(rng, 2, max_degree=4)
        m2 = random_zero_dim_monomial_ideal(rng, 2, max_degree=4)
        s1 = set(staircase(R, m1).points)
        s2 = set(staircase(R, m2).points)
        meet = set(staircase(R, m1.intersect(m2)).points)
        assert meet == s1 | s2


def test_distraction_intersection_identity():
    rng = Random(25)
    R = qring("x", "y")
    for _ in range(8):
        m1 = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        m2 = random_zero_dim_monomial_ideal(rng, 2, max_degree=3)
        degrees = [0, 0]
        for g in list(m1.gens) + list(m2.gens):
            degrees = [max(d, e) for d, e in zip(degrees, g)]
        vals = [rng.sample(range(-5, 6), d) for d in degrees]
        pi = [tuple(QQ.from_int(v) for v in row) for row in vals]
        left = distraction_ideal(R, m1.intersect(m2), pi)
        right = distraction_ideal(R, m1, pi).intersect(distraction_ideal(R, m2, pi))
        assert left.equals(right)


def test_shift_ideal_preserves_lt_ideals(rxy):
    from gbfan import enumerate_fan

    I = ideal(rxy, "x^2 + x*y + y^2", "x^3", "x^2*y", "x*y^2", "y^3")
    shift = __import__("gbfan").LinearShift(
        (QQ.one(), QQ.one()), (QQ.from_int(1), QQ.from_int(-2))
    )
    shifted = shift_ideal(I, shift)
    lt1 = {mb.basis.lt_key() for mb in enumerate_fan(I)}
    lt2 = {mb.basis.lt_key() for mb in enumerate_fan(shifted)}
    assert lt1 == lt2
    # monomial ideals are fixed by pure scalings
    mono = ideal(rxy, "x^2", "y")
    scaling = __import__("gbfan").LinearShift(
        (QQ.from_int(3), QQ.from_int(-2)), (QQ.zero(), QQ.zero())
    )
    assert shift_ideal(mono, scaling).equals(mono)
    # round trip
    inv = shift.inverse()
    assert shift_ideal(shift_ideal(I, shift), inv).equals(I)


def test_grid_primary_components(rxy):
    spec = GridSpec.from_polys(
        rxy, [rxy.parse("x*(x^2+1)^2*(x-1)"), rxy.parse("(y^3-1)*(y+2)")]
    )
    fx = [rxy.parse("x"), rxy.parse("(x^2+1)^2"), rxy.parse("x - 1")]
    fy = [rxy.parse("y - 1"), rxy.parse("y^2 + y + 1"), rxy.parse("y + 2")]
    comps = grid_primary_components(spec, [fx, fy])
    assert len(comps) == 9
    expected = {
        frozenset({"x", "y - 1"}),
        frozenset({"x", "y^2 + y + 1"}),
        frozenset({"x", "y + 2"}),
        frozenset({"x - 1", "y - 1"}),
        frozenset({"x - 1", "y^2 + y + 1"}),
        frozenset({"x - 1", "y + 2"}),
        frozenset({"x^4 + 2*x^2 + 1", "y - 1"}),
        frozenset({"x^4 + 2*x^2 + 1", "y^2 + y + 1"}),
        frozenset({"x^4 + 2*x^2 + 1", "y + 2"}),
    }
    got = {frozenset(g.to_str() for g in c.groebner()) for c in comps}
    assert got == expected
    with pytest.raises(FactorProductMismatch):
        grid_primary_components(spec, [[rxy.parse("x")], fy])


def test_grid_components_single_linear_factors(rxy):
    spec = GridSpec.from_roots(rxy, [[QQ.zero(), QQ.one()], [QQ.from_int(2)]])
    fx = [rxy.parse("x"), rxy.parse("x - 1")]
    fy = [rxy.parse("y - 2")]
    comps = grid_primary_components(spec, [fx, fy])
    assert len(comps) == 2
    for c in comps:
        assert c.multiplicity() == 1


def test_field_equation_components_vanish_at_all_points():
    R = fring(3, "x", "y", "z")
    spec = field_equation_grid(R)
    F = R.field
    linear = [
        [R.var(i) - R.const(F.from_int(c)) for c in range(3)] for i in range(3)
    ]
    comps = grid_primary_components(spec, linear)
    assert len(comps) == 27
    pts = spec.points().points
    # each component is the maximal ideal of exactly one grid point
    matched = set()
    for c in comps:
        vanish = [p for p in pts if all(not g.evaluate(p) for g in c.gens)]
        assert len(vanish) == 1
        matched.add(vanish[0])
    assert len(matched) == 27
