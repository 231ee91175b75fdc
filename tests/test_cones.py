"""Exact Fourier-Motzkin systems and cone canonicalization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import gbfan.cones
from gbfan import Cone, cone_of_marked, enumerate_fan, fan_oracle_zerodim, vanishing_ideal
from gbfan.cones import _project, feasible, solve_system, strict_positive_solution
from gbfan.errors import DimensionMismatch, DomainError, InconsistentMarking
from gbfan.fan import marking_vectors
from gbfan.linalg import primitive_vector

from conftest import fring, points, qring


# The reference kernel: the same Fourier-Motzkin projection, with rows made
# primitive by `primitive_vector`, and back-substitution in `Fraction`s.


def _ref_clean(cons):
    best: dict[tuple, object] = {}
    for coeffs, rhs in cons:
        ints = primitive_vector((*coeffs, rhs))
        coeffs, rhs = ints[:-1], ints[-1]
        if not any(coeffs):
            if rhs > 0:
                return None
            continue
        cur = best.get(coeffs)
        if cur is None or rhs > cur:
            best[coeffs] = rhs
    return [(c, r) for c, r in best.items()]


def _ref_eliminate(cons, j):
    zero, pos, neg = [], [], []
    for c in cons:
        a = c[0][j]
        (zero if a == 0 else pos if a > 0 else neg).append(c)
    out = list(zero)
    for pc, pr in pos:
        for nc, nr in neg:
            ap, an = pc[j], nc[j]
            coeffs = tuple(-an * x + ap * y for x, y in zip(pc, nc))
            out.append((coeffs, -an * pr + ap * nr))
    return out


def _ref_project(cons, n):
    stages = []
    cur = _ref_clean(cons)
    for j in range(n - 1, -1, -1):
        if cur is None:
            return None
        stages.append(cur)
        cur = _ref_clean(_ref_eliminate(cur, j))
    return None if cur is None else stages


def _ref_solve_system(cons, n):
    stages = _ref_project(cons, n)
    if stages is None:
        return None
    values: list[Fraction] = []
    for j in range(n):
        lo = hi = None
        for coeffs, rhs in stages[n - 1 - j]:
            a = coeffs[j]
            if a == 0:
                continue
            bound = Fraction(rhs - sum(c * x for c, x in zip(coeffs, values) if c), a)
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None:
            values.append(Fraction(0) if hi is None else hi)
        else:
            values.append(lo if hi is None else (lo + hi) / 2)
    return tuple(values)


def _ref_canonical(vectors, n):
    """The facets by one Fourier-Motzkin redundancy test per candidate,
    with no double description."""
    units = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    lst = sorted({v for v in map(primitive_vector, vectors) if min(v, default=0) < 0})
    i = 0
    while i < len(lst):
        cons = [(u, 0) for u in lst[:i] + lst[i + 1 :]] + units
        cons.append((tuple(-x for x in lst[i]), 1))
        if _ref_project(cons, n) is None:
            lst.pop(i)
        else:
            i += 1
    return tuple(lst)


_coeffs = st.integers(-3, 3)


@st.composite
def _systems(draw):
    """Systems in 1-4 variables with all-zero rows, positive multiples of
    rows with weaker or stronger right-hand sides, the unit rows x_i >= 1
    of `strict_positive_solution` and equality pairs."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[_coeffs] * n), st.integers(-4, 4))
    cons = draw(st.lists(row, max_size=6))
    cons += [((0,) * n, r) for r in draw(st.lists(st.integers(-2, 2), max_size=2))]
    if cons:
        for coeffs, rhs in draw(st.lists(st.sampled_from(cons), max_size=3)):
            k = draw(st.integers(1, 3))
            cons.append((tuple(k * c for c in coeffs), k * rhs + draw(st.integers(-2, 2))))
    if draw(st.booleans()):
        cons += [(tuple(int(i == j) for j in range(n)), 1) for i in range(n)]
    for z in draw(st.lists(st.tuples(*[_coeffs] * n), max_size=2)):
        cons += [(z, 0), (tuple(-c for c in z), 0)]
    return draw(st.permutations(cons)), n


@settings(max_examples=250, deadline=None)
@given(_systems())
@example(([((1, 1), 4), ((-1, -1), -2)], 2))  # infeasible
@example(([((0, 0), 1), ((1, 0), 1)], 2))  # 0 >= 1
@example(([((1,), 1), ((-2,), -5), ((2,), 2)], 1))  # a midpoint, x = 7/4
def test_integer_kernel_matches_fraction_kernel(system):
    # the same stages, the same feasibility and the same rational point
    cons, n = system
    stages = _project(cons, n)
    assert stages == _ref_project(cons, n)
    assert feasible(cons, n) is (stages is not None)
    found = solve_system(cons, n)
    if found is None:
        assert _ref_solve_system(cons, n) is None
    else:
        values, den = found
        assert all(type(x) is int for x in values) and type(den) is int and den > 0
        assert tuple(Fraction(v, den) for v in values) == _ref_solve_system(cons, n)


@st.composite
def _vector_sets(draw):
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[_coeffs] * n), max_size=7)), n


@settings(max_examples=100, deadline=None)
@given(_vector_sets())
def test_canonical_inequalities_match_fourier_motzkin_alone(case):
    # Fourier-Motzkin decides full-dimensionality on its own: the cone has
    # an interior point exactly when some w > 0 makes every nonzero v·w > 0.
    # Each facet's point is then strictly positive, on its facet and strictly
    # inside every other, and it depends on the cone only, not on the
    # redundant candidates that built it
    vectors, n = case
    if strict_positive_solution([v for v in vectors if any(v)], n) is None:
        with pytest.raises(InconsistentMarking):
            Cone.from_vectors(vectors, n)
        return
    cone = Cone.from_vectors(vectors, n)
    assert cone.ineqs == _ref_canonical(vectors, n)
    again = Cone.from_vectors(cone.ineqs, n)
    for v in cone.ineqs:
        w = cone.facet_interior_point(v)
        assert primitive_vector(w) == w and min(w) > 0
        assert sum(a * b for a, b in zip(v, w)) == 0
        assert all(sum(a * b for a, b in zip(u, w)) > 0 for u in cone.ineqs if u != v)
        assert again.facet_interior_point(v) == w


def test_feasibility_basic():
    # x >= 1, -x >= -3 (x <= 3)
    assert feasible([((1,), 1), ((-1,), -3)], 1)
    assert not feasible([((1,), 1), ((-1,), -2), ((1,), 3)], 1)


def test_solve_system_produces_valid_point():
    cons = [((1, -1), 0), ((1, 0), 1), ((0, 1), 1), ((-1, -1), -10)]
    values, den = solve_system(cons, 2)
    sol = tuple(Fraction(v, den) for v in values)
    assert sol == _ref_solve_system(cons, 2)
    for coeffs, rhs in cons:
        assert sum(Fraction(c) * x for c, x in zip(coeffs, sol)) >= rhs


def test_solve_infeasible_returns_none():
    assert solve_system([((1, 1), 4), ((-1, -1), -2)], 2) is None


def test_strict_positive_solution():
    sol = strict_positive_solution([(1, -1)], 2)
    assert sol is not None and sol[0] >= sol[1] + 0
    assert strict_positive_solution([(1, -1), (-1, 1)], 2) is None  # needs w_x > w_y > w_x


def test_canonical_inequalities_drop_orthant_implied():
    assert Cone.from_vectors([(1, 0), (2, 3)], 2).ineqs == ()
    assert Cone.from_vectors([(1, -1), (2, -2)], 2).ineqs == ((1, -1),)


def test_canonical_inequalities_prune_redundant():
    # within w >= 0: x - y >= 0 makes 2x - y >= 0 redundant
    got = Cone.from_vectors([(1, -1), (2, -1)], 2).ineqs
    assert got == ((1, -1),)


def test_cone_contains_and_interior():
    cone = Cone.from_vectors([(1, -1)], 2)
    assert cone.contains((2, 1))
    assert not cone.contains((1, 2))
    w = strict_positive_solution(cone.ineqs, 2)
    assert all(x > 0 for x in w) and w[0] > w[1]
    # the LP's rational point comes back as a primitive integer vector
    assert all(type(x) is int for x in w) and primitive_vector(w) == w


def test_facet_interior_point():
    cone = Cone.from_vectors([(1, -1, 0), (1, 0, -1)], 3)
    w = cone.facet_interior_point((1, -1, 0))
    assert w is not None
    assert w[0] == w[1] and all(x > 0 for x in w) and w[0] > w[2]
    assert all(type(x) is int for x in w) and primitive_vector(w) == w


@pytest.mark.parametrize("v", [(2, -1, -1), (-1, 1, 0), (2, -2, 0), [1, -1]])
def test_facet_interior_point_of_a_non_facet_raises(v):
    # (2, -1, -1) holds on the cone but is implied, (-1, 1, 0) cuts it,
    # (2, -2, 0) is a facet's multiple and (1, -1) has too few entries
    cone = Cone.from_vectors([(1, -1, 0), (1, 0, -1)], 3)
    with pytest.raises(DomainError, match=r"\(.*\) is not a facet"):
        cone.facet_interior_point(v)


def test_vectors_of_the_wrong_length_raise():
    with pytest.raises(DimensionMismatch, match=r"\(1, -1, 0, 5\)"):
        Cone.from_vectors([(1, -1, 0, 5)], 2)
    R = qring("x", "y")
    with pytest.raises(DimensionMismatch):
        cone_of_marked([R.parse("x + y")], [(1, 0)], 3)
    # monomials give no vector at all, so the ring's size is checked first
    with pytest.raises(DimensionMismatch, match="3 variables"):
        cone_of_marked([R.parse("x"), R.parse("y^2")], [(1, 0), (0, 2)], 3)


def test_a_cone_rebuilt_from_its_fields_is_the_same_cone():
    # the rays are a constructor field, uncompared and unprinted, so a cone
    # has one door and every cone knows its facet points
    cone = Cone.from_vectors([(1, -1, 0), (1, 0, -1), (0, 2, -1)], 3)
    again = Cone(cone.nvars, cone.ineqs, cone.rays)
    assert again == cone and hash(again) == hash(cone)
    assert repr(again) == repr(cone) and "rays" not in repr(cone)
    assert Cone(cone.nvars, cone.ineqs, ()) == cone
    points = [cone.facet_interior_point(v) for v in cone.ineqs]
    assert [again.facet_interior_point(v) for v in again.ineqs] == points
    with pytest.raises(TypeError):
        Cone(2, ((1, -1),))


def test_cone_of_single_binomial():
    R = qring("x", "y")
    f = R.parse("x + y")
    cone = cone_of_marked([f], [(1, 0)], 2)
    assert cone.ineqs == ((1, -1),)
    cone2 = cone_of_marked([f], [(0, 1)], 2)
    assert cone2.ineqs == ((-1, 1),)


def test_cone_of_whole_orthant():
    R = qring("x", "y")
    els = [R.parse("x - 1"), R.parse("y^2 - 2")]
    cone = cone_of_marked(els, [(1, 0), (0, 2)], 2)
    assert cone.ineqs == ()


def test_cone_of_symmetric_basis_weights():
    R = qring("x", "y")
    els = [R.parse("x^2 + x*y + y^2"), R.parse("x*y^2"), R.parse("y^3")]
    cone = cone_of_marked(els, [(2, 0), (1, 2), (0, 3)], 2)
    assert cone.contains((2, 1))
    assert not cone.contains((1, 2))


def test_inconsistent_marking_rejected():
    R = qring("x", "y")
    f = R.parse("x + y + 1")
    with pytest.raises(InconsistentMarking):
        cone_of_marked([f], [(0, 0)], 2)  # constant can never lead
    with pytest.raises(InconsistentMarking):
        cone_of_marked([f], [(3, 3)], 2)  # not in the support


def test_marking_realizable():
    # a marking is realizable when a strictly positive weight makes every
    # marking vector strictly positive, that is when its cone is
    # full-dimensional; Cone.from_vectors decides it with no LP
    assert strict_positive_solution([(1, -1), (0, 1)], 2) is not None
    R = qring("x", "y")
    f, g = R.parse("x + y"), R.parse("y + 1")
    assert cone_of_marked([f, g], [(1, 0), (0, 1)], 2).contains((2, 1))
    # opposite strict inequalities are jointly unrealizable
    assert strict_positive_solution([(1, -1), (-1, 1)], 2) is None
    with pytest.raises(InconsistentMarking):
        cone_of_marked([f, f], [(1, 0), (0, 1)], 2)


@pytest.mark.parametrize(
    "vectors, n",
    [
        ([(1, -1), (-1, 1)], 2),  # the line w_x = w_y
        ([(-1,)], 1),  # the origin
    ],
)
def test_a_cone_that_is_not_full_dimensional_raises(vectors, n):
    with pytest.raises(InconsistentMarking):
        Cone.from_vectors(vectors, n)


@pytest.mark.parametrize(
    "v, u, dominates",
    [
        ((2, -1), (1, -1), True),  # λ = 1
        ((3, -2), (1, -1), True),  # λ = 2
        ((-1, 2), (-1, 1), True),  # 1 <= λ <= 2
        ((1, -1), (2, -1), False),  # λ <= 1/2 and λ >= 1
        ((-2, 1), (-1, 1), False),  # λ >= 2 and λ <= 1
        ((0, 1), (1, -1), False),  # only λ <= 0 works
        ((1, -1, 2), (1, -1, 0), True),  # u_3 = 0 and v_3 >= 0
        ((2, -1, -1), (1, -1, 0), False),  # u_3 = 0 but v_3 < 0
    ],
)
def test_dominance_needs_a_positive_multiple(v, u, dominates):
    # v >= λ·u entrywise with λ > 0 makes u·w >= 0 imply v·w >= 0 on the
    # orthant, so a dominating v is never a facet
    got = Cone.from_vectors([v, u], len(v)).ineqs
    assert got == _ref_canonical([v, u], len(v))
    if dominates:
        assert v not in got


def test_a_dominated_candidate_costs_no_lp(record_calls):
    # (2, -1) >= 1·(1, -1) entrywise, so (1, -1) alone is a facet
    feasible_calls = record_calls(gbfan.cones, "feasible")
    solve_calls = record_calls(gbfan.cones, "solve_system")
    assert Cone.from_vectors([(1, -1), (2, -1)], 2).ineqs == ((1, -1),)
    assert feasible_calls == solve_calls == []


def test_a_combination_of_two_others_reaches_fourier_motzkin(record_calls):
    # (2, -1, -1) = (1, -1, 0) + (1, 0, -1) dominates neither, yet the
    # rays show it tight only on (1, 1, 1), where both others are tight too
    feasible_calls = record_calls(gbfan.cones, "feasible")
    solve_calls = record_calls(gbfan.cones, "solve_system")
    got = Cone.from_vectors([(1, -1, 0), (1, 0, -1), (2, -1, -1)], 3).ineqs
    assert got == ((1, -1, 0), (1, 0, -1))
    assert feasible_calls == solve_calls == []


def test_a_four_variable_point_fan_matches_fourier_motzkin():
    # 4-variable cones are where double description replaces the most
    # Fourier-Motzkin work: every cone of this walk, and the walk itself
    # against the oracle
    R = fring(32003, "x", "y", "z", "t")
    I = vanishing_ideal(
        points(
            R,
            [
                (-19, 9, -5, -17),
                (-10, -13, 3, 10),
                (-5, 4, 14, -14),
                (6, -3, -9, 4),
                (16, -5, -20, -7),
                (19, -4, 2, 13),
            ],
        )
    )
    fan = enumerate_fan(I)
    assert fan.size == 74
    assert fan == fan_oracle_zerodim(I)
    for mb in fan:
        gb = mb.basis
        vectors = marking_vectors([g.coeffs for g in gb.elements], gb.lt_exps)
        assert mb.cone.ineqs == _ref_canonical(vectors, 4)
