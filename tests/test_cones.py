"""Exact Fourier-Motzkin systems and cone canonicalization."""

from fractions import Fraction

import pytest

from gbfan import Cone, cone_of_marked
from gbfan.cones import (
    canonical_inequalities,
    feasible,
    solve_system,
    strict_positive_solution,
)
from gbfan.errors import InconsistentMarking
from gbfan.linalg import primitive_vector

from conftest import qring


def test_feasibility_basic():
    # x >= 1, -x >= -3 (x <= 3)
    assert feasible([((1,), 1), ((-1,), -3)], 1)
    assert not feasible([((1,), 1), ((-1,), -2), ((1,), 3)], 1)


def test_solve_system_produces_valid_point():
    cons = [((1, -1), 0), ((1, 0), 1), ((0, 1), 1), ((-1, -1), -10)]
    sol = solve_system(cons, 2)
    assert sol is not None
    for coeffs, rhs in cons:
        assert sum(Fraction(c) * x for c, x in zip(coeffs, sol)) >= rhs


def test_solve_infeasible_returns_none():
    assert solve_system([((1, 1), 4), ((-1, -1), -2)], 2) is None


def test_strict_positive_solution():
    sol = strict_positive_solution([(1, -1)], 2)
    assert sol is not None and sol[0] >= sol[1] + 0
    assert strict_positive_solution([(1, -1), (-1, 1)], 2) is None  # needs w_x > w_y > w_x


def test_canonical_inequalities_drop_orthant_implied():
    assert canonical_inequalities([(1, 0), (2, 3)], 2) == ()
    assert canonical_inequalities([(1, -1), (2, -2)], 2) == ((1, -1),)


def test_canonical_inequalities_prune_redundant():
    # within w >= 0: x - y >= 0 makes 2x - y >= 0 redundant
    got = canonical_inequalities([(1, -1), (2, -1)], 2)
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
    # marking vector strictly positive; cone_of_marked decides it by this LP
    assert strict_positive_solution([(1, -1), (0, 1)], 2) is not None
    R = qring("x", "y")
    f, g = R.parse("x + y"), R.parse("y + 1")
    assert cone_of_marked([f, g], [(1, 0), (0, 1)], 2).contains((2, 1))
    # opposite strict inequalities are jointly unrealizable
    assert strict_positive_solution([(1, -1), (-1, 1)], 2) is None
    with pytest.raises(InconsistentMarking):
        cone_of_marked([f, f], [(1, 0), (0, 1)], 2)
