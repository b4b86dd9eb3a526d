import itertools

import numpy as np
import pytest

from sl1 import simplex
from sl1.rng import RngSpec, Stream

from oracles import lp_min_by_vertex_enumeration


def test_textbook_maximization_as_min():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> optimum 36
    c = np.array([-3.0, -5.0])
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    res = simplex.solve_canonical(c, a, b)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-36.0, abs=1e-12)
    assert res.x == pytest.approx([2.0, 6.0], abs=1e-12)


def test_negative_rhs_rejected():
    # x >= 2 encoded as -x <= -2: the origin is infeasible, and there is
    # no phase 1 to find another start
    with pytest.raises(ValueError):
        simplex.solve_canonical([1.0], [[-1.0]], [-2.0])


def test_unbounded_detected():
    res = simplex.solve_canonical([-1.0], [[-1.0]], [0.0])
    assert res.status == simplex.UNBOUNDED


def test_degenerate_problem_terminates():
    # redundant constraints meeting at the same vertex
    c = np.array([-1.0, -1.0])
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 1.0, 2.0])
    res = simplex.solve_canonical(c, a, b)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-2.0, abs=1e-12)


def test_beale_cycling_example_solves_under_every_column_order():
    # Beale (1955): textbook Dantzig pricing with smallest-index ties
    # cycles on this LP; the optimum is -1/20 at x = (1/25, 0, 1, 0).
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a = np.array([[0.25, -60.0, -0.04, 9.0],
                  [0.5, -90.0, -0.02, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    for perm in itertools.permutations(range(4)):
        perm = list(perm)
        res = simplex.solve_canonical(c[perm], a[:, perm], b)
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(-0.05, abs=1e-12)


def test_strong_duality_on_random_problems():
    stream = Stream(RngSpec(101))
    for trial in range(30):
        m = 2 + stream.integer_below(5)
        n = 2 + stream.integer_below(5)
        a = stream.normal(m * n).reshape(m, n)
        b = np.abs(stream.normal(m)) + 0.5   # origin feasible
        c = np.abs(stream.normal(n))         # bounded below by 0
        res = simplex.solve_canonical(c, a, b)
        assert res.status == simplex.OPTIMAL
        assert float(b @ res.duals) == pytest.approx(res.objective, abs=1e-9)
        # dual feasibility: A^T y <= c, y <= 0
        assert np.all(res.duals <= 1e-9)
        assert np.all(a.T @ res.duals <= c + 1e-8)


def test_matches_vertex_enumeration_on_random_problems():
    stream = Stream(RngSpec(202))
    solved = 0
    for trial in range(25):
        m = 2 + stream.integer_below(3)
        n = 2 + stream.integer_below(3)
        a = stream.normal(m * n).reshape(m, n)
        b = np.abs(stream.normal(m)) + 0.2
        c = np.abs(stream.normal(n)) + 0.1
        res = simplex.solve_canonical(c, a, b)
        oracle, _ = lp_min_by_vertex_enumeration(c, a, b)
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(oracle, abs=1e-9)
        solved += 1
    assert solved == 25


def test_pivot_limit_status():
    c = np.array([-3.0, -5.0])
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    res = simplex.solve_canonical(c, a, b, max_pivots=1)
    assert res.status == simplex.PIVOT_LIMIT


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        simplex.solve_canonical([1.0, 2.0], [[1.0]], [1.0])
