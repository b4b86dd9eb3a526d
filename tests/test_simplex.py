import itertools

import numpy as np
import pytest

from sl1 import simplex, solver
from sl1.generators import make_instance
from sl1.rng import RngSpec, Stream

from oracles import lp_min_by_vertex_enumeration, simplex_full_tableau


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
    with pytest.raises(ValueError, match="two-dimensional"):
        simplex.solve_canonical([1.0], [1.0], [1.0])


@pytest.mark.parametrize("where", ["c", "a", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rejects_non_finite_data(where, value):
    data = {"c": np.array([1.0, 2.0]), "a": np.array([[1.0, 1.0]]), "b": np.array([1.0])}
    data[where].flat[0] = value
    with pytest.raises(ValueError, match="finite"):
        simplex.solve_canonical(data["c"], data["a"], data["b"])


class TestInputsUnchanged:
    """solve_canonical pivots a copy: the caller's arrays keep every byte,
    -0.0 entries included, and a second solve on them gives the same
    result."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(3)
        table = np.zeros((7, 6))
        table[:6, :5] = np.round(rng.standard_normal((6, 5)), 1)
        table[:6, 5] = np.round(rng.uniform(0.0, 2.0, 6), 1)
        table[6, :5] = np.round(rng.standard_normal(5), 1)
        table[0, 0] = table[6, 1] = table[2, 5] = -0.0
        return table

    def _check(self, c, a, b, free=None):
        before = [x.copy() for x in (c, a, b)]
        first = simplex.solve_canonical(c, a, b, free=free)
        assert first.status == simplex.OPTIMAL and first.pivots > 0
        for x, y in zip((c, a, b), before):
            assert x.tobytes() == y.tobytes()
        second = simplex.solve_canonical(c, a, b, free=free)
        assert second.pivots == first.pivots
        assert second.x.tobytes() == first.x.tobytes()
        assert second.duals.tobytes() == first.duals.tobytes()

    def test_separate_arrays(self):
        table = self._table()
        self._check(table[6, :5].copy(), table[:6, :5].copy(), table[:6, 5].copy())

    def test_views_of_one_table(self):
        # c, a and b laid out as the table [a b; c 0] that the simplex pivots
        table = self._table()
        before = table.copy()
        self._check(table[6, :5], table[:6, :5], table[:6, 5], free=[True, False, True, False, False])
        assert table.tobytes() == before.tobytes()


def _dual_lp(inst):
    """The dual of the LP reduction with its residual multiplier split in
    two nonnegative parts, all columns bounded: a large, degenerate LP."""
    lp = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
    return lp.b_ub, -lp.a_ub.T, lp.c


def _exact_grid_instances():
    # the 40 trials of the 128x64, k = s = 4 grid at seed 14142
    return [make_instance(128, 64, 4, {"kind": "sparse", "s": 4, "scale": 1.0},
                          {"kind": "sparse", "amplitude": "gaussian"},
                          RngSpec(14142).child(0).child(trial))
            for trial in range(40)]


def _criterion_1_instances(count):
    # the first `count` instances of the criterion-1 set
    instances = []
    for i in range(count):
        st = Stream(RngSpec(31415, i))
        n = 5 + st.integer_below(36)
        m = 5 + st.integer_below(36)
        k = 1 + st.integer_below(min(5, n))
        s = 1 + st.integer_below(max(1, m // 4))
        instances.append(make_instance(n, m, k, {"kind": "sparse", "s": s, "scale": 1.0},
                                       {"kind": "sparse", "amplitude": "gaussian"},
                                       RngSpec(27182, i)))
    return instances


def _exact_grid_lps():
    return [_dual_lp(inst) for inst in _exact_grid_instances()]


def _criterion_1_lps(count):
    return [_dual_lp(inst) for inst in _criterion_1_instances(count)]


def _free_dual_lp(inst):
    """The LP that solver.solve_lp_exact hands the simplex (the dual with
    its residual multiplier free), copied as (c, a, b, free)."""
    seen = []
    solve_canonical = simplex.solve_canonical

    def recording(c, a, b, max_pivots, free):
        seen.append((np.array(c), np.array(a), np.array(b), np.array(free)))
        return solve_canonical(c, a, b, max_pivots=max_pivots, free=free)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_canonical", recording)
        solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
    [lp] = seen
    return lp


def _bytes(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def _assert_same_as_full_tableau(c, a, b, **kwargs):
    res = simplex.solve_canonical(c, a, b, **kwargs)
    status, x, objective, pivots, duals = simplex_full_tableau(c, a, b, **kwargs)
    assert (res.status, res.pivots) == (status, pivots)
    assert _bytes(res.x) == _bytes(x)
    assert _bytes(res.duals) == _bytes(duals)
    assert _bytes(res.objective) == _bytes(objective)
    return res


class TestSameAsFullTableau:
    """The compact tableau keeps every floating-point operation of a
    full-tableau pivot, so status, pivot count and result bytes agree."""

    def test_exact_grid_lps(self):
        pivots = [_assert_same_as_full_tableau(*lp).pivots for lp in _exact_grid_lps()]
        assert sum(pivots) == 2489 and max(pivots) == 117

    def test_criterion_1_lps(self):
        for lp in _criterion_1_lps(20):
            assert _assert_same_as_full_tableau(*lp).status == simplex.OPTIMAL

    def test_exact_grid_lps_with_free_columns(self):
        # the LPs that solve_lp_exact solves on the `exact` workload
        pivots = []
        for inst in _exact_grid_instances():
            c, a, b, free = _free_dual_lp(inst)
            pivots.append(_assert_same_as_full_tableau(c, a, b, free=free).pivots)
        assert sum(pivots) == 1561 and max(pivots) == 79

    def test_criterion_1_lps_with_free_columns(self):
        for inst in _criterion_1_instances(20):
            c, a, b, free = _free_dual_lp(inst)
            assert _assert_same_as_full_tableau(c, a, b, free=free).status == simplex.OPTIMAL

    def test_random_lps_with_free_columns(self):
        stream = Stream(RngSpec(606))
        for _ in range(60):
            c, a, b, free = _free_lp(stream)
            _assert_same_as_full_tableau(c, a, b, free=free)

    def test_capped_solve(self):
        res = _assert_same_as_full_tableau(*_exact_grid_lps()[0], max_pivots=5)
        assert (res.status, res.pivots) == (simplex.PIVOT_LIMIT, 5)

    def test_unbounded_lp(self):
        # a tall phi whose residual ball cannot reach y: the dual is
        # unbounded, after some pivots
        st = Stream(RngSpec(303))
        phi = st.normal(12 * 4).reshape(12, 4)
        y = st.normal(12)
        lp = solver.lp_formulate(phi, y, 0.1)
        res = _assert_same_as_full_tableau(lp.b_ub, -lp.a_ub.T, lp.c)
        assert res.status == simplex.UNBOUNDED and res.pivots > 0

    def test_beale_lp_under_every_column_order(self):
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        a = np.array([[0.25, -60.0, -0.04, 9.0],
                      [0.5, -90.0, -0.02, 3.0],
                      [0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        for perm in itertools.permutations(range(4)):
            perm = list(perm)
            _assert_same_as_full_tableau(c[perm], a[:, perm], b)


class TestTies:
    """Each tie branch of the pivot loop, forced by a small LP; the
    branches run only when a count finds a tie."""

    def test_pricing_tie_to_the_smaller_variable_in_a_later_slot(self):
        # min -x1 - x2 - x3 s.t. 2 x1 - x3 <= 2, 2 x1 + x2 + x3 <= 2.
        # Before the third pivot slot 0 holds the slack s1 (variable 3)
        # and slot 1 holds x2 (variable 1), both at reduced cost -0.25:
        # x2 enters, and a fourth pivot ends at x = (0, 2, 0).  Taking the
        # first slot lets s1 enter and ends at (0, 0, 2) after three.
        res = _assert_same_as_full_tableau([-1.0, -1.0, -1.0],
                                           [[2.0, 0.0, -1.0], [2.0, 1.0, 1.0]], [2.0, 2.0])
        assert (res.status, res.pivots) == (simplex.OPTIMAL, 4)
        assert _bytes(res.x) == _bytes([0.0, 2.0, 0.0])

    def test_ratio_tie_within_tolerance_to_the_larger_element(self):
        # min -x s.t. x <= 1, 2 x <= 2 + 2^-40: the ratios 1 and 1 + 2^-41
        # tie within 1e-9, and row 1 holds the larger pivot element, so x
        # ends at 1 + 2^-41 rather than at the smaller ratio's 1
        res = _assert_same_as_full_tableau([-1.0], [[1.0], [2.0]], [1.0, 2.0 + 2.0 ** -40])
        assert (res.status, res.pivots) == (simplex.OPTIMAL, 1)
        assert _bytes(res.x) == _bytes([1.0 + 2.0 ** -41])

    def test_ratio_tie_leaves_a_locked_row_out(self):
        # min -3 x1 - 2 x2 s.t. x1 + x2 / 2 <= 1, x2 / 4 <= 1 / 2,
        # 0.4 x2 <= 0.8 + 1e-12, x1 free.  x1 enters on row 0, which is
        # then locked; x2's ratios are 2 on all three rows (within 1e-9),
        # and row 0 holds the largest element.  Row 2 leaves: the
        # larger element of the two unlocked rows, past row 1's
        # smaller ratio.
        rows = []
        pivot = simplex._pivot

        def recording_pivot(table, basis, nonbasic, row, col, work):
            rows.append(row)
            pivot(table, basis, nonbasic, row, col, work)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "_pivot", recording_pivot)
            res = _assert_same_as_full_tableau(
                [-3.0, -2.0], [[1.0, 0.5], [0.0, 0.25], [0.0, 0.4]], [1.0, 0.5, 0.8 + 1e-12],
                free=[True, False])
        assert (res.status, rows) == (simplex.OPTIMAL, [0, 2])
        x2 = (0.8 + 1e-12) / 0.4
        assert _bytes(res.x) == _bytes([1.0 - 0.5 * x2, x2])


def _signed_zero_lp(stream, m, n):
    """A small LP whose data holds many exact zeros, half of them -0.0."""
    a = np.round(stream.normal(m * n)).reshape(m, n)
    a[(a == 0.0) & (stream.normal(m * n).reshape(m, n) < 0.0)] = -0.0
    b = np.abs(np.round(stream.normal(m)))
    b[(b == 0.0) & (stream.normal(m) < 0.0)] = -0.0
    c = np.round(stream.normal(n))
    c[(c == 0.0) & (stream.normal(n) < 0.0)] = -0.0
    return c, a, b


def _outer_pivot(table, row, col):
    """The compact pivot, on a table whose last row holds the reduced
    costs, with its rank-1 update by np.outer, which keeps the sign of
    every zero product."""
    piv = table[row, col]
    factors = table[:, col].copy()
    factors[row] = 0.0
    table[:, col] = 0.0
    table[row, col] = 1.0
    table[row] /= piv
    table -= np.outer(factors, table[row])


def _flip_zero_signs(values):
    """values with every +0.0 made -0.0 and every -0.0 made +0.0."""
    return np.where(values == 0.0, -values, values)


class TestSignedZeros:
    """The BLAS update returns +0.0 for a -0.0 product; the table, its
    cost row included, is built without -0.0, and a pivot keeps it so."""

    def test_lps_with_negative_zero_data(self):
        stream = Stream(RngSpec(404))
        for _ in range(300):
            _assert_same_as_full_tableau(*_signed_zero_lp(stream, 2 + stream.integer_below(5),
                                                          2 + stream.integer_below(5)))

    def test_sign_of_a_zero_in_a_and_b_changes_no_result(self, monkeypatch):
        # c is left as it is: a zero objective over all-zero products
        # can carry the sign of the cost zeros.  Every pivot starts and
        # ends on a table without -0.0, cost row included, and its
        # entering column holds none.
        pivot = simplex._pivot

        def checked_pivot(table, *args):
            column = args[-1].factors[:, 0]
            assert not np.signbit(table[table == 0.0]).any()
            assert not np.signbit(column[column == 0.0]).any()
            pivot(table, *args)
            assert not np.signbit(table[table == 0.0]).any()

        monkeypatch.setattr(simplex, "_pivot", checked_pivot)
        stream = Stream(RngSpec(404))
        lps = [_signed_zero_lp(stream, 2 + stream.integer_below(5), 2 + stream.integer_below(5))
               for _ in range(300)]
        for c, a, b in lps + _exact_grid_lps():
            res = simplex.solve_canonical(c, a, b)
            flipped = simplex.solve_canonical(c, _flip_zero_signs(a), _flip_zero_signs(b))
            assert (res.status, res.pivots) == (flipped.status, flipped.pivots)
            for field in ("x", "duals", "objective"):
                assert _bytes(getattr(res, field)) == _bytes(getattr(flipped, field)), field

    def test_every_entry_after_every_pivot(self):
        # any pivot element of size >= 0.5, either sign; a third of the
        # constraint entries scaled by 1e-160, so that their products
        # underflow.  The table starts as solve_canonical builds it, its
        # cost row last and without -0.0.
        stream = Stream(RngSpec(405))
        for case in range(120):
            m, n = 2 + stream.integer_below(6), 2 + stream.integer_below(6)
            c, a, b = _signed_zero_lp(stream, m, n)
            table = np.vstack([np.column_stack([a, b]), np.append(c, 0.0)])
            table[:m][stream.normal(m * (n + 1)).reshape(m, n + 1) > 0.4] *= 1e-160
            table += 0.0
            reference = table.copy()
            work = simplex._Work(table)
            basis, nonbasic = np.arange(n, n + m), np.arange(n)
            for _ in range(4):
                candidates = np.argwhere(np.abs(reference[:m, :-1]) >= 0.5)
                if not len(candidates):
                    break
                row, col = candidates[stream.integer_below(len(candidates))]
                _outer_pivot(reference, row, col)
                work.factors[:, 0] = table[:, col]
                simplex._pivot(table, basis, nonbasic, row, col, work)
                assert table.tobytes() == reference.tobytes(), case


class TestEmptyDimensions:
    def test_zero_columns_is_optimal_at_the_origin(self):
        res = _assert_same_as_full_tableau([], np.zeros((2, 0)), [1.0, 1.0])
        assert res.status == simplex.OPTIMAL
        assert res.x.shape == (0,) and res.objective == 0.0
        # both slacks stay basic: duals are -0.0
        assert _bytes(res.duals) == _bytes([-0.0, -0.0])

    def test_zero_rows_negative_cost_is_unbounded(self):
        res = _assert_same_as_full_tableau([-1.0], np.zeros((0, 1)), [])
        assert res.status == simplex.UNBOUNDED

    def test_zero_rows_nonnegative_cost_is_optimal(self):
        res = _assert_same_as_full_tableau([1.0], np.zeros((0, 1)), [])
        assert res.status == simplex.OPTIMAL
        assert _bytes(res.x) == _bytes([0.0]) and res.duals.shape == (0,)


def _free_lp(stream):
    """A random LP with b >= 0, some columns free, and every column boxed
    to [-2, 2] (the bound x >= 0 of the others aside), so it is bounded."""
    m = 2 + stream.integer_below(5)
    n = 2 + stream.integer_below(5)
    free = stream.normal(n) < 0.3
    a = np.vstack([stream.normal(m * n).reshape(m, n), np.eye(n), -np.eye(n)[free]])
    b = np.concatenate([np.abs(stream.normal(m)) + 0.1, np.full(n + free.sum(), 2.0)])
    return stream.normal(n), a, b, free


class TestFreeColumns:
    """Columns without the bound x >= 0: priced at -|d_j|, negated before
    they enter when d_j > 0, and never leaving once basic."""

    def test_random_lps_match_highs(self):
        from scipy.optimize import linprog

        stream = Stream(RngSpec(606))
        negative = 0
        for trial in range(60):
            c, a, b, free = _free_lp(stream)
            res = simplex.solve_canonical(c, a, b, free=free)
            bounds = [(None, None) if f else (0, None) for f in free]
            ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
            assert ref.status == 0 and res.status == simplex.OPTIMAL, trial
            assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), trial
            assert np.all(a @ res.x <= b + 1e-9), trial
            assert np.all(res.x[~free] >= 0.0), trial
            # the dual: b @ duals = objective, duals <= 0, and a.T @ duals
            # equals c on the free columns and stays below it on the others
            assert float(b @ res.duals) == pytest.approx(res.objective, abs=1e-9), trial
            assert np.all(res.duals <= 1e-9), trial
            reduced = c - a.T @ res.duals
            assert np.all(abs(reduced[free]) <= 1e-9) and np.all(reduced[~free] >= -1e-9), trial
            negative += int(np.any(res.x[free] < -1e-9))
        assert negative >= 10

    def test_negative_free_variable_at_the_optimum(self):
        # min x1 + x2 s.t. -x1 + x2 <= 3, x2 <= 1, x1 free: x = (-3, 0)
        res = simplex.solve_canonical([1.0, 1.0], [[-1.0, 1.0], [0.0, 1.0]], [3.0, 1.0],
                                      free=[True, False])
        assert res.status == simplex.OPTIMAL
        assert _bytes(res.x) == _bytes([-3.0, 0.0])
        assert res.objective == -3.0
        assert _bytes(res.duals) == _bytes([-1.0, -0.0])

    def test_positive_reduced_cost_flips_the_column(self, monkeypatch):
        # min 3 x1 - x2 s.t. -x1 <= 1, x2 <= 1, both free: x1 prices at -3
        # and enters first, negated with its reduced cost, so that it can
        # decrease to -1; without the flip its column holds no positive
        # entry.  The flip makes no -0.0 of the column's zero.
        pivot = simplex._pivot
        entering = []

        def checked_pivot(table, basis, nonbasic, row, col, work):
            column = work.factors[:, 0]
            assert not np.signbit(table[table == 0.0]).any()
            assert not np.signbit(column[column == 0.0]).any()
            entering.append((int(nonbasic[col]), column.tolist()))
            pivot(table, basis, nonbasic, row, col, work)

        monkeypatch.setattr(simplex, "_pivot", checked_pivot)
        res = simplex.solve_canonical([3.0, -1.0], [[-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0],
                                      free=[True, True])
        assert (res.status, res.pivots) == (simplex.OPTIMAL, 2)
        assert entering == [(0, [1.0, 0.0, -3.0]), (1, [0.0, 1.0, -1.0])]
        assert _bytes(res.x) == _bytes([-1.0, 1.0])
        assert res.objective == -4.0

    def test_unbounded_along_a_free_column(self):
        from scipy.optimize import linprog

        # min -x1 - 2 x2 s.t. x1 + x2 <= 1, x1 free: x2 enters first; then
        # x1 prices at +1 and, negated, has no positive entry: x1 -> -inf
        c, a, b = [-1.0, -2.0], [[1.0, 1.0]], [1.0]
        res = simplex.solve_canonical(c, a, b, free=[True, False])
        assert (res.status, res.pivots) == (simplex.UNBOUNDED, 1)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(None, None), (0, None)], method="highs")
        assert ref.status == 3

    def test_locked_row_never_leaves(self, monkeypatch):
        # min -3 x1 - 2 x2 s.t. x1 + x2 / 2 <= 1, x2 <= 4, x1 free: x1
        # enters on row 0, then x2, whose ratio is 2 on row 0 and 4 on
        # row 1.  Row 0 holds the free x1 and is left out, so x2 leaves
        # at 4 with x1 = -1 on the second pivot (a third would follow had
        # x1 left row 0 at zero).
        pivot = simplex._pivot
        rows = []

        def recording_pivot(table, basis, nonbasic, row, col, work):
            rows.append(row)
            pivot(table, basis, nonbasic, row, col, work)

        monkeypatch.setattr(simplex, "_pivot", recording_pivot)
        res = simplex.solve_canonical([-3.0, -2.0], [[1.0, 0.5], [0.0, 1.0]], [1.0, 4.0],
                                      free=[True, False])
        assert (res.status, rows) == (simplex.OPTIMAL, [0, 1])
        assert _bytes(res.x) == _bytes([-1.0, 4.0])
        assert res.objective == -5.0

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="free mask"):
            simplex.solve_canonical([1.0, 2.0], [[1.0, 1.0]], [1.0], free=[True])
