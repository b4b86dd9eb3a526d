import math

import numpy as np
import pytest

from sl1 import analysis, core, simplex, solver
from sl1.cli import main
from sl1.generators import load_bundle, make_instance
from sl1.rng import RngSpec, Stream

from oracles import highs_objective, lp_min_by_vertex_enumeration, project_l1_ball_bisection


def _random_instance(seed, n_max=12, m_max=12):
    st = Stream(RngSpec(9000 + seed))
    n = 3 + st.integer_below(n_max - 2)
    m = 3 + st.integer_below(m_max - 2)
    k = 1 + st.integer_below(min(3, n))
    s = 1 + st.integer_below(max(1, m // 3))
    return make_instance(n, m, k, {"kind": "sparse", "s": s, "scale": 1.0},
                         {"kind": "sparse", "amplitude": "gaussian"},
                         RngSpec(7000 + seed))


def _record_checks(monkeypatch) -> list:
    """The names that core.as_vector and core.as_matrix are called with
    from now on ("" for a call without one)."""
    names = []
    for attr in ("as_vector", "as_matrix"):
        check = getattr(core, attr)

        def recorded(a, name="", check=check):
            names.append(name)
            return check(a, name)

        monkeypatch.setattr(core, attr, recorded)
    return names


def _criterion_1_instance(index):
    """Instance `index` of the criterion-1 set (tests/test_acceptance.py)."""
    st = Stream(RngSpec(31415, index))
    n = 5 + st.integer_below(36)
    m = 5 + st.integer_below(36)
    k = 1 + st.integer_below(min(5, n))
    s = 1 + st.integer_below(max(1, m // 4))
    return make_instance(n, m, k, {"kind": "sparse", "s": s, "scale": 1.0},
                         {"kind": "sparse", "amplitude": "gaussian"},
                         RngSpec(27182, index))


def _mid_bundle(directory):
    """The CI `mid` bundle: 256 x 128 (phi is 128 x 256), k = 5, sparse noise
    s = 5, seed 11, made by `sl1 gen` in `directory`."""
    bundle = str(directory / "mid")
    assert main(["gen", "--out", bundle, "--n", "256", "--m", "128", "--k", "5",
                 "--noise", "sparse", "--s", "5", "--seed", "11"]) == 0
    return load_bundle(bundle)


def _exact_grid_instance(trial):
    """Trial `trial` of the 128x64, k=4, s=4 grid at seed 14142."""
    return make_instance(128, 64, 4, {"kind": "sparse", "s": 4, "scale": 1.0},
                         {"kind": "sparse", "amplitude": "gaussian"},
                         RngSpec(14142).child(0).child(trial))


@pytest.fixture(scope="module")
def criterion_1_highs():
    """The criterion-1 instances with their optima by HiGHS."""
    instances = [_criterion_1_instance(index) for index in range(100)]
    return [(inst, highs_objective(inst.phi, inst.y, inst.epsilon)) for inst in instances]


class TestProx:
    def test_soft_threshold_examples(self):
        assert np.array_equal(solver.soft_threshold([3, -1], 1.0), [2, 0])
        v = np.array([0.5, -2.0, 0.0])
        assert np.array_equal(solver.soft_threshold(v, 0.0), v)
        assert np.array_equal(solver.soft_threshold(v, 2.0), np.zeros(3))

    def test_soft_threshold_uses_math_sign(self):
        # sign(0) = 0 here, unlike core.sign_vec
        assert solver.soft_threshold([0.0], 0.0)[0] == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            solver.soft_threshold([1.0], -0.1)

    def test_project_examples(self):
        assert np.array_equal(solver.project_l1_ball([3.0, 0.0], 1.0), [1.0, 0.0])
        assert np.array_equal(solver.project_l1_ball([0.2, 0.3], 1.0), [0.2, 0.3])
        assert solver.project_l1_ball([1.0, 1.0], 1.0) == pytest.approx([0.5, 0.5])

    def test_project_zero_radius(self):
        assert np.array_equal(solver.project_l1_ball([1.0, -2.0], 0.0), [0.0, 0.0])

    def test_project_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            solver.project_l1_ball([1.0], -1.0)

    @pytest.mark.parametrize("v, radius, expected", [
        ([1e20, 0.0], 1.0, [1.0, 0.0]),
        ([3e16], 1.0, [1.0]),
        ([1e16, 1e16], 0.5, [0.25, 0.25]),
        ([-1.5e16, 2.0], 1.0, [-1.0, 0.0]),
        # the sum of the magnitudes overflows to inf
        pytest.param([1e308, 1e308, -1e308], 1.0, [1 / 3, 1 / 3, -1 / 3],
                     marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
    ])
    def test_project_radius_below_rounding_of_magnitudes(self, v, radius, expected):
        # The radius vanishes in rounding against the largest magnitude;
        # the projection must still land in the ball, at the right point.
        out = solver.project_l1_ball(np.array(v), radius)
        assert core.norm_lp(out, 1) <= radius * (1 + 1e-12)
        assert out == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("v", [[1.0, math.inf, 2.0], [math.nan, 1.0]])
    def test_project_non_finite_rejected(self, v):
        with pytest.raises(ValueError, match="finite"):
            solver.project_l1_ball(v, 1.0)

    def test_project_lands_in_ball_across_magnitude_ratios(self):
        st = Stream(RngSpec(17))
        for _ in range(400):
            dim = 1 + st.integer_below(20)
            v = st.normal(dim) * 10.0 ** (20.0 * st.uniform(1)[0])
            radius = 10.0 ** (-3.0 + 5.0 * st.uniform(1)[0])
            out = solver.project_l1_ball(v, radius)
            assert core.norm_lp(out, 1) <= radius * (1 + 1e-12)
            assert np.all(out * v >= 0.0)

    def test_project_matches_bisection_oracle(self):
        st = Stream(RngSpec(11))
        for _ in range(40):
            dim = 1 + st.integer_below(12)
            v = 3.0 * st.normal(dim)
            radius = float(np.abs(st.normal(1))[0]) + 0.01
            fast = solver.project_l1_ball(v, radius)
            slow = project_l1_ball_bisection(v, radius)
            assert fast == pytest.approx(slow, abs=1e-9)
            assert core.norm_lp(fast, 1) <= radius * (1 + 1e-12)


class TestOperatorNorm:
    def test_identity(self):
        assert solver.operator_norm_estimate(np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_known_spectrum(self):
        assert solver.operator_norm_estimate(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-6)

    def test_never_exceeds_frobenius_and_close_to_svd(self):
        st = Stream(RngSpec(12))
        for _ in range(10):
            a = st.normal(12 * 7).reshape(12, 7)
            est = solver.operator_norm_estimate(a)
            fro = float(np.sqrt((a * a).sum()))
            top = float(np.linalg.svd(a, compute_uv=False)[0])
            assert est <= fro + 1e-12
            assert est <= top + 1e-12
            assert est >= 0.99 * top


class TestLpFormulation:
    def test_counts(self):
        lp = solver.lp_formulate(np.eye(1), [1.0], 0.5)
        assert lp.c.size == 3         # u+, u-, t
        assert lp.b_ub.size == 3      # two absolute-value rows + budget row

    def test_round_trip_against_vertex_enumeration(self):
        for seed in range(8):
            inst = _random_instance(seed, n_max=3, m_max=3)
            lp = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
            oracle, _ = lp_min_by_vertex_enumeration(lp.c, lp.a_ub, lp.b_ub)
            res = solver.solve_lp_exact(lp)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(oracle, abs=1e-9)

    def test_zero_epsilon_square_invertible(self):
        st = Stream(RngSpec(13))
        phi = st.normal(9).reshape(3, 3)
        x = np.array([0.5, -1.0, 2.0])
        y = phi @ x
        res = solver.solve_lp_exact(solver.lp_formulate(phi, y, 0.0))
        assert res.status == "optimal"
        assert res.u_star == pytest.approx(x, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solver.lp_formulate(np.eye(2), [1.0, 2.0, 3.0], 0.1)
        with pytest.raises(ValueError):
            solver.lp_formulate(np.eye(2), [1.0, 2.0], -0.1)


class TestLazyPrimal:
    """lp_formulate's c, a_ub and b_ub are built on first read; no exact
    solve reads them, and a later read gives the docstring's formula."""

    PRIMAL = ("c", "a_ub", "b_ub")

    @staticmethod
    def _formula(lp):
        phi, y = lp.phi, lp.y
        m, n = phi.shape
        eye, zeros = np.eye(m), np.zeros((1, n))
        return (np.concatenate([np.ones(2 * n), np.zeros(m)]),
                np.block([[-phi, phi, -eye], [phi, -phi, -eye], [zeros, zeros, np.ones((1, m))]]),
                np.concatenate([-y, y, [lp.epsilon]]))

    @staticmethod
    def _recording(monkeypatch):
        lps = []
        formulate = solver.lp_formulate

        def recording(*args):
            lps.append(formulate(*args))
            return lps[-1]

        monkeypatch.setattr(solver, "lp_formulate", recording)
        return lps

    def _assert_unbuilt_then_formula(self, lps):
        assert lps
        for lp in lps:
            assert not set(self.PRIMAL) & vars(lp).keys()
            for name, expected in zip(self.PRIMAL, self._formula(lp)):
                assert getattr(lp, name).tobytes() == expected.tobytes(), name
                assert getattr(lp, name).shape == expected.shape, name
            lp.c = lp.a_ub = lp.b_ub = None
            assert (lp.c, lp.a_ub, lp.b_ub) == (None, None, None)

    def test_solve_lp_exact(self):
        inst = _random_instance(5)
        lp = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
        assert solver.solve_lp_exact(lp).is_usable()
        self._assert_unbuilt_then_formula([lp])

    def test_solve_and_run_trial(self, monkeypatch):
        lps = self._recording(monkeypatch)
        inst = _random_instance(6)
        config = solver.SolverConfig(method=solver.METHOD_LP)
        assert solver.solve(inst.phi, inst.y, inst.epsilon, config).is_usable()
        trial = analysis.run_trial(24, 12, 2, 2, RngSpec(7), config=config)
        assert trial.status == "optimal"
        assert len(lps) == 2
        self._assert_unbuilt_then_formula(lps)

    def test_assignment_before_a_read(self):
        lp = solver.lp_formulate(np.eye(2), [1.0, 2.0], 0.5)
        lp.a_ub = None
        assert lp.a_ub is None
        assert lp.c.tobytes() == self._formula(lp)[0].tobytes()


class TestLpExact:
    def test_zero_solution_when_budget_covers_y(self):
        st = Stream(RngSpec(14))
        phi = st.normal(8).reshape(2, 4)
        y = np.array([0.1, -0.2])
        res = solver.solve_lp_exact(solver.lp_formulate(phi, y, 1.0))
        assert res.status == "optimal"
        assert res.objective == 0.0
        assert np.array_equal(res.u_star, np.zeros(4))

    def test_identity_zero_epsilon(self):
        y = np.array([1.0, -2.0, 0.5])
        res = solver.solve_lp_exact(solver.lp_formulate(np.eye(3), y, 0.0))
        assert res.status == "optimal"
        assert res.u_star == pytest.approx(y, abs=1e-12)

    def test_feasibility_of_results(self):
        for seed in range(10):
            inst = _random_instance(seed)
            res = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            assert res.status == "optimal"
            assert res.residual_l1 <= inst.epsilon + 1e-8
            # the truth is feasible, so the optimum cannot exceed it
            assert res.objective <= core.norm_lp(inst.x, 1) + 1e-9

    def test_certificate_is_dual_feasible_and_tight(self):
        for seed in range(10):
            inst = _random_instance(seed)
            lp = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
            res = solver.solve_lp_exact(lp)
            assert res.status == "optimal"
            duals = np.array(res.certificate["duals"])
            assert np.all(duals <= 1e-9)
            assert np.all(lp.a_ub.T @ duals <= lp.c + 1e-8)
            dual_obj = res.certificate["dual_objective"]
            assert abs(dual_obj - res.objective) <= 1e-9 * (1.0 + res.objective)

    def test_dual_keeps_the_residual_multiplier_free(self, monkeypatch):
        # the simplex sees a (2n + 2m) x (m + 1) dual whose m multiplier
        # columns are free; lp_formulate's c, a_ub and b_ub are not read
        inst = _random_instance(3)
        m, n = inst.phi.shape
        lp = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
        base = solver.solve_lp_exact(lp)
        solve_canonical = simplex.solve_canonical
        seen = []

        def recording(c, a, b, max_pivots, free):
            seen.append((np.shape(a), np.asarray(free).tolist()))
            return solve_canonical(c, a, b, max_pivots=max_pivots, free=free)

        monkeypatch.setattr(simplex, "solve_canonical", recording)
        lp.c = lp.a_ub = lp.b_ub = None
        res = solver.solve_lp_exact(lp)
        assert seen == [((2 * n + 2 * m, m + 1), [True] * m + [False])]
        assert res.to_json_dict() == base.to_json_dict()

    @pytest.mark.parametrize("scale", [1e6, 1e-6])
    def test_solution_invariant_under_common_scaling(self, scale):
        # Scaling phi, y and epsilon by one factor leaves the minimiser
        # unchanged; the simplex tolerance is absolute, so this catches a
        # solve that only works at unit scale.
        for seed in range(40):
            inst = _random_instance(seed)
            base = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            eps = scale * inst.epsilon
            res = solver.solve_lp_exact(
                solver.lp_formulate(scale * inst.phi, scale * inst.y, eps))
            assert res.status == "optimal", seed
            assert res.objective == pytest.approx(base.objective, rel=1e-9), seed
            assert res.residual_l1 <= eps * (1.0 + 1e-9), seed

    def test_small_y_l1_matches_highs(self):
        # ||y||_1 near 1e-6 puts the dual's costs (-y, y, epsilon) below the
        # simplex's absolute tolerances unless the data is rescaled; seeds
        # 0, 19, 36 and 38 came back "optimal" outside the residual ball.
        # HiGHS solves the same data scaled by 2^23.
        scale = 2.0 ** 23
        for seed in range(40):
            inst = make_instance(24, 32, 2, {"kind": "sparse", "s": 3, "scale": 1e-7},
                                 {"kind": "sparse", "amplitude": ["uniform", 1e-7, 2e-7]},
                                 RngSpec(seed))
            res = solver.solve(inst.phi, inst.y, inst.epsilon,
                               solver.SolverConfig(method="lp-exact"))
            ref = highs_objective(inst.phi, scale * inst.y, scale * inst.epsilon) / scale
            assert res.status == "optimal", seed
            assert abs(res.objective - ref) <= 1e-9 * ref, seed
            assert res.residual_l1 <= inst.epsilon * (1.0 + 1e-12), seed
            assert abs(res.certificate["dual_objective"] - ref) <= 1e-9 * ref, seed

    # The simplex tolerances are absolute; solve_lp_exact scales phi and y
    # by powers of two, and before it did so at any size 8, 9 and 1 of these
    # 100 came back wrong (mostly "infeasible-detected")
    @pytest.mark.parametrize("phi_scale, y_scale", [(1e6, 1e6), (1.0, 1e6), (1e6, 1.0)])
    def test_criterion_1_set_under_scaling_matches_highs(self, criterion_1_highs,
                                                          phi_scale, y_scale):
        for index, (inst, objective) in enumerate(criterion_1_highs):
            ref = objective * y_scale / phi_scale
            eps = y_scale * inst.epsilon
            res = solver.solve_lp_exact(solver.lp_formulate(phi_scale * inst.phi,
                                                            y_scale * inst.y, eps))
            assert res.status == "optimal", index
            assert abs(res.objective - ref) <= 1e-9 * ref, (index, res.objective, ref)
            assert res.residual_l1 <= eps * (1.0 + 1e-9), index

    def test_infeasible_residual_ball_detected(self):
        # a tall phi cannot reach a random y within a small epsilon
        st = Stream(RngSpec(16))
        for _ in range(20):
            phi = st.normal(48).reshape(12, 4)
            res = solver.solve_lp_exact(solver.lp_formulate(phi, st.normal(12), 0.01))
            assert res.status == "infeasible-detected"
            assert not res.is_usable()

    def test_degenerate_grid_trials_solve_within_pivot_budget(self):
        # Degenerate LPs on which a switch to Bland's rule after a run of
        # degenerate pivots exhausts the 20,000-pivot cap; the one-phase
        # dual solve takes 50/37/75 pivots (70/48/105 with the residual
        # multiplier split in two; a two-phase primal solve took 622/561/899).
        for trial in (4, 32, 39):
            inst = _exact_grid_instance(trial)
            res = solver.solve(inst.phi, inst.y, inst.epsilon,
                               solver.SolverConfig(method="lp-exact", max_iters=2000))
            assert res.status == "optimal"
            assert res.residual_l1 <= inst.epsilon + 1e-8
            assert res.iters < 1000


class TestFirstOrder:
    def test_zero_solution_fast_path(self):
        st = Stream(RngSpec(15))
        phi = st.normal(8).reshape(2, 4)
        y = np.array([0.1, -0.2])
        res = solver.solve_first_order(phi, y, 1.0)
        assert res.status == "optimal"
        assert res.objective == 0.0

    def test_agreement_with_lp_oracle(self):
        for seed in range(12):
            inst = _random_instance(seed)
            lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
            assert fo.status == "optimal"
            # the gap is the only stop rule, and the one it accepted is reported
            assert fo.certificate["stop"] == "gap"
            assert fo.certificate["duality_gap"] <= 1e-7 * (1.0 + fo.objective)
            assert abs(fo.objective - lp.objective) <= 1e-6 * (1.0 + lp.objective)
            assert fo.residual_l1 <= inst.epsilon + 1e-8

    def test_noiseless_overdetermined_recovers_truth(self):
        inst = make_instance(10, 14, 2, {"kind": "none"},
                             {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(16))
        res = solver.solve_first_order(inst.phi, inst.y, 0.0)
        assert res.status == "optimal"
        assert core.norm_lp(res.u_star - inst.x, 2) <= 1e-5

    def test_iteration_limit_status(self):
        inst = _random_instance(3)
        config = solver.SolverConfig(max_iters=3)
        res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon, config)
        assert res.status == "iteration-limit"

    def test_capped_objective_non_increasing_in_cap(self):
        # The iterates are deterministic, so the checks made under one cap
        # (a multiple of the check period) are a prefix of those made under
        # a larger cap: the best feasible objective can only go down.
        inst = _random_instance(3)
        full = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        objectives = []
        for cap in range(20, full.iters, solver.CHECK_EVERY):
            res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon,
                                           solver.SolverConfig(max_iters=cap))
            assert res.status == "iteration-limit"
            assert res.residual_l1 <= inst.epsilon + 1e-8
            objectives.append(res.objective)
        assert len(objectives) >= 10
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] < objectives[0]

    def test_restarts_counted_in_certificate(self):
        inst = _random_instance(3)
        res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        restarts = res.certificate["restarts"]
        assert isinstance(restarts, int)
        # the first check always restarts, as its run spans every iteration
        assert 1 <= restarts <= res.iters // solver.RESTART_EVERY
        again = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        assert again.certificate == res.certificate
        assert np.array_equal(again.u_star, res.u_star)

    def test_step_rejections_counted_in_certificate(self):
        counts = []
        for seed in range(6):
            inst = _random_instance(seed)
            res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
            rejections = res.certificate["step_rejections"]
            assert isinstance(rejections, int) and rejections >= 0
            assert "lipschitz_bound" not in res.certificate
            again = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
            assert again.certificate["step_rejections"] == rejections
            counts.append(rejections)
        # the step rule does turn steps down on these instances
        assert sum(counts) > 0

    def test_no_svd_and_no_pinv_before_m_iterations(self, tmp_path, monkeypatch):
        # The step size needs no spectral norm, and the polish (the one
        # factorisation of the whole phi) waits for m iterations: this
        # 256x128 bundle (phi is 128 x 256) stops before that, through the
        # least-squares finish on the active block.
        inst = _mid_bundle(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("the first-order route factorised phi or solved an LP")

        monkeypatch.setattr(solver, "operator_norm_estimate", refuse)
        monkeypatch.setattr(np.linalg, "pinv", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(solver, "solve_lp_exact", refuse)
        res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        assert res.status == "optimal"
        assert res.iters < inst.phi.shape[0]
        assert res.certificate["active_set_solves"] >= 1

    def test_finish_runs_once_the_sign_pattern_settles(self, tmp_path):
        # The sign pattern of u on the mid bundle first holds for
        # solver.SETTLE iterations at iteration 21, between two checks, and
        # the finish there closes the gap (40 iterations while the finish
        # waited for the pattern to repeat at two checks)
        inst = _mid_bundle(tmp_path)
        res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        assert res.status == "optimal" and res.certificate["stop"] == "gap"
        assert res.certificate["active_set_solves"] >= 1
        assert res.iters % solver.CHECK_EVERY != 0
        assert res.iters < 30

    def test_no_simplex_past_m_iterations(self, tmp_path, monkeypatch):
        # The bundle of the CI fallback replay and criterion-1 instances 0,
        # 17 and 80 run past m iterations; the least-squares finish and the
        # polish end them without the exact route.
        bundle = str(tmp_path / "fallback")
        assert main(["gen", "--out", bundle, "--n", "24", "--m", "32", "--k", "2",
                     "--noise", "sparse", "--s", "3", "--seed", "10",
                     "--amplitude", "uniform:0.5:1.0"]) == 0
        cases = [load_bundle(bundle)] + [_criterion_1_instance(index) for index in (0, 17, 80)]
        optima = [solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
                  for inst in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the first-order route ran the exact route's simplex")

        monkeypatch.setattr(simplex, "solve_canonical", refuse)
        monkeypatch.setattr(solver, "solve_lp_exact", refuse)
        for inst, lp in zip(cases, optima):
            fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
            assert fo.status == "optimal" and fo.certificate["stop"] == "gap"
            assert fo.iters > inst.phi.shape[0]
            assert abs(fo.objective - lp.objective) <= 1e-9 * lp.objective
            slack = solver.residual_slack(inst.phi.shape[0], core.norm_lp(inst.y, 1),
                                          inst.epsilon, solver.SolverConfig().feasibility_tol)
            assert fo.residual_l1 <= inst.epsilon + slack

    @pytest.mark.parametrize("index", [17, 30, 90, 56])
    def test_criterion_1_tail_within_ten_thousand_iterations(self, index):
        # The four slowest criterion-1 instances of the unrestarted
        # over-relaxed loop, which needed 148,640, 52,320, 25,570 and
        # 23,440 iterations; restarted PDHG with the adaptive step needs
        # 5,570, 1,070, 1,090 and 700, 100, 340, 190 and 160 with the
        # least-squares finish on the active set tried at gap checks, and
        # 60, 323, 177 and 147 with it tried as soon as the sign pattern
        # of u settles.
        inst = _criterion_1_instance(index)
        lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
        fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon,
                                      solver.SolverConfig(max_iters=10_000))
        assert fo.status == "optimal"
        assert fo.residual_l1 <= inst.epsilon + 1e-8
        assert abs(fo.objective - lp.objective) <= 1e-6 * (1.0 + lp.objective)

    def test_finish_on_the_active_set(self):
        # Criterion-1 instance 17 (12 x 34) keeps the sign pattern of u
        # from about step 1,180 but closed its gap only at step 5,570 before
        # the finish: the least-squares finish on its active set, with the
        # polish after m iterations, now ends the solve.
        inst = _criterion_1_instance(17)
        lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
        fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        assert fo.status == "optimal" and fo.certificate["stop"] == "gap"
        assert fo.iters > inst.phi.shape[0]
        assert abs(fo.objective - lp.objective) <= 1e-9 * lp.objective
        assert fo.residual_l1 <= inst.epsilon + 1e-8

    # phi is 128 x 256; the active set of u and of the dual step's projection
    # settles by iteration 21 (noiseless) and 14 (s5), where its
    # least-squares point and dual close the gap (60 iterations each
    # without the finish)
    @pytest.mark.parametrize("noise", [{"kind": "none"}, {"kind": "sparse", "s": 5, "scale": 1.0}],
                             ids=["noiseless", "s5"])
    def test_least_squares_finish_before_m_iterations(self, noise):
        inst = make_instance(256, 128, 5, noise, {"kind": "sparse", "amplitude": "gaussian"},
                             RngSpec(11))
        lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
        fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        assert fo.status == "optimal" and fo.certificate["stop"] == "gap"
        assert fo.iters <= 40
        assert fo.certificate["active_set_solves"] >= 1
        assert abs(fo.objective - lp.objective) <= 1e-9 * lp.objective
        assert fo.residual_l1 <= inst.epsilon + 1e-8

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12), (9, 9), (120, 111)])
    def test_least_squares_pair_matches_lstsq(self, shape):
        # One QR factorisation gives both least-norm least-squares solutions
        # of the finish; a block short of full rank (a repeated column of a
        # tall block, a repeated row of a wide one) is left to lstsq.
        stream = Stream(RngSpec(4242))
        rows, cols = shape
        a = stream.normal(rows * cols).reshape(shape)
        b, c = stream.normal(rows), stream.normal(cols)
        x, z = solver._least_squares_pair(a, b, c)
        assert np.allclose(x, np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-9, atol=1e-12)
        assert np.allclose(z, np.linalg.lstsq(a.T, c, rcond=None)[0], rtol=1e-9, atol=1e-12)
        short = a.copy()
        if rows >= cols:
            short[:, -1] = short[:, 0]
        else:
            short[-1] = short[0]
        x, z = solver._least_squares_pair(short, b, c)
        assert np.array_equal(x, np.linalg.lstsq(short, b, rcond=None)[0])
        assert np.array_equal(z, np.linalg.lstsq(short.T, c, rcond=None)[0])

    def test_wrong_active_set_stops_nothing(self, monkeypatch):
        # A guess that misses a column of the support gives a point and a
        # dual that the gap test on the whole problem refuses; the solve
        # goes on to the optimum.
        active_set_solve = solver._active_set_solve
        guesses = []

        def drop_one_column(phi, y, epsilon, u, q, p):
            u = u.copy()
            u[np.flatnonzero(u)[-1]] = 0.0
            guesses.append(np.count_nonzero(u))
            return active_set_solve(phi, y, epsilon, u, q, p)

        monkeypatch.setattr(solver, "_active_set_solve", drop_one_column)
        cases = [make_instance(256, 128, 5, {"kind": "sparse", "s": 5, "scale": 1.0},
                               {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(11))]
        cases += [_criterion_1_instance(index) for index in (0, 17, 30, 94)]
        for inst in cases:
            lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
            assert fo.status == "optimal"
            assert fo.certificate["active_set_solves"] >= 1
            assert abs(fo.objective - lp.objective) <= 1e-6 * lp.objective
            assert fo.residual_l1 <= inst.epsilon + 1e-8
        assert guesses and min(guesses) >= 1

    @pytest.mark.parametrize("index", [0, 94])
    def test_finish_at_a_common_large_scale(self, index):
        # At a common 1e6 the finish's points on the boundary of the ball
        # exceed epsilon by rounding alone, by more than an absolute 1e-8:
        # with the slack's rounding term m * 2^-52 * (||y||_1 + epsilon)
        # these two solves take as many iterations as at unit scale (110
        # and 90), against 190 and 180 without it.
        inst = _criterion_1_instance(index)
        lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
        base = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        fo = solver.solve_first_order(1e6 * inst.phi, 1e6 * inst.y, 1e6 * inst.epsilon)
        assert fo.status == "optimal"
        assert fo.iters <= base.iters
        # a common scale leaves the minimiser unchanged
        assert abs(fo.objective - lp.objective) <= 1e-9 * lp.objective

    # phi scaled apart from y and epsilon moves the optimum by the ratio of
    # the two scales; an absolute gap test accepted 46 and 48 of the 100
    # criterion-1 solves up to 5.4% above it under these two scalings
    @pytest.mark.parametrize("phi_scale, y_scale", [(1e6, 1.0), (1.0, 1e-6)])
    def test_criterion_1_sample_under_separate_scaling(self, phi_scale, y_scale):
        for index in Stream(RngSpec(2718)).subset(100, 20):
            inst = _criterion_1_instance(int(index))
            ref = highs_objective(inst.phi, inst.y, inst.epsilon) * y_scale / phi_scale
            fo = solver.solve_first_order(phi_scale * inst.phi, y_scale * inst.y,
                                          y_scale * inst.epsilon)
            assert fo.status == "optimal", index
            assert abs(fo.objective - ref) <= 1e-6 * ref, (index, fo.objective, ref)

    def test_badly_scaled_phi_settles_within_a_thousand_iterations(self):
        # The primal weight starts at sqrt(n) / ||y||_2, blind to the scale of
        # phi; criterion-1 instance 50 with phi x 1e6 took 31,650 iterations
        # while the restarts could also start from the average iterate.
        inst = _criterion_1_instance(50)
        ref = highs_objective(inst.phi, inst.y, inst.epsilon) / 1e6
        fo = solver.solve_first_order(1e6 * inst.phi, inst.y, inst.epsilon,
                                      solver.SolverConfig(max_iters=1_000))
        assert fo.status == "optimal"
        assert abs(fo.objective - ref) <= 1e-6 * ref

    @pytest.mark.parametrize("scale", [1e3, 1e-3, 1e6, 1e-6])
    def test_solution_invariant_under_common_scaling(self, scale):
        # The first-order twin of TestLpExact's test: the feasibility
        # tolerance follows ||y||_1 below 1, and a gap below the negative
        # tolerance does not stop the solve, so no incumbent just outside
        # the ball is accepted at a small scale.
        for seed in range(40):
            inst = _random_instance(seed)
            base = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            res = solver.solve_first_order(scale * inst.phi, scale * inst.y,
                                           scale * inst.epsilon)
            assert res.status == "optimal", seed
            assert abs(res.objective - base.objective) <= 1e-6 * (1.0 + base.objective), seed

    def test_zero_phi_outside_ball_detected_infeasible(self):
        phi, y = np.zeros((3, 4)), np.array([1.0, -2.0, 0.5])
        lp = solver.solve(phi, y, 1.0, solver.SolverConfig(method="lp-exact"))
        fo = solver.solve_first_order(phi, y, 1.0)
        assert lp.status == fo.status == "infeasible-detected"
        assert not fo.is_usable() and fo.iters == 0

    # matrix products on phi, phi.T, the polish's pinv(phi) (which
    # np.linalg.pinv returns as the subclass) and the finish's column
    # slices of phi in the first-order solves of _random_instance seeds
    # 0-39; 19,449 while the restart check rebuilt the gap check's average
    # and its two products, 19,133 before the finish on the active set,
    # 5,609 while each gap check also offered the average iterate, 4,724
    # before the least-squares finish, 3,886 while the finish also solved
    # the LP restricted to the support after m iterations, 4,711 while the
    # finish waited for the sign pattern of u to repeat at two gap checks
    # and solved its two least-squares systems by np.linalg.lstsq
    MATVECS = 4_050

    def test_matvec_count_pinned(self, monkeypatch):
        class CountingMatrix(np.ndarray):
            products = 0

            def __matmul__(self, other):
                CountingMatrix.products += 1
                return np.asarray(self) @ other

        as_matrix = core.as_matrix

        def keep_counting(a, name="a"):  # np.asarray drops the subclass
            out = as_matrix(a, name)
            return out.view(CountingMatrix) if isinstance(a, CountingMatrix) else out

        monkeypatch.setattr(core, "as_matrix", keep_counting)
        for seed in range(40):
            inst = _random_instance(seed)
            solver.solve_first_order(inst.phi.view(CountingMatrix), inst.y, inst.epsilon)
        assert CountingMatrix.products == self.MATVECS

    def test_scaling_covariance(self):
        inst = _random_instance(6)
        base = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        scaled = solver.solve_first_order(inst.phi, 3.0 * inst.y, 3.0 * inst.epsilon)
        assert scaled.objective == pytest.approx(3.0 * base.objective, rel=1e-5)

    def test_scaling_covariance_lp(self):
        inst = _random_instance(7)
        base = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
        scaled = solver.solve_lp_exact(
            solver.lp_formulate(inst.phi, 2.0 * inst.y, 2.0 * inst.epsilon))
        assert scaled.objective == pytest.approx(2.0 * base.objective, rel=1e-9)


def _degenerate_case(name):
    """Degenerate (phi, y, epsilon) inputs built from small random instances."""
    def base(n, m, seed):
        return make_instance(n, m, 2, {"kind": "sparse", "s": 1, "scale": 1.0},
                             {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(seed))

    inst = base(10, 8, 31)
    phi, y, eps = inst.phi.copy(), inst.y.copy(), inst.epsilon
    if name == "zero-column":
        phi[:, 3] = 0.0
    elif name == "duplicate-column":
        phi[:, 5] = phi[:, 1]
    elif name == "duplicate-row":  # phi @ phi.T is singular
        phi[7], y[7] = phi[0], y[0]
    elif name == "tall":
        tall = base(6, 12, 32)
        phi, y, eps = tall.phi, tall.y, tall.epsilon
    elif name == "one-row-zero-epsilon":
        row = base(10, 1, 33)
        phi, y, eps = row.phi, row.y, 0.0
    elif name == "epsilon-at-norm-of-y":
        eps = core.norm_lp(y, 1)
    return phi, y, eps


class TestDegenerateInputs:
    @pytest.mark.parametrize("name", ["zero-column", "duplicate-column", "duplicate-row",
                                      "tall", "one-row-zero-epsilon",
                                      "epsilon-at-norm-of-y"])
    def test_first_order_matches_lp_exact(self, name):
        phi, y, eps = _degenerate_case(name)
        lp = solver.solve(phi, y, eps, solver.SolverConfig(method="lp-exact"))
        fo = solver.solve(phi, y, eps)
        assert lp.status == "optimal" and fo.status == "optimal"
        assert abs(fo.objective - lp.objective) <= 1e-6 * (1.0 + lp.objective)
        assert fo.residual_l1 <= eps + 1e-8


def _transformed(name, phi, y, stream):
    """(phi, y) under a transform that keeps the optimal ||u||_1: the
    minimiser is permuted, sign-flipped or negated with it."""
    m, n = phi.shape
    if name == "column-permutation":
        return phi[:, stream.permutation(n)], y
    if name == "row-permutation":
        rows = stream.permutation(m)
        return phi[rows], y[rows]
    if name == "column-signs":
        return phi * np.where(stream.normal(n) < 0.0, -1.0, 1.0), y
    if name == "negated-y":
        return phi, -y
    return -phi, y


class TestMetamorphic:
    """Both routes against the untransformed lp-exact objective under
    transforms of (phi, y) that leave the optimal objective unchanged."""

    @pytest.mark.parametrize("name", ["column-permutation", "row-permutation", "column-signs",
                                      "negated-y", "negated-phi"])
    def test_objective_invariant(self, name):
        stream = Stream(RngSpec(9100))
        for seed in range(40):
            inst = _random_instance(seed, n_max=33, m_max=32)
            base = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            phi, y = _transformed(name, inst.phi, inst.y, stream)
            lp = solver.solve(phi, y, inst.epsilon, solver.SolverConfig(method="lp-exact"))
            fo = solver.solve(phi, y, inst.epsilon)
            for route, res, tol in (("lp-exact", lp, 1e-12), ("first-order", fo, 1e-6)):
                assert res.status == "optimal", (seed, route)
                assert res.residual_l1 <= inst.epsilon + 1e-8, (seed, route)
                assert abs(res.objective - base.objective) <= tol * (1.0 + base.objective), \
                    (seed, route)


class TestLpStatusMapping:
    def test_pivot_limit_reports_iteration_limit(self):
        inst = _random_instance(8, n_max=25, m_max=25)
        lp = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
        full = solver.solve_lp_exact(lp)
        assert full.iters > 10  # the tiny budget below cannot finish
        res = solver.solve_lp_exact(lp, solver.SolverConfig(
            method="lp-exact", max_iters=1))
        # a capped basis is not certified, wherever the cap struck
        assert res.status == "iteration-limit"
        assert not res.is_usable()
        # exact-grid trial 4 takes 50 pivots, so a 30-pivot cap binds
        inst = _exact_grid_instance(4)
        res = solver.solve(inst.phi, inst.y, inst.epsilon,
                           solver.SolverConfig(method="lp-exact", max_iters=3))
        assert res.status == "iteration-limit"
        assert res.iters == 30
        assert not res.is_usable()


class TestInputChecks:
    @pytest.mark.parametrize("call, message", [
        (lambda: solver.SolverConfig(max_iters=0), "max_iters must be positive"),
        (lambda: solver.solve_first_order(np.eye(2), [1.0, 2.0, 3.0], 0.5), "y has length"),
        (lambda: solver.solve_first_order(np.eye(2), [1.0, 2.0], math.nan), "epsilon"),
        (lambda: solver.lp_formulate(np.eye(2), [1.0, 2.0], math.nan), "epsilon"),
        (lambda: solver.project_l1_ball([1.0, -2.0], math.nan), "radius"),
        (lambda: solver.solve_first_order([[1.0, math.nan]], [1.0], 0.5), "phi contains"),
        (lambda: solver.solve_first_order([[1.0, 0.0]], [math.inf], 0.5), "y contains"),
        (lambda: solver.lp_formulate([[math.inf, 0.0]], [1.0], 0.5), "phi contains"),
        (lambda: solver.lp_formulate([[1.0, 0.0]], [math.nan], 0.5), "y contains"),
        (lambda: solver.LpProblem(np.eye(2), [1.0, math.nan], 0.5), "y contains"),
    ], ids=["max-iters-0", "y-length", "first-order-nan-epsilon", "lp-nan-epsilon",
            "nan-radius", "first-order-nan-phi", "first-order-inf-y", "lp-inf-phi", "lp-nan-y",
            "lp-problem-nan-y"])
    def test_rejected_with_named_check(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_first_order_checks_its_inputs_once(self, monkeypatch):
        # phi and y are checked at the entry; the loop, the finish and the
        # polish trust them, so the count does not grow with the iterations
        # (seed 1: 7 iterations; seed 3: 300, with restarts and the polish)
        checks = _record_checks(monkeypatch)
        counts = []
        for seed in (1, 3):
            inst = _random_instance(seed)
            checks.clear()
            iters = solver.solve_first_order(inst.phi, inst.y, inst.epsilon).iters
            counts.append((iters, sorted(checks)))
        assert counts == [(7, ["phi", "y"]), (300, ["phi", "y"])]


class TestResultSerialization:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(feasibility_tol=0.0)
        with pytest.raises(ValueError):
            solver.SolverConfig(method="newton")
