import dataclasses
import math

import numpy as np
import pytest

from sl1 import analysis, core, solver
from sl1.conditions import ConditionEstimate
from sl1.generators import make_instance
from sl1.rng import RngSpec
from sl1.solver import (METHODS, SolverConfig, SolverResult, lp_formulate, solve,
                        solve_first_order, solve_lp_exact)

from oracles import trace_tail_rows
from test_solver import _criterion_1_instance, _random_instance, _record_checks

NU = math.sqrt(2.0 / math.pi)


def _estimate(norm_dev=0.05, cross_dev=0.05, exhaustive=False, k=1):
    return ConditionEstimate(calibration=NU, norm_dev_lower=norm_dev,
                             cross_dev_lower=cross_dev, k=k, samples=1,
                             refinement="local-ascent", exhaustive=exhaustive)


class TestBounds:
    def test_zero_inputs(self):
        assert analysis.recovery_error_bound(0.0, 7, 0.0) == 0.0

    def test_epsilon_coefficient_exact(self):
        assert analysis.recovery_error_bound(125.0, 125, 0.0) == 8.0

    def test_tail_coefficient_exact(self):
        assert analysis.recovery_error_bound(0.0, 3, 1.0) == 12.0

    def test_sharp_coefficients_at_zero_deviations(self):
        # theta = nu: epsilon coefficient 4/nu, tail coefficient exactly 4
        assert analysis.recovery_error_bound_sharp(1.0, 1, 0.0, NU, 0.0, 0.0) \
            == pytest.approx(4.0 / NU, rel=1e-12)
        assert analysis.recovery_error_bound_sharp(1.0, 1, 0.0, NU, 0.0, 0.0) \
            == pytest.approx(5.01325654926, rel=1e-9)
        assert analysis.recovery_error_bound_sharp(0.0, 1, 1.0, NU, 0.0, 0.0) \
            == pytest.approx(4.0, rel=1e-12)

    def test_sharp_at_condition_boundary_stays_below_headline(self):
        # theta -> 1/2: epsilon coefficient approaches 8, tail stays <= 12
        theta = 0.5
        cross = NU - 0.5
        eps_coeff = analysis.recovery_error_bound_sharp(1.0, 1, 0.0, NU, 0.0, cross)
        tail_coeff = analysis.recovery_error_bound_sharp(0.0, 1, 1.0, NU, 0.0, cross)
        assert eps_coeff == pytest.approx(4.0 / theta, rel=1e-12)
        assert tail_coeff == pytest.approx(4.0 * (NU + cross) / theta, rel=1e-12)
        assert tail_coeff <= 12.0

    def test_sharp_below_headline_over_condition_region(self):
        # sweep the hypothesis region in 0.01 steps on both axes
        steps = [i * 0.01 for i in range(int((NU - 0.5) / 0.01) + 1)]
        for nd in steps:
            for cd in steps:
                if nd + cd > NU - 0.5:
                    continue
                for eps, e0 in ((1.0, 0.0), (0.0, 1.0), (0.7, 0.3)):
                    sharp = analysis.recovery_error_bound_sharp(eps, 10, e0, NU, nd, cd)
                    assert sharp <= analysis.recovery_error_bound(eps, 10, e0) + 1e-12

    def test_hypothesis_violation_rejected(self):
        # theta = nu - (0.5 + 0.4) < 0
        with pytest.raises(ValueError):
            analysis.recovery_error_bound_sharp(1.0, 1, 0.0, NU, 0.5, 0.4)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            analysis.recovery_error_bound(-1.0, 1, 0.0)
        with pytest.raises(ValueError):
            analysis.recovery_error_bound(1.0, 0, 0.0)


class TestTrace:
    def _instance(self, seed, n=10, m=8, k=2, s=2):
        return make_instance(n, m, k, {"kind": "sparse", "s": s, "scale": 1.0},
                             {"kind": "sparse", "amplitude": "gaussian"},
                             RngSpec(4000 + seed))

    def test_exact_recovery_all_rows_hold_with_zero_lhs(self):
        inst = self._instance(0)
        fabricated = SolverResult(u_star=inst.x.copy(),
                                  objective=core.norm_lp(inst.x, 1),
                                  residual_l1=core.norm_lp(inst.noise, 1),
                                  status="optimal", iters=0)
        trace = analysis.trace_recovery(inst, fabricated, _estimate())
        assert all(r.holds for r in trace.rows)
        assert trace.row("error-triangle").lhs == 0.0
        assert trace.row("recovery-error-bound").lhs == 0.0

    def test_unconditional_rows_hold_on_every_feasible_solve(self):
        for seed in range(12):
            inst = self._instance(seed)
            result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
            trace = analysis.trace_recovery(inst, result, _estimate())
            assert trace.unconditional_ok(), [r.as_dict() for r in trace.rows
                                              if not r.conditional and not r.holds]

    def test_slack_sign_matches_holds(self):
        inst = self._instance(1)
        result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
        trace = analysis.trace_recovery(inst, result, _estimate(0.0, 0.0))
        for row in trace.rows:
            assert (row.slack >= 0.0) == row.holds

    def test_partition_identity(self):
        inst = self._instance(2)
        result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
        h = result.u_star - inst.x
        part = core.partition_support(h, core.hard_support(inst.x, inst.k), inst.k)
        pieces = [core.norm_lp(core.restrict(h, part.t01), 2) ** 2]
        pieces += [core.norm_lp(core.restrict(h, blk), 2) ** 2
                   for blk in part.tail_blocks()]
        assert sum(pieces) == pytest.approx(core.norm_lp(h, 2) ** 2, rel=1e-12)

    def test_residual_feasibility_row_bound(self):
        # || phi h ||_1 <= 2 eps + 2 tol must hold with the documented allowance
        for seed in range(6):
            inst = self._instance(seed, m=12)
            result = solve(inst.phi, inst.y, inst.epsilon, SolverConfig())
            trace = analysis.trace_recovery(inst, result, _estimate())
            row = trace.row("residual-feasibility")
            assert row.holds
            assert row.rhs == 2.0 * inst.epsilon + 2.0 * 1e-8

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e9])
    def test_every_optimal_solve_traces_at_extreme_scales(self, scale):
        # The tracer must accept every point the solver accepts: at 1e6 and
        # 1e9 the rounding of the m residual terms alone exceeds an absolute
        # feasibility_tol.
        solved = 0
        for seed in range(10):
            inst = make_instance(24, 32, 2, {"kind": "sparse", "s": 3, "scale": scale},
                                 {"kind": "sparse", "amplitude": ["uniform", scale, 2 * scale]},
                                 RngSpec(7, seed))
            for method in METHODS:
                result = solve(inst.phi, inst.y, inst.epsilon, SolverConfig(method=method))
                if result.status != "optimal":
                    continue
                solved += 1
                trace = analysis.trace_recovery(inst, result, _estimate(k=inst.k))
                assert trace.unconditional_ok(), (seed, method, [
                    r.as_dict() for r in trace.rows if not r.conditional and not r.holds])
                residual = core.norm_lp(inst.y - core.mat_vec(inst.phi, result.u_star), 1)
                slack = solver.residual_slack(inst.m, core.norm_lp(inst.y, 1), inst.epsilon,
                                              SolverConfig.feasibility_tol)
                assert residual <= inst.epsilon + slack, (seed, method, residual - inst.epsilon)
        assert solved == 20

    @pytest.mark.parametrize("case", ["nan-u", "inf-u", "short-u", "long-u", "k-0", "k-above-n",
                                      "nan-phi", "phi-shape"])
    def test_malformed_input_rejected(self, case):
        inst = self._instance(3)
        result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
        u = result.u_star.copy()
        if case in ("nan-u", "inf-u"):
            u[1] = math.nan if case == "nan-u" else math.inf
        elif case in ("short-u", "long-u"):
            u = u[:-1] if case == "short-u" else np.append(u, 0.0)
        elif case in ("k-0", "k-above-n"):
            inst = dataclasses.replace(inst, k=0 if case == "k-0" else inst.n + 1)
        elif case == "nan-phi":
            phi = inst.phi.copy()
            phi[0, 0] = math.nan
            inst = dataclasses.replace(inst, phi=phi)
        else:
            inst = dataclasses.replace(inst, phi=inst.phi[:, :-1])
        result = dataclasses.replace(result, u_star=u)
        with pytest.raises(ValueError):
            analysis.trace_recovery(inst, result, _estimate(k=2))

    def test_inputs_checked_once(self, monkeypatch):
        # x, y and u_star are checked once and phi in place at the entry,
        # however many tail blocks the trace has (seed 0 of
        # test_solver._random_instance: 10 tail blocks; seed 1: 2)
        checks = _record_checks(monkeypatch)
        blocks = []
        for seed in (0, 1):
            inst = _random_instance(seed)
            result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
            checks.clear()
            trace = analysis.trace_recovery(inst, result, _estimate(k=inst.k))
            blocks.append(len(trace.sides) - 7)
            assert sorted(checks) == ["u_star", "x", "y"], seed
        assert blocks == [10, 2]

    def test_infeasible_result_rejected(self):
        inst = self._instance(3)
        bogus = SolverResult(u_star=inst.x + 10.0, objective=0.0,
                             residual_l1=math.inf, status="optimal", iters=0)
        with pytest.raises(ValueError):
            analysis.trace_recovery(inst, bogus, _estimate())

    def test_conditional_rows_use_estimate(self):
        inst = self._instance(4)
        result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
        tight = analysis.trace_recovery(inst, result, _estimate(0.0, 0.0))
        # with zero deviations the sketch lower bound is the strongest claim
        generous = analysis.trace_recovery(inst, result, _estimate(0.3, 0.3))
        name = "sketch-lower-bound"
        assert tight.row(name).lhs >= generous.row(name).lhs

    def test_trace_serializes(self):
        inst = self._instance(5)
        result = solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon))
        doc = analysis.trace_recovery(inst, result, _estimate()).as_dict()
        names = [row["name"] for row in doc["rows"]]
        assert "error-triangle" in names and "recovery-error-bound" in names
        for row in doc["rows"]:
            assert row["holds"] == (row["slack"] >= 0.0)

    def test_tail_blocks_match_the_block_loop(self):
        # The tail blocks are traced in one batched pass; its rows must hold
        # the bytes of the per-block restrict and mat_vec loop.
        blocks_seen = 0
        for index in range(40):
            inst = _criterion_1_instance(index)
            for result in (solve_lp_exact(lp_formulate(inst.phi, inst.y, inst.epsilon)),
                           solve_first_order(inst.phi, inst.y, inst.epsilon)):
                trace = analysis.trace_recovery(inst, result, _estimate(k=inst.k))
                h = result.u_star - inst.x
                part = core.partition_support(h, core.hard_support(inst.x, inst.k), inst.k)
                signs = core.sign_vec(core.mat_vec(inst.phi, core.restrict(h, part.t01)))
                tail_sum, cross = trace_tail_rows(inst.phi, h, part.tail_blocks(), signs, 0.05)
                assert trace.sides[5:-2].tobytes() == cross.tobytes(), index
                assert trace.sides[[1, 2], [1, 0]].tobytes() \
                    == np.array([tail_sum, tail_sum]).tobytes(), index
                blocks_seen += len(part.tail_blocks())
        assert blocks_seen > 400


class TestTrials:
    def test_single_trial_record(self):
        record = analysis.run_trial(10, 12, 2, 2, RngSpec(71))
        assert record.status == "optimal"
        assert record.err_l2 >= 0.0
        assert record.bound == analysis.recovery_error_bound(record.eps, 12, record.e0)
        assert record.seed == "71/0"

    def test_noiseless_overdetermined_grid_recovers_exactly(self):
        spec = analysis.GridSpec(n=8, m_values=(12,), k_values=(1, 2), s_values=(0,),
                                 trials=3, seed=5)
        result = analysis.run_grid(spec)
        for cell in result.cell_summaries():
            assert cell["exact_rate"] == 1.0
            assert cell["solved_rate"] == 1.0
            assert cell["bound_rate"] == 1.0

    def test_grid_csv_layout_and_determinism(self):
        spec = analysis.GridSpec(n=8, m_values=(10, 12), k_values=(1,), s_values=(0, 1),
                                 trials=2, seed=9)
        first = analysis.run_grid(spec).trials_csv()
        second = analysis.run_grid(spec).trials_csv()
        header, *rows = first.splitlines()
        assert header == analysis.TRIALS_CSV_HEADER
        assert len(rows) == 2 * 1 * 2 * 2

        def strip_runtime(csv_text):
            return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]

        # wall-clock column aside, reruns are identical
        assert strip_runtime(first) == strip_runtime(second)

    def test_solver_failure_recorded_not_raised(self):
        spec = analysis.GridSpec(n=10, m_values=(8,), k_values=(2,), s_values=(2,),
                                 trials=2, seed=11, solver=SolverConfig(max_iters=2))
        result = analysis.run_grid(spec)
        assert all(r.status == "iteration-limit" for r in result.records)
        assert len(result.records) == 2

    def test_solver_exception_recorded_as_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("solver blew up")

        monkeypatch.setattr(analysis, "solve", fail)
        record = analysis.run_trial(10, 12, 2, 2, RngSpec(71))
        assert record.status == "error" and record.iters == 0
        assert math.isnan(record.err_l2) and not record.bound_holds

    def test_summary_marks_observational(self):
        spec = analysis.GridSpec(n=8, m_values=(10,), k_values=(1,), s_values=(1,),
                                 trials=1, seed=15)
        summary = analysis.run_grid(spec).summary_dict()
        assert summary["condition_certified"] is False
        assert summary["config"]["n"] == 8

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            analysis.GridSpec(n=8, m_values=(10,), k_values=(1,), s_values=(0,),
                              trials=-2, seed=3)
        spec = analysis.GridSpec(n=8, m_values=(10,), k_values=(1,), s_values=(0,),
                                 trials=0, seed=3)
        assert analysis.run_grid(spec).records == []
