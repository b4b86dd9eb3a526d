"""Acceptance suite: one test per criterion, each printing a pass/fail
line in the terminal summary (see conftest).  Seeds are pinned; stated
runtime budgets are asserted.
"""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from sl1 import analysis, cli, conditions, core, solver
from sl1.conditions import ConditionEstimate, SearchBudget
from sl1.generators import make_instance
from sl1.rng import RngSpec, Stream

from conftest import record_criterion
from oracles import lp_min_by_vertex_enumeration

NU = math.sqrt(2.0 / math.pi)


def _placeholder_estimate(k):
    # zero deviations; only unconditional trace rows are asserted with it
    return ConditionEstimate(calibration=NU, norm_dev_lower=0.0, cross_dev_lower=0.0,
                             k=k, samples=0, refinement="none", exhaustive=False)


@pytest.fixture(scope="module")
def small_scale_solves():
    """Criterion 1 workload: 100 pinned random instances, N, M <= 40,
    K <= 5, sparse corruption, solved by both routes."""
    started = time.perf_counter()
    runs = []
    for i in range(100):
        st = Stream(RngSpec(31415, i))
        n = 5 + st.integer_below(36)          # 5..40
        m = 5 + st.integer_below(36)
        k = 1 + st.integer_below(min(5, n))
        s = 1 + st.integer_below(max(1, m // 4))
        inst = make_instance(n, m, k, {"kind": "sparse", "s": s, "scale": 1.0},
                             {"kind": "sparse", "amplitude": "gaussian"},
                             RngSpec(27182, i))
        lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
        fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon,
                                      solver.SolverConfig(max_iters=400_000))
        runs.append((inst, lp, fo))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def micro_scale_solves():
    """Criterion 2 workload: every (n, m) in {1,2,3}^2 with epsilon
    regimes zero / tight / dominating, solved exactly."""
    runs = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for variant in range(3):
                inst = make_instance(
                    n, m, 1,
                    {"kind": "none"} if variant == 0
                    else {"kind": "sparse", "s": 1, "scale": 0.8},
                    {"kind": "sparse", "amplitude": "gaussian"},
                    RngSpec(16180, 9 * n + 3 * m + variant))
                if variant == 2:  # epsilon dominates ||y||_1: optimum is 0
                    inst = dataclasses.replace(
                        inst, epsilon=1.5 * core.norm_lp(inst.y, 1) + 0.1)
                lp_problem = solver.lp_formulate(inst.phi, inst.y, inst.epsilon)
                result = solver.solve_lp_exact(lp_problem)
                runs.append((inst, lp_problem, result))
    return runs


def test_criterion_1_solver_oracle_equivalence(small_scale_solves):
    runs, elapsed = small_scale_solves
    worst = 0.0
    ok = True
    for inst, lp, fo in runs:
        ok &= lp.status == "optimal" and fo.status == "optimal"
        ok &= lp.residual_l1 <= inst.epsilon + 1e-8
        ok &= fo.residual_l1 <= inst.epsilon + 1e-8
        rel = abs(fo.objective - lp.objective) / (1.0 + lp.objective)
        worst = max(worst, rel)
        ok &= rel <= 1e-6
    ok &= elapsed <= 120.0
    record_criterion(
        "criterion-1 solver oracle equivalence (100 instances)",
        ok, f"worst rel diff {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"worst relative objective difference {worst}, elapsed {elapsed}"


# sha256 of the criterion-1 first-order results, each to_json_dict()
# dumped with sorted keys, in order (x86-64 Linux, numpy 2.4)
CRITERION_1_FIRST_ORDER = "0f240d7125f611800aea5cc540e43277ce0e21fd213a5de7a8c715cf2fc56ac3"


def test_criterion_1_first_order_bytes_pinned(small_scale_solves):
    runs, _ = small_scale_solves
    digest = hashlib.sha256()
    for _, _, fo in runs:
        digest.update(json.dumps(fo.to_json_dict(), sort_keys=True).encode())
    iters = [fo.iters for _, _, fo in runs]
    # 28,190 before the finish on the active set, 9,680 while the restarts
    # could also start from the average iterate, 8,180 while the finish
    # solved only exact restricted LPs after m iterations, 6,210 while the
    # exact route split the dual's residual multiplier in two (its
    # restricted-LP vertices differ: instance 15 now stops at 30, not 40),
    # 6,200 while the finish also solved the LP restricted to the support
    # after m iterations (41 of the 100 solves ran it)
    assert sum(iters) == 7_450
    # the finish cut the tail from a p90 of 612 and a max of 5,570, the
    # restarts from the current iterate alone the max from 1,420, and the
    # least-squares finish the p90 from 181; dropping the restricted LP,
    # so that this route calls no exact solver, raised the p90 from 133
    # and the max from 340
    assert round(np.percentile(iters, 90)) == 181 and max(iters) == 530
    assert digest.hexdigest() == CRITERION_1_FIRST_ORDER


# sha256 over the criterion-1 instances, in order, of each lp-exact
# to_json_dict() and then the trace_recovery(...).as_dict() of the lp-exact
# and the first-order result under the placeholder estimate, each dumped
# with sorted keys (x86-64 Linux, numpy 2.4)
CRITERION_1_EXACT_AND_TRACES = "c0e3cc729ba5d6f08c704b932d505b9abfd4cb46bd5509972b5873e841ea3576"


def test_criterion_1_exact_and_trace_bytes_pinned(small_scale_solves):
    runs, _ = small_scale_solves
    digest = hashlib.sha256()
    for inst, lp, fo in runs:
        digest.update(json.dumps(lp.to_json_dict(), sort_keys=True).encode())
        estimate = _placeholder_estimate(inst.k)
        for result in (lp, fo):
            trace = analysis.trace_recovery(inst, result, estimate)
            digest.update(json.dumps(trace.as_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == CRITERION_1_EXACT_AND_TRACES


def test_criterion_2_lp_matches_vertex_enumeration(micro_scale_solves):
    worst = 0.0
    ok = True
    for inst, lp_problem, result in micro_scale_solves:
        oracle, _ = lp_min_by_vertex_enumeration(
            lp_problem.c, lp_problem.a_ub, lp_problem.b_ub)
        diff = abs(result.objective - oracle)
        worst = max(worst, diff)
        ok &= result.status == "optimal" and diff <= 1e-9
    record_criterion(
        f"criterion-2 exact LP vs vertex enumeration ({len(micro_scale_solves)} instances)",
        ok, f"worst abs diff {worst:.2e}")
    assert ok, f"worst objective difference vs enumeration {worst}"


def test_criterion_3_unconditional_inequality_chain(small_scale_solves,
                                                    micro_scale_solves):
    runs, _ = small_scale_solves
    solves = [(inst, res) for inst, lp, fo in runs for res in (lp, fo)]
    solves += [(inst, res) for inst, _, res in micro_scale_solves]
    checked = ("error-triangle", "block-compressibility", "residual-feasibility",
               "tail-vs-block-sum", "holder-sign-inner")
    violations = []
    for inst, result in solves:
        trace = analysis.trace_recovery(inst, result, _placeholder_estimate(inst.k))
        for name in checked:
            row = trace.row(name)
            if not row.holds:
                violations.append((name, row.lhs, row.rhs))
    ok = not violations
    record_criterion(
        f"criterion-3 unconditional inequality chain ({len(solves)} solves)",
        ok, f"{len(violations)} violations")
    assert ok, violations


def test_criterion_4_bound_end_to_end():
    started = time.perf_counter()
    # toy scale with exhaustive support enumeration
    toy_lines = []
    toy_ok = True
    certified = 0
    for t in range(6):
        inst = make_instance(8, 400, 1, {"kind": "sparse", "s": 40, "scale": 1.0},
                             {"kind": "sparse", "amplitude": "gaussian"},
                             RngSpec(60221, t))
        estimate = conditions.estimate_conditions(
            inst.phi, 1, SearchBudget(starts=6, steps=40), RngSpec(60222, t))
        result = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
        trace = analysis.trace_recovery(inst, result, estimate)
        err = core.norm_lp(result.u_star - inst.x, 2)
        bound = analysis.recovery_error_bound(inst.epsilon, inst.m, 0.0)
        verdict = trace.condition
        if verdict != "violated":
            certified += verdict == "satisfied"
            toy_ok &= err <= bound
            toy_ok &= trace.row("recovery-error-bound").holds
        toy_lines.append(f"trial {t}: {verdict}, err {err:.2e}, bound {bound:.2e}")
    toy_ok &= certified > 0   # the run must actually exercise the bound

    # observational scale, hypothesis uncertified
    held = 0
    for t in range(100):
        record = analysis.run_trial(256, 128, 5, 5, RngSpec(14142, t))
        held += record.bound_holds
    elapsed = time.perf_counter() - started
    ok = toy_ok and held == 100 and elapsed <= 600.0
    record_criterion(
        "criterion-4 recovery bound end-to-end (toy exhaustive + observational)",
        ok, f"{certified}/6 toy trials certified, observational {held}/100, {elapsed:.0f}s")
    assert ok, (toy_lines, held, elapsed)


def test_criterion_5_concentration_regression():
    started = time.perf_counter()
    report = conditions.concentration_check(
        20, 2000, 2, 0.1, trials=20, rng=RngSpec(98765), samples_per_trial=1000)
    elapsed = time.perf_counter() - started
    ok = (report.violation_rate_norm < 0.01
          and report.violation_rate_cross < 0.01
          and abs(report.mean_l1_ratio - 0.79788) <= 0.01
          and elapsed <= 120.0)
    record_criterion(
        "criterion-5 concentration regression (20 trials x 1000 samples)",
        ok, f"viol {report.violation_rate_norm:.4f}/{report.violation_rate_cross:.4f}, "
            f"mean ratio {report.mean_l1_ratio:.5f}, {elapsed:.0f}s")
    assert ok, report.as_dict() | {"elapsed": elapsed}


def test_criterion_6_constants_and_bound_dominance():
    ok = f"{conditions.half_normal_mean():.15g}" == "0.797884560802865"
    for m in (1, 3, 125, 4096):
        ok &= analysis.recovery_error_bound(float(m), m, 0.0) == 8.0
        ok &= analysis.recovery_error_bound(0.0, m, 1.0) == 12.0
    steps = [i * 0.01 for i in range(int((NU - 0.5) / 0.01) + 1)]
    for nd in steps:
        for cd in steps:
            if nd + cd > NU - 0.5:
                continue
            for eps, e0 in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
                sharp = analysis.recovery_error_bound_sharp(eps, 7, e0, NU, nd, cd)
                ok &= sharp <= analysis.recovery_error_bound(eps, 7, e0)
    record_criterion("criterion-6 constants and sharp-bound dominance", ok)
    assert ok


def test_criterion_7_replay_determinism(tmp_path):
    # gen: replay from the bundle's own embedded config
    bundle = tmp_path / "bundle"
    assert cli.main(["gen", "--out", str(bundle), "--n", "12", "--m", "10",
                     "--k", "2", "--noise", "sparse", "--s", "2",
                     "--seed", "404"]) == 0
    saved = {p.name: p.read_bytes() for p in bundle.iterdir()}
    assert cli.main(["gen", "--config", str(bundle / "meta.json")]) == 0
    gen_ok = {p.name: p.read_bytes() for p in bundle.iterdir()} == saved

    # solve: replay from the result's embedded config
    out = tmp_path / "result.json"
    assert cli.main(["solve", "--bundle", str(bundle), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.main(["solve", "--config", str(out)]) == 0
    solve_ok = out.read_bytes() == first

    # grid: replay from summary.json; every column except the wall-clock
    # runtime_ms column must be byte-identical (timing cannot reproduce)
    grid_dir = tmp_path / "grid"
    assert cli.main(["grid", "--out", str(grid_dir), "--n", "8",
                     "--m-values", "10,12", "--k-values", "1", "--s-values", "0,1",
                     "--trials", "2", "--seed", "405"]) == 0
    first_csv = (grid_dir / "trials.csv").read_text()
    first_summary = (grid_dir / "summary.json").read_bytes()
    assert cli.main(["grid", "--config", str(grid_dir / "summary.json")]) == 0

    def strip_runtime(text):
        return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

    grid_ok = (strip_runtime((grid_dir / "trials.csv").read_text())
               == strip_runtime(first_csv))
    grid_ok &= (grid_dir / "summary.json").read_bytes() == first_summary

    ok = gen_ok and solve_ok and grid_ok
    record_criterion(
        "criterion-7 replay determinism (gen/solve/grid)",
        ok, f"gen={gen_ok} solve={solve_ok} grid={grid_ok}")
    assert ok


def test_criterion_8_sign_convention():
    zeros_ok = np.array_equal(core.sign_vec(np.zeros(5)), -np.ones(5))
    # hand-derived pair: phi = I2, u = e0, v = e1; sign((1, 0)) = (1, -1)
    # under this convention, so the correlation is exactly 1/2
    hand_value = conditions.sign_cross_deviation(np.eye(2), [1.0, 0.0], [0.0, 1.0])
    ok = zeros_ok and hand_value == 0.5
    record_criterion("criterion-8 sign(0) = -1 convention", ok,
                     f"hand cross value {hand_value}")
    assert ok
