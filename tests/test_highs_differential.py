"""Differential and metamorphic checks of the lp-exact route against
HiGHS (scipy.optimize.linprog), which only the tests import.

HiGHS gets its own formulation of the program

    minimize ||u||_1   s.t.   ||y - phi u||_1 <= epsilon

with u = u+ - u- and the residual split into its positive and negative
parts, y - phi u = p - q:

    minimize sum(u+) + sum(u-)
    s.t.  phi u+ - phi u- + p - q = y,  sum(p) + sum(q) <= epsilon,
          u+, u-, p, q >= 0,

an equality form that shares no code with solver.lp_formulate.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from sl1 import solver
from sl1.generators import make_instance
from sl1.rng import RngSpec, Stream

LP_EXACT = solver.SolverConfig(method="lp-exact")


def _instance(n, m, k, seed):
    return make_instance(n, m, k, {"kind": "sparse", "s": k, "scale": 1.0},
                         {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(seed))


def _highs_objective(phi, y, epsilon):
    m, n = phi.shape
    c = np.concatenate([np.ones(2 * n), np.zeros(2 * m)])
    a_eq = np.hstack([phi, -phi, np.eye(m), -np.eye(m)])
    a_ub = np.concatenate([np.zeros(2 * n), np.ones(2 * m)])[None, :]
    ref = linprog(c, A_ub=a_ub, b_ub=[epsilon], A_eq=a_eq, b_eq=y,
                  bounds=(0, None), method="highs")
    assert ref.status == 0, ref.message
    return ref.fun


@pytest.mark.parametrize("n, m, k, seed", [
    (128, 64, 4, 61), (128, 64, 4, 62), (128, 64, 4, 63),
    (256, 128, 8, 64), (256, 128, 8, 65), (256, 128, 8, 66),
])
def test_lp_exact_matches_highs(n, m, k, seed):
    inst = _instance(n, m, k, seed)
    res = solver.solve(inst.phi, inst.y, inst.epsilon, LP_EXACT)
    ref = _highs_objective(inst.phi, inst.y, inst.epsilon)
    assert res.status == "optimal"
    assert abs(res.objective - ref) <= 1e-9 * abs(ref)
    assert res.residual_l1 <= inst.epsilon * (1 + 1e-9)


def test_lp_exact_objective_invariant_under_column_permutation_and_sign_flips():
    # ||u||_1 and phi u are unchanged when column j moves to perm[j] and
    # u_j changes sign with it, so the optimum stays put
    inst = _instance(128, 64, 4, 67)
    st = Stream(RngSpec(68))
    perm = np.argsort(st.uniform(128))
    signs = np.where(st.uniform(128) < 0.5, -1.0, 1.0)
    base = solver.solve(inst.phi, inst.y, inst.epsilon, LP_EXACT)
    moved = solver.solve(inst.phi[:, perm] * signs, inst.y, inst.epsilon, LP_EXACT)
    assert base.status == moved.status == "optimal"
    assert not np.array_equal(perm, np.arange(128)) and np.any(signs < 0)
    assert abs(moved.objective - base.objective) <= 1e-9 * abs(base.objective)
    assert moved.residual_l1 <= inst.epsilon * (1 + 1e-9)
