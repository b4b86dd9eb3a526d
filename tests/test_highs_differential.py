"""Differential and metamorphic checks of both routes against HiGHS
(scipy.optimize.linprog, which only the tests import), run on its own
equality form of the program (oracles.highs_objective).
"""

import numpy as np
import pytest

from sl1 import solver
from sl1.generators import make_instance
from sl1.rng import RngSpec, Stream

from oracles import highs_objective

LP_EXACT = solver.SolverConfig(method="lp-exact")


def _instance(n, m, k, seed):
    return make_instance(n, m, k, {"kind": "sparse", "s": k, "scale": 1.0},
                         {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(seed))


@pytest.mark.parametrize("n, m, k, seed", [
    (128, 64, 4, 61), (128, 64, 4, 62), (128, 64, 4, 63),
    (256, 128, 8, 64), (256, 128, 8, 65), (256, 128, 8, 66),
])
def test_lp_exact_matches_highs(n, m, k, seed):
    inst = _instance(n, m, k, seed)
    res = solver.solve(inst.phi, inst.y, inst.epsilon, LP_EXACT)
    ref = highs_objective(inst.phi, inst.y, inst.epsilon)
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


# a compressible signal has no exact sparse support, so the first-order
# route's finish guesses an active set that the optimum need not share
@pytest.mark.parametrize("noise", [{"kind": "sparse", "s": 5, "scale": 1.0},
                                   {"kind": "laplacian", "quantile": 0.9},
                                   {"kind": "none"}], ids=["s5", "laplacian", "noiseless"])
@pytest.mark.parametrize("seed", range(5))
def test_first_order_matches_highs_on_compressible_signals(noise, seed):
    inst = make_instance(128, 64, 8, noise, {"kind": "compressible", "p": 1.5},
                         RngSpec(777, seed))
    res = solver.solve_first_order(inst.phi, inst.y, inst.epsilon)
    ref = highs_objective(inst.phi, inst.y, inst.epsilon)
    assert res.status == "optimal"
    assert abs(res.objective - ref) <= 1e-6 * abs(ref)
