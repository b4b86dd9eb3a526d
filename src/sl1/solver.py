"""Solvers for the l1-fidelity basis pursuit denoising program

    minimize ||u||_1   subject to   ||y - phi @ u||_1 <= epsilon.

Two routes share one result contract: an exact reduction to a linear
program, whose dual the built-in simplex method solves from the origin
with the residual multiplier as free columns (the reference oracle for
small problems; see solve_lp_exact: the dense primal LP of lp_formulate
is built only when an outside solver reads it), and a restarted primal-dual
hybrid gradient scheme with a primal weight (the scalable path).  The
program is a sharp LP, on which restarting PDHG from its current
iterate converges linearly (Applegate, Hinder, Lu, Lubin, Math. Prog.
2023); the primal weight, which balances the primal and dual step
sizes, follows the restart moves, and the step size adapts to a local
bound on phi as in PDLP (Applegate et al., NeurIPS 2021), so the route
runs on mat-vecs and elementwise work and factorises only small blocks
of phi, except for the feasibility polish late in a long solve (after m
iterations).  Restarted PDHG settles on the optimal active set long
before its gap closes (Lu and Yang, 2023), so the solve finishes on that
set as the solution polishing of OSQP does (Stellato et al., Math. Prog.
Comp. 2020): once the sign pattern of u has held for SETTLE consecutive
iterations, the support of u and the rows that the dual step's l1-ball
projection clips give one least-squares system on the active block of
phi, once per pattern, whose point and dual bound join a gap test run
there and then (the certificate counts these "active_set_solves"); the
route calls no LP solver.  The primal-dual solver certifies optimality
through an explicit duality gap: any q with ||phi.T @ q||_inf <= 1 gives
the lower bound q @ y - epsilon * ||q||_inf on the optimal value, so a
feasible point whose objective meets that bound up to a relative
tolerance is accepted.  That gap test, checked on the whole problem, is
its only stop rule besides the iteration cap, and the gap it accepted
is the one reported in the certificate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core, simplex

METHOD_LP = "lp-exact"
METHOD_FIRST_ORDER = "first-order"
METHODS = (METHOD_LP, METHOD_FIRST_ORDER)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible-detected"
STATUS_ITER_LIMIT = "iteration-limit"

# First-order schedule: the period of the feasibility/gap check and of
# the restart check, and the restart thresholds on the weighted
# fixed-point residual of the current iterate relative to its value at
# the last restart (sufficient decay; necessary decay once the residual
# rises between checks), plus the share of all iterations after which a
# run since the last restart ends regardless.
CHECK_EVERY = 10
RESTART_EVERY = 40
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36
# The finish on the active set runs once the sign pattern of u has held
# for this many consecutive iterations, without waiting for the next check.
SETTLE = 3


@dataclass
class SolverConfig:
    method: str = METHOD_FIRST_ORDER
    feasibility_tol: float = 1e-8   # slack on ||y - phi u||_1 - epsilon (see residual_slack)
    objective_tol: float = 1e-7    # relative: duality gap
    max_iters: int = 50_000

    def __post_init__(self):
        for name in ("feasibility_tol", "objective_tol"):
            if not getattr(self, name) > 0:  # NaN fails this test too
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(slots=True)
class SolverResult:
    u_star: np.ndarray
    objective: float
    residual_l1: float
    status: str
    iters: int
    certificate: dict | None = None

    def is_usable(self) -> bool:
        return self.status == STATUS_OPTIMAL

    def to_json_dict(self) -> dict:
        out = {
            "objective": self.objective,
            "residual_l1": self.residual_l1,
            "status": self.status,
            "iters": self.iters,
            "u_star": [float(v) for v in self.u_star],
        }
        if self.certificate is not None:
            out["certificate"] = {key: value.tolist() if isinstance(value, np.ndarray) else value
                                  for key, value in self.certificate.items()}
        return out


def residual_l1(phi, y, u) -> float:
    return core._l1(y - phi @ u)


def _max_abs(a):
    return np.maximum.reduce(np.absolute(a), axis=None)


def residual_slack(m: int, y_l1: float, epsilon: float, feasibility_tol: float) -> float:
    """How far past epsilon ||y - phi u||_1 may lie for u to count as feasible:
    feasibility_tol * min(1, ||y||_1) (relative below 1), plus the rounding
    of the m residual terms, which alone can exceed an absolute slack."""
    return feasibility_tol * min(1.0, y_l1) + m * 2.0 ** -52 * (y_l1 + epsilon)


def _checked_problem(phi, y, epsilon) -> tuple:
    """(phi, y, float(epsilon)), or ValueError unless phi and y are finite,
    y fits phi and epsilon >= 0: the one check of a solver's inputs, after
    which both routes call core's unchecked kernels."""
    phi = core.as_matrix(phi, "phi")
    y = core.as_vector(y, "y")
    epsilon = float(epsilon)
    m, n = phi.shape
    if y.size != m:
        raise ValueError(f"phi is {m}x{n} but y has length {y.size}")
    if not epsilon >= 0:  # NaN fails this test too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return phi, y, epsilon


def soft_threshold(v, tau: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - tau, 0) with the mathematical
    sign (0 maps to 0), i.e. the prox of tau * ||.||_1."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


@functools.lru_cache(maxsize=16)
def _ranks(size: int) -> np.ndarray:
    """1, 2, ..., size, one read-only array per size shared by the searches."""
    ranks = np.arange(1, size + 1)
    ranks.flags.writeable = False
    return ranks


def _threshold_search(dropped, radius):
    """The level theta with sum(max(dropped - theta, 0)) = radius, for
    magnitudes sorted in decreasing order, and the search's leading
    candidate, which is radius in exact arithmetic; theta is None when
    rounding leaves no candidate positive."""
    cumulative = np.add.accumulate(dropped) - radius
    candidates = dropped - cumulative / _ranks(dropped.size)
    positive = (candidates > 0).nonzero()[0]
    if not positive.size:
        return None, candidates[0]
    rho = int(positive[-1])
    return cumulative[rho] / (rho + 1.0), candidates[0]


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto {z : ||z||_1 <= radius} via the
    sort-based threshold search."""
    if not radius >= 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    v = np.asarray(v, dtype=np.float64)
    if radius == 0.0:
        return np.zeros_like(v)
    mags = np.absolute(v)
    if np.add.reduce(mags) <= radius:
        return v.copy()
    dropped = mags.copy()
    dropped.sort()  # the method: np.sort's wrapper costs as much as a short sort
    dropped = dropped[::-1]
    theta, lead = _threshold_search(dropped, radius)
    if theta is not None:
        out = np.sign(v) * np.maximum(mags - theta, 0.0)
        if (abs(lead - radius) <= 1e-13 * radius
                or core._l1(out) <= radius * (1.0 + 1e-12)):
            return out
    # The largest magnitudes swamped the radius in rounding, so the search
    # lost its leading candidate or overshot the ball: search again
    # relative to the largest magnitude, where the leading entries and
    # the radius are of one scale.
    top = dropped[0]
    theta, _ = _threshold_search(dropped - top, radius)
    if theta is None:  # only an inf or a NaN in v leaves no candidate here
        raise ValueError(f"v must be finite, got {v}")
    return np.sign(v) * np.maximum((mags - top) - theta, 0.0)


def operator_norm_estimate(phi) -> float:
    """Spectral norm ||phi||_2 (the largest singular value), by SVD.

    A utility only: the first-order solver chooses its steps adaptively
    and does not call it."""
    return float(np.linalg.norm(core.as_matrix(phi, "phi"), 2))


@dataclass
class LpProblem:
    """BPDN-l1 rewritten as the canonical LP

        minimize sum(u+) + sum(u-)
        s.t.  phi (u+ - u-) + t >= y,  -phi (u+ - u-) + t >= -y,
              sum(t) <= epsilon,  u+, u-, t >= 0,

    stored in '<=' form over the stacked variable z = (u+, u-, t): the
    reference form for outside solvers (HiGHS) and vertex enumeration,

        c = (1_n, 1_n, 0_m),   b_ub = (-y, y, epsilon),
        a_ub = [[-phi, phi, -I], [phi, -phi, -I], [0, 0, 1_m^T]].

    phi, y and epsilon are checked when the problem is made
    (_checked_problem), so solve_lp_exact trusts them.  c, a_ub and b_ub
    are built on first read and cached (assigning to them replaces the
    cached array); solve_lp_exact reads only phi, y and epsilon, so an
    exact solve never builds them.  The duals of its certificate are
    those of the 2m + 1 rows of a_ub.
    """

    phi: np.ndarray
    y: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.phi, self.y, self.epsilon = _checked_problem(self.phi, self.y, self.epsilon)

    @functools.cached_property
    def c(self) -> np.ndarray:
        m, n = self.phi.shape
        return np.concatenate([np.ones(2 * n), np.zeros(m)])

    @functools.cached_property
    def a_ub(self) -> np.ndarray:
        phi = self.phi
        m, n = phi.shape
        eye = np.eye(m)
        a_ub = np.zeros((2 * m + 1, 2 * n + m))
        a_ub[:m, :n] = -phi
        a_ub[:m, n:2 * n] = phi
        a_ub[:m, 2 * n:] = -eye
        a_ub[m:2 * m, :n] = phi
        a_ub[m:2 * m, n:2 * n] = -phi
        a_ub[m:2 * m, 2 * n:] = -eye
        a_ub[2 * m, 2 * n:] = 1.0
        return a_ub

    @functools.cached_property
    def b_ub(self) -> np.ndarray:
        return np.concatenate([-self.y, self.y, [self.epsilon]])

    def signal_from(self, z) -> np.ndarray:
        n = self.phi.shape[1]
        return np.asarray(z[:n]) - np.asarray(z[n:2 * n])


def lp_formulate(phi, y, epsilon: float) -> LpProblem:
    return LpProblem(phi, y, epsilon)


def _power_of_two_below(value: float) -> float:
    """The power of two in (value / 2, value], or 1 for value 0."""
    return math.ldexp(1.0, math.frexp(value)[1] - 1) if value > 0.0 else 1.0


def solve_lp_exact(lp: LpProblem, config: SolverConfig = None) -> SolverResult:
    """Exact solve of the LP reduction through its dual, whose residual
    multiplier w stays free:

        minimize -y @ w + epsilon * lam
        s.t.  phi.T @ w <= 1,  -phi.T @ w <= 1,  w - lam <= 0,  -w - lam <= 0,
              lam >= 0.

    Its right-hand side (1, 0) is nonnegative, so the built-in simplex
    method starts it feasible at the origin, on a (2n + 2m + 1) x (m + 2)
    table (the cost row last).  Only phi, y and epsilon of `lp` are
    read, and LpProblem checked them when it was made.  The primal u
    comes back from the duals of the first 2n rows (u+ and u-), and the
    certificate keeps the duals of lp_formulate's 2m + 1 rows:
    -(max(w, 0), max(-w, 0), lam).  An unbounded dual means
    the residual ball is out of reach ("infeasible-detected"); a solve
    capped at 10 * max_iters pivots carries no iterate
    ("iteration-limit").

    The simplex tolerances are absolute, so the LP is solved with phi
    divided by the power of two s_phi that puts max|phi_ij| in [1, 2) and
    y and epsilon by the power of two s_y that puts ||y||_1 in [1, 2); u
    and the objectives are multiplied back by s_y / s_phi and the duals
    by 1 / s_phi.  A power of two scales exactly.
    """
    cfg = config if config is not None else SolverConfig(method=METHOD_LP)
    m, n = lp.phi.shape
    s_phi = _power_of_two_below(float(_max_abs(lp.phi)))
    s_y = _power_of_two_below(core._l1(lp.y))
    dual_a = np.zeros((2 * n + 2 * m, m + 1))
    phit = dual_a[:n, :m]
    np.divide(lp.phi.T, s_phi, out=phit)
    np.negative(phit, out=dual_a[n:2 * n, :m])
    diagonal = np.arange(m)
    dual_a[2 * n + diagonal, diagonal] = 1.0
    dual_a[2 * n + m + diagonal, diagonal] = -1.0
    dual_a[2 * n:, m] = -1.0
    dual_b = np.concatenate([np.ones(2 * n), np.zeros(2 * m)])
    dual_c = np.append(-lp.y / s_y, lp.epsilon / s_y)
    res = simplex.solve_canonical(dual_c, dual_a, dual_b, max_pivots=cfg.max_iters * 10,
                                  free=np.arange(m + 1) < m)
    if res.status != simplex.OPTIMAL:
        status = STATUS_INFEASIBLE if res.status == simplex.UNBOUNDED else STATUS_ITER_LIMIT
        return SolverResult(
            u_star=np.zeros(n), objective=math.inf, residual_l1=math.inf,
            status=status, iters=res.pivots, certificate=None)
    ratio = s_y / s_phi
    z = -res.duals[:2 * n]
    u = lp.signal_from(z) * ratio
    dual_obj = -res.objective * ratio
    w = res.x[:m]
    certificate = {
        "duals": -np.concatenate([np.maximum(w, 0.0), np.maximum(-w, 0.0), res.x[m:]]) / s_phi,
        "dual_objective": dual_obj,
        "strong_duality_gap": float(z.sum()) * ratio - dual_obj,
    }
    return SolverResult(
        u_star=u,
        objective=core._l1(u),
        residual_l1=residual_l1(lp.phi, lp.y, u),
        status=STATUS_OPTIMAL,
        iters=res.pivots,
        certificate=certificate,
    )


def _dual_lower_bound(q, phit_q, y, epsilon) -> float:
    """Lower bound on the optimum from an arbitrary dual vector q."""
    scale = max(1.0, float(_max_abs(phit_q)) * (1.0 + 1e-12))
    return (abs(float(q @ y)) - epsilon * float(_max_abs(q))) / scale


class _FeasibilityPolish:
    """Turn a nearly feasible iterate into a feasible candidate.

    The residual r = y - phi u is pulled to its l1-ball projection r'
    and the iterate is corrected by pinv(phi) @ (r - r'), the
    minimum-norm least-squares solution of phi du = r - r' for any shape
    or rank of phi.  Near the optimum the correction cost is of the
    order of the feasibility violation, which lets the duality-gap test
    certify iterates that merely graze the constraint boundary.
    """

    def __init__(self, phi):
        self.pinv = np.linalg.pinv(phi)

    def candidate(self, u, r, epsilon):
        return u + self.pinv @ (r - project_l1_ball(r, epsilon * (1.0 - 1e-9)))


def _pdhg_step(phi, y, epsilon, u, q, phi_u, phit_q, tau, sigma):
    """One primal-dual step from (u, q), given phi @ u and phi.T @ q,
    with primal step tau and dual step sigma; returns the new pair,
    phi @ u of the new primal (the step's one mat-vec) and the l1-ball
    projection p of the dual step, whose negative estimates the residual
    y - phi u and is exactly zero on the rows the projection clips."""
    u_new = soft_threshold(u - tau * phit_q, tau)
    phi_u_new = phi @ u_new
    v = q + sigma * (2.0 * phi_u_new - phi_u)
    p = project_l1_ball(v / sigma - y, epsilon)
    q_new = v - sigma * (y + p)
    return u_new, q_new, phi_u_new, p


def _least_squares_pair(a, b, c):
    """The least-norm least-squares solutions of a x = b and of a^T z = c,
    both from one QR factorisation: of a when it has at least as many rows
    as columns, else of a^T, so that its triangle R is square.  A diagonal
    entry of R within max(a.shape) * 2^-52 of the largest marks a block
    short of full rank, which np.linalg.lstsq solves instead (two SVDs,
    several times the cost of the factorisation at the active blocks of
    a 128 x 256 phi)."""
    tall = a.shape[0] >= a.shape[1]
    basis, triangle = np.linalg.qr(a if tall else a.T)
    diagonal = np.absolute(np.diagonal(triangle))
    if not diagonal.min() > diagonal.max() * max(a.shape) * 2.0 ** -52:
        return np.linalg.lstsq(a, b, rcond=None)[0], np.linalg.lstsq(a.T, c, rcond=None)[0]
    if tall:  # a = Q R: x solves R x = Q^T b, and z = Q w with R^T w = c
        return (np.linalg.solve(triangle, basis.T @ b),
                basis @ np.linalg.solve(triangle.T, c))
    # a^T = Q R: x = Q w with R^T w = b, and z solves R z = Q^T c
    return basis @ np.linalg.solve(triangle.T, b), np.linalg.solve(triangle, basis.T @ c)


def _active_set_solve(phi, y, epsilon, u, q, p):
    """The primal point and the dual vector that the active set of a
    PDHG iterate (u, q) and its projection p determine, by two
    least-squares solves on the support S of u (see solve_first_order)
    that share one factorisation (_least_squares_pair).

    With Z the rows where p is zero, on which the residual y - phi u is
    guessed to vanish, and rho the signs of -p on the other rows Zc,
    M = [phi[Z, S]; rho^T phi[Zc, S]] holds those zeros and the
    residual's l1 norm at epsilon: u_S solves M u_S = [y_Z; rho^T y_Zc -
    epsilon] by least squares.  The dual unknowns x = (q'_Z, lambda) are
    the least change to (-q_Z, max|q_Zc|) that meets M^T x = sign(u_S),
    and q' is lambda * rho on Zc, so phi^T q' equals sign(u_S) on S (the
    LP's dual has the sign of -q).  The ball row and lambda are left out
    when no row is free, as at epsilon 0."""
    support = np.flatnonzero(u)
    clipped = p == 0.0
    block = phi[:, support]
    rows, rhs, start = block[clipped], y[clipped], -q[clipped]
    free = ~clipped
    rho = np.sign(-p[free])
    if rho.size:
        rows = np.vstack([rows, rho @ block[free]])
        rhs = np.append(rhs, rho @ y[free] - epsilon)
        start = np.append(start, _max_abs(q[free]))
    u_active, change = _least_squares_pair(rows, rhs, np.sign(u[support]) - rows.T @ start)
    u_new = core._embed(u_active, support, u.size)
    x = start + change
    q_new = np.empty(q.size)
    q_new[clipped] = x[:clipped.sum()]
    if rho.size:
        q_new[free] = x[-1] * rho
    return u_new, q_new


class _AdaptiveStep:
    """The PDLP step size and its accept/retry rule (see
    solve_first_order), with counts of the steps attempted and rejected."""

    def __init__(self, phi, y, epsilon, eta):
        self.phi, self.y, self.epsilon = phi, y, epsilon
        self.eta = eta
        self.attempts = 0
        self.rejections = 0

    def take(self, u, q, phi_u, phit_q, weight):
        """Step from (u, q) until a size is accepted; returns the new
        pair, its products phi @ u and phi.T @ q and the step's
        projection p (see _pdhg_step)."""
        while True:
            self.attempts += 1
            eta = self.eta
            u_new, q_new, phi_u_new, p = _pdhg_step(self.phi, self.y, self.epsilon, u, q,
                                                    phi_u, phit_q, eta / weight, eta * weight)
            du, dq = u_new - u, q_new - q
            movement = 0.5 * (weight * float(du @ du) + float(dq @ dq) / weight)
            interaction = abs(float(dq @ (phi_u_new - phi_u)))
            limit = movement / interaction if interaction > 0.0 else math.inf
            k = self.attempts
            self.eta = min((1.0 - (k + 1) ** -0.3) * limit, (1.0 + (k + 1) ** -0.6) * eta)
            if eta <= limit:
                return u_new, q_new, phi_u_new, self.phi.T @ q_new, p
            self.rejections += 1


class _Incumbent:
    """The best feasible point among the primal iterates offered to it,
    each taken as it is or, when nearly feasible and the polish is
    allowed, after the polish."""

    def __init__(self, phi, y, epsilon, ftol):
        self.phi, self.y, self.epsilon, self.ftol = phi, y, epsilon, ftol
        self.u = None
        self.obj = math.inf
        self.res = math.inf
        self._polish = None

    def offer(self, u, phi_u, polish):
        r = self.y - phi_u
        res = core._l1(r)
        obj = core._l1(u)
        eps = self.epsilon
        if res <= eps + self.ftol and obj < self.obj:
            self.u, self.obj, self.res = u.copy(), obj, res
        elif polish and eps < res <= eps + 0.5 * (1.0 + eps):
            # nearly feasible: snap the residual into the ball and keep
            # the corrected point when it beats the incumbent
            if self._polish is None:
                self._polish = _FeasibilityPolish(self.phi)
            cand = self._polish.candidate(u, r, eps)
            cand_res = residual_l1(self.phi, self.y, cand)
            cand_obj = core._l1(cand)
            if cand_res <= eps + self.ftol and cand_obj < self.obj:
                self.u, self.obj, self.res = cand, cand_obj, cand_res


def solve_first_order(phi, y, epsilon: float, config: SolverConfig = None) -> SolverResult:
    """Restarted primal-dual hybrid gradient with adaptive steps on
    ||u||_1 + indicator of the residual ball {u : ||y - phi u||_1 <= epsilon}.

    The steps are tau = eta / w and sigma = eta * w with the primal
    weight w, first sqrt(n) / ||y||_2, and the PDLP step size eta, first
    1 / max|phi_ij|: a step is accepted when
    eta <= (w ||du||^2 + ||dq||^2 / w) / (2 |dq . phi du|), and after
    attempt k (counting every attempt) eta becomes
    min((1 - (k + 1)^-0.3) limit, (1 + (k + 1)^-0.6) eta), where limit is
    that bound; a rejected step is retried with the new eta.  phi @ u and
    phi.T @ q are carried from step to step, so an accepted step costs
    two mat-vecs, and no factorisation of phi is needed to choose eta.

    Every RESTART_EVERY iterations the weighted fixed-point residual
    sqrt(w ||du||^2 + ||dq||^2 / w) of the step just taken from the
    current iterate is checked: that iterate becomes the new start when
    the residual has fallen to RESTART_SUFFICIENT of its value at the last
    restart, or to RESTART_NECESSARY of it and risen since the previous
    check, or when the run since the last restart reaches
    RESTART_ARTIFICIAL of all iterations.  At a restart the weight moves
    to the geometric mean of itself and the ratio of the dual to the
    primal move since the last restart.

    Every CHECK_EVERY iterations the best point seen that is feasible up
    to residual_slack is compared with the dual lower bound of the current
    dual; the solve stops "optimal" only when that duality gap is within
    objective_tol * obj of zero (the optimum is positive once
    ||y||_1 > epsilon), and reports the gap it accepted.
    A nearly feasible point is polished (_FeasibilityPolish) only once
    the solve has run m iterations: the polish needs pinv(phi), which
    costs about as much as m iterations' mat-vecs, so a solve that ends
    sooner never pays for it.

    The sign pattern of u is tracked at every iteration, and the gap test
    also runs at the first iteration where that pattern has held for
    SETTLE consecutive iterations.  The finish on the active set runs at a
    check whose gap test fails once the pattern has held that long.
    When the pair of sign patterns of u and of the dual step's projection
    p has not been tried, _active_set_solve guesses the active set from
    them: the support S of u and the rows where p is zero, on which the
    residual vanishes.  One least-squares solve on that block of phi gives
    a primal point, offered as a candidate (polished like an iterate once
    the solve has run m iterations), and one gives a dual q whose bound
    covers every column of phi.  The gap test decides on the whole
    problem as before, so a wrong guess costs two least-squares solves
    and stops nothing.  Hitting the iteration cap returns status
    "iteration-limit" carrying the best feasible point seen, if any.  The
    certificate counts the restarts, the rejected steps and the
    least-squares finishes ("active_set_solves") run.
    """
    phi, y, epsilon = _checked_problem(phi, y, epsilon)
    m, n = phi.shape
    cfg = config if config is not None else SolverConfig()
    otol = cfg.objective_tol

    y_l1 = core._l1(y)
    if y_l1 <= epsilon:
        # zero is feasible and l1-minimal
        return SolverResult(np.zeros(n), 0.0, y_l1, STATUS_OPTIMAL, 0,
                            {"stop": "zero-feasible", "restarts": 0, "step_rejections": 0,
                             "active_set_solves": 0})

    largest = float(_max_abs(phi))
    if largest <= 0.0:
        # phi is the zero matrix and y is outside the residual ball
        return SolverResult(np.zeros(n), math.inf, y_l1, STATUS_INFEASIBLE, 0, None)
    stepper = _AdaptiveStep(phi, y, epsilon, 1.0 / largest)
    weight = math.sqrt(n) / core._l2(y)

    def fixed_point_residual(du, dq):
        return math.sqrt(weight * float(du @ du) + float(dq @ dq) / weight)

    u = np.zeros(n)
    q = np.zeros(m)
    phi_u = np.zeros(m)
    phit_q = np.zeros(n)
    # each iteration ends with the step to the next iterate
    u_new, q_new, phi_u_new, phit_q_new, p_new = stepper.take(u, q, phi_u, phit_q, weight)
    start_u, start_q = u, q        # the point of the last restart
    start_residual = fixed_point_residual(u_new - u, q_new - q)
    checked_residual = math.inf    # the step's residual at the previous restart check
    run = 0                        # iterations since the last restart
    restarts = 0
    incumbent = _Incumbent(phi, y, epsilon, residual_slack(m, y_l1, epsilon, cfg.feasibility_tol))

    def closes(gap):
        # a gap below -tolerance shows an incumbent outside the ball
        return incumbent.u is not None and abs(gap) <= otol * abs(incumbent.obj)

    pattern = None                 # the sign pattern of u
    held = 0                       # the iterations it has held for, this one included
    solved = set()                 # the (u, p) sign patterns solved on their active set
    stop = "cap"

    for it in range(1, cfg.max_iters + 1):
        u, q, phi_u, phit_q, p = u_new, q_new, phi_u_new, phit_q_new, p_new
        run += 1
        signs = np.sign(u).tobytes()  # np.sign maps -0.0 to 0.0
        held = held + 1 if signs == pattern else 1
        pattern = signs

        last = it == cfg.max_iters
        if last or it % CHECK_EVERY == 0 or held == SETTLE:
            polish = it >= m
            lower = _dual_lower_bound(q, phit_q, y, epsilon)
            incumbent.offer(u, phi_u, polish)
            gap = incumbent.obj - lower
            # the finish, once the sign pattern of u holds (an empty support
            # holds no feasible point here): it only offers the active set's
            # own point and dual bound to the gap test
            if not closes(gap) and held >= SETTLE and u.any():
                active = pattern + np.sign(p).tobytes()
                if active not in solved:
                    solved.add(active)
                    u_active, q_active = _active_set_solve(phi, y, epsilon, u, q, p)
                    incumbent.offer(u_active, phi @ u_active, polish)
                    lower = max(lower, _dual_lower_bound(q_active, phi.T @ q_active, y, epsilon))
                    gap = incumbent.obj - lower
            if closes(gap):
                stop = "gap"
                break
        if last:
            break
        u_new, q_new, phi_u_new, phit_q_new, p_new = stepper.take(u, q, phi_u, phit_q, weight)
        if it % RESTART_EVERY:
            continue
        # the restart check, on the step just taken
        residual = fixed_point_residual(u_new - u, q_new - q)
        if (residual <= RESTART_SUFFICIENT * start_residual
                or checked_residual < residual <= RESTART_NECESSARY * start_residual
                or run >= RESTART_ARTIFICIAL * it):
            du = core._l2(u - start_u)
            dq = core._l2(q - start_q)
            if du > 1e-10 and dq > 1e-10:
                weight = math.sqrt(weight * dq / du)
            start_u, start_q, start_residual = u, q, residual
            run = 0
            restarts += 1
            # the first step from the new start takes the new weight
            u_new, q_new, phi_u_new, phit_q_new, p_new = stepper.take(u, q, phi_u, phit_q,
                                                                      weight)
        checked_residual = residual

    if incumbent.u is not None:
        u_out, obj_out, res_out = incumbent.u, incumbent.obj, incumbent.res
    else:
        u_out = u
        obj_out = core._l1(u)
        res_out = residual_l1(phi, y, u)
    status = STATUS_OPTIMAL if stop == "gap" else STATUS_ITER_LIMIT

    certificate = {"stop": stop, "restarts": restarts, "step_rejections": stepper.rejections,
                   "active_set_solves": len(solved)}
    if incumbent.u is not None:
        certificate["duality_gap"] = float(gap)
    return SolverResult(u_out, float(obj_out), float(res_out), status, it, certificate)


def solve(phi, y, epsilon: float, config: SolverConfig = None) -> SolverResult:
    """Dispatch on config.method (default: first-order)."""
    cfg = config if config is not None else SolverConfig()
    if cfg.method == METHOD_LP:
        return solve_lp_exact(lp_formulate(phi, y, epsilon), cfg)
    return solve_first_order(phi, y, epsilon, cfg)
