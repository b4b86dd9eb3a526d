"""Solvers for the l1-fidelity basis pursuit denoising program

    minimize ||u||_1   subject to   ||y - phi @ u||_1 <= epsilon.

Two routes share one result contract: an exact reduction to a linear
program, whose dual the built-in simplex method solves from the origin
(the reference oracle for small problems), and a restarted primal-dual
hybrid gradient scheme with a primal weight (the scalable path).  The
program is a sharp LP, on which restarting PDHG from the better of its
current and its average iterate converges linearly (Applegate, Hinder,
Lu, Lubin, Math. Prog. 2023); the primal weight, which balances the
primal and dual step sizes, follows the restart moves, and the step
size adapts to a local bound on phi as in PDLP (Applegate et al.,
NeurIPS 2021), so the route runs on mat-vecs and elementwise work and
never factorises phi, except for the feasibility polish late in a long
solve (after m iterations).  Restarted PDHG settles on the optimal
support long before its gap closes (Lu and Yang, 2023), so a solve that
has run m iterations finishes on that active set as crossover does
(Megiddo, 1991): once the sign pattern of u holds between two gap
checks, the LP restricted to its support is solved exactly, once per
pattern, and its vertex and its dual bound join the gap test (the
certificate counts these "restricted_lps").  The primal-dual solver
certifies optimality through an explicit duality gap: any q with
||phi.T @ q||_inf <= 1 gives the lower bound q @ y - epsilon * ||q||_inf
on the optimal value, so a feasible point whose objective meets that
bound up to a relative tolerance is accepted.  That gap test, checked
on the whole problem, is its only stop rule besides the iteration cap,
and the gap it accepted is the one reported in the certificate.
"""

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
# the restart check, which reuses a gap check's average (so RESTART_EVERY
# must stay a multiple of CHECK_EVERY), and the restart thresholds on the
# weighted fixed-point residual relative to its value at the last restart
# (sufficient decay; necessary decay once the residual rises between
# checks), plus the share of all iterations after which a run since the
# last restart ends regardless.
CHECK_EVERY = 10
RESTART_EVERY = 40
RESTART_SUFFICIENT = 0.2
RESTART_NECESSARY = 0.8
RESTART_ARTIFICIAL = 0.36


@dataclass
class SolverConfig:
    method: str = METHOD_FIRST_ORDER
    feasibility_tol: float = 1e-8   # slack on ||y - phi u||_1 - epsilon, times min(1, ||y||_1)
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
    return float(np.sum(np.abs(y - phi @ u)))


def soft_threshold(v, tau: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - tau, 0) with the mathematical
    sign (0 maps to 0), i.e. the prox of tau * ||.||_1."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _threshold_search(dropped, radius):
    """The level theta with sum(max(dropped - theta, 0)) = radius, for
    magnitudes sorted in decreasing order, and the search's leading
    candidate, which is radius in exact arithmetic; theta is None when
    rounding leaves no candidate positive."""
    cumulative = np.cumsum(dropped) - radius
    candidates = dropped - cumulative / np.arange(1, dropped.size + 1)
    positive = np.flatnonzero(candidates > 0)
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
    mags = np.abs(v)
    if mags.sum() <= radius:
        return v.copy()
    dropped = np.sort(mags)[::-1]
    theta, lead = _threshold_search(dropped, radius)
    if theta is not None:
        out = np.sign(v) * np.maximum(mags - theta, 0.0)
        if (abs(lead - radius) <= 1e-13 * radius
                or core.norm_lp(out, 1) <= radius * (1.0 + 1e-12)):
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

    stored in '<=' form over the stacked variable z = (u+, u-, t).
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    phi: np.ndarray
    y: np.ndarray
    epsilon: float

    def signal_from(self, z) -> np.ndarray:
        n = self.phi.shape[1]
        return np.asarray(z[:n]) - np.asarray(z[n:2 * n])


def lp_formulate(phi, y, epsilon: float) -> LpProblem:
    phi = core.as_matrix(phi, "phi")
    y = core.as_vector(y, "y")
    m, n = phi.shape
    if y.size != m:
        raise ValueError(f"phi is {m}x{n} but y has length {y.size}")
    if not epsilon >= 0:  # NaN fails this test too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    eye = np.eye(m)
    a_ub = np.zeros((2 * m + 1, 2 * n + m))
    a_ub[:m, :n] = -phi
    a_ub[:m, n:2 * n] = phi
    a_ub[:m, 2 * n:] = -eye
    a_ub[m:2 * m, :n] = phi
    a_ub[m:2 * m, n:2 * n] = -phi
    a_ub[m:2 * m, 2 * n:] = -eye
    a_ub[2 * m, 2 * n:] = 1.0
    b_ub = np.concatenate([-y, y, [float(epsilon)]])
    c = np.concatenate([np.ones(2 * n), np.zeros(m)])
    return LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, phi=phi, y=y, epsilon=float(epsilon))


def solve_lp_exact(lp: LpProblem, config: SolverConfig = None) -> SolverResult:
    """Exact solve of the LP reduction through its dual

        minimize b_ub @ p   s.t.   -a_ub.T @ p <= c,  p >= 0,

    whose right-hand side c is nonnegative, so the built-in simplex
    method starts it feasible at the origin.  The primal z comes back as
    the dual's row duals, and the certificate keeps the primal's duals
    (-p).  An unbounded dual means the residual ball is out of reach
    ("infeasible-detected"); a solve capped at 10 * max_iters pivots
    carries no iterate ("iteration-limit").

    The simplex tolerances are absolute, so data with 0 < ||y||_1 < 1 is
    solved with b_ub divided by the power of two that puts ||y||_1 in
    [1, 2), and z and the dual objective are multiplied back; a power of
    two scales exactly, and the duals do not depend on it.
    """
    cfg = config if config is not None else SolverConfig(method=METHOD_LP)
    y_l1 = core.norm_lp(lp.y, 1)
    scale = math.ldexp(1.0, math.frexp(y_l1)[1] - 1) if 0.0 < y_l1 < 1.0 else 1.0
    res = simplex.solve_canonical(lp.b_ub / scale, -lp.a_ub.T, lp.c,
                                  max_pivots=cfg.max_iters * 10)
    if res.status != simplex.OPTIMAL:
        status = STATUS_INFEASIBLE if res.status == simplex.UNBOUNDED else STATUS_ITER_LIMIT
        return SolverResult(
            u_star=np.zeros(lp.phi.shape[1]), objective=math.inf, residual_l1=math.inf,
            status=status, iters=res.pivots, certificate=None)
    z = -res.duals * scale
    u = lp.signal_from(z)
    dual_obj = -res.objective * scale
    certificate = {
        "duals": -res.x,
        "dual_objective": dual_obj,
        "strong_duality_gap": float(lp.c @ z - dual_obj),
    }
    return SolverResult(
        u_star=u,
        objective=core.norm_lp(u, 1),
        residual_l1=residual_l1(lp.phi, lp.y, u),
        status=STATUS_OPTIMAL,
        iters=res.pivots,
        certificate=certificate,
    )


def _dual_lower_bound(q, phit_q, y, epsilon) -> float:
    """Lower bound on the optimum from an arbitrary dual vector q."""
    scale = float(np.max(np.abs(phit_q))) * (1.0 + 1e-12)
    scale = max(1.0, scale)
    return (abs(float(q @ y)) - epsilon * float(np.max(np.abs(q)))) / scale


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
    with primal step tau and dual step sigma; returns the new pair and
    phi @ u of the new primal, the step's one mat-vec."""
    u_new = soft_threshold(u - tau * phit_q, tau)
    phi_u_new = phi @ u_new
    v = q + sigma * (2.0 * phi_u_new - phi_u)
    q_new = v - sigma * (y + project_l1_ball(v / sigma - y, epsilon))
    return u_new, q_new, phi_u_new


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
        pair, its products phi @ u and phi.T @ q, and the size used."""
        while True:
            self.attempts += 1
            eta = self.eta
            u_new, q_new, phi_u_new = _pdhg_step(self.phi, self.y, self.epsilon, u, q,
                                                 phi_u, phit_q, eta / weight, eta * weight)
            du, dq = u_new - u, q_new - q
            movement = 0.5 * (weight * float(du @ du) + float(dq @ dq) / weight)
            interaction = abs(float(dq @ (phi_u_new - phi_u)))
            limit = movement / interaction if interaction > 0.0 else math.inf
            k = self.attempts
            self.eta = min((1.0 - (k + 1) ** -0.3) * limit, (1.0 + (k + 1) ** -0.6) * eta)
            if eta <= limit:
                return u_new, q_new, phi_u_new, self.phi.T @ q_new, eta
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
        res = float(np.sum(np.abs(r)))
        obj = core.norm_lp(u, 1)
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
            cand_obj = core.norm_lp(cand, 1)
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

    Every RESTART_EVERY iterations, right after the gap check, the weighted
    fixed-point residual sqrt(w ||du||^2 + ||dq||^2 / w) of the step from
    the current iterate is compared with that of a step of the same size
    from the check's average of the iterates since the last restart
    (weighted by their accepted step sizes); the better point becomes the
    new start when its residual has fallen to RESTART_SUFFICIENT of the
    value at the last restart, or to RESTART_NECESSARY of it and risen
    since the previous check, or when the run since the last restart
    reaches RESTART_ARTIFICIAL of all iterations.  At a restart the weight
    moves to the geometric mean of itself and the ratio of the dual to the
    primal move since the last restart.

    Every CHECK_EVERY iterations the best point, among the current and
    the average iterate, that is feasible up to feasibility_tol *
    min(1, ||y||_1) is compared with the better dual lower bound of the
    current and the average dual; the solve stops "optimal" only when
    that duality gap is within objective_tol * obj of zero (the optimum
    is positive once ||y||_1 > epsilon), and reports the gap it accepted.
    A nearly feasible point is polished (_FeasibilityPolish) only once
    the solve has run m iterations: the polish needs pinv(phi), which
    costs about as much as m iterations' mat-vecs, so a solve that ends
    sooner never pays for it.

    The finish on the active set takes the same m-iteration gate: at a
    check whose gap test fails, where the sign pattern of u equals the
    one at the previous check and has not been tried, the LP restricted
    to the support S of u is solved exactly (solve_lp_exact).  Its vertex, padded with zeros,
    is offered as a candidate, and its duals d give q = d[m:2m] - d[:m],
    whose bound covers every column of phi; the gap test then decides on
    the whole problem as before, so a wrong support costs one LP and
    stops nothing.  Hitting the iteration cap returns status
    "iteration-limit" carrying the best feasible point seen, if any.
    The certificate counts the restarts, the rejected steps and the
    restricted LPs run ("restricted_lps").
    """
    phi = core.as_matrix(phi, "phi")
    y = core.as_vector(y, "y")
    epsilon = float(epsilon)
    m, n = phi.shape
    if y.size != m:
        raise ValueError(f"phi is {m}x{n} but y has length {y.size}")
    if not epsilon >= 0:  # NaN fails this test too
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    cfg = config if config is not None else SolverConfig()
    otol = cfg.objective_tol

    y_l1 = core.norm_lp(y, 1)
    if y_l1 <= epsilon:
        # zero is feasible and l1-minimal
        return SolverResult(np.zeros(n), 0.0, y_l1, STATUS_OPTIMAL, 0,
                            {"stop": "zero-feasible", "restarts": 0, "step_rejections": 0,
                             "restricted_lps": 0})

    largest = float(np.max(np.abs(phi)))
    if largest <= 0.0:
        # phi is the zero matrix and y is outside the residual ball
        return SolverResult(np.zeros(n), math.inf, y_l1, STATUS_INFEASIBLE, 0, None)
    stepper = _AdaptiveStep(phi, y, epsilon, 1.0 / largest)
    weight = math.sqrt(n) / core.norm_lp(y, 2)

    def fixed_point_residual(du, dq):
        return math.sqrt(weight * float(du @ du) + float(dq @ dq) / weight)

    u = np.zeros(n)
    q = np.zeros(m)
    phi_u = np.zeros(m)
    phit_q = np.zeros(n)
    # each iteration ends with the step to the next iterate
    u_new, q_new, phi_u_new, phit_q_new, eta = stepper.take(u, q, phi_u, phit_q, weight)
    start_u, start_q = u, q        # the point of the last restart
    start_residual = fixed_point_residual(u_new - u, q_new - q)
    checked_residual = math.inf    # the best candidate's at the previous restart check
    u_sum = np.zeros(n)
    q_sum = np.zeros(m)
    eta_sum = 0.0                  # accepted step sizes summed since the last restart
    run = 0                        # iterates summed since the last restart
    restarts = 0
    incumbent = _Incumbent(phi, y, epsilon, cfg.feasibility_tol * min(1.0, y_l1))

    def closes(gap):
        # a gap below -tolerance shows an incumbent outside the ball
        return incumbent.u is not None and abs(gap) <= otol * abs(incumbent.obj)

    pattern = None                 # the sign pattern of u at the previous check
    tried = set()                  # the patterns whose restricted LP has run
    stop = "cap"

    for it in range(1, cfg.max_iters + 1):
        u, q, phi_u, phit_q = u_new, q_new, phi_u_new, phit_q_new
        u_sum += eta * u
        q_sum += eta * q
        eta_sum += eta
        run += 1

        last = it == cfg.max_iters
        if last or it % CHECK_EVERY == 0:
            polish = it >= m
            lower = _dual_lower_bound(q, phit_q, y, epsilon)
            incumbent.offer(u, phi_u, polish)
            if run > 1:
                u_avg, q_avg = u_sum / eta_sum, q_sum / eta_sum
                phi_u_avg, phit_q_avg = phi @ u_avg, phi.T @ q_avg
                incumbent.offer(u_avg, phi_u_avg, polish)
                lower = max(lower, _dual_lower_bound(q_avg, phit_q_avg, y, epsilon))
            gap = incumbent.obj - lower
            settled, pattern = pattern, np.sign(u).astype(np.int8).tobytes()
            if (not closes(gap) and polish and settled == pattern
                    and pattern not in tried and u.any()):
                # the finish: the exact vertex and dual of the LP on the
                # support (an empty one holds no feasible point here)
                tried.add(pattern)
                support = np.flatnonzero(u)
                exact = solve_lp_exact(lp_formulate(phi[:, support], y, epsilon))
                if exact.is_usable():
                    u_exact = np.zeros(n)
                    u_exact[support] = exact.u_star
                    incumbent.offer(u_exact, phi @ u_exact, polish)
                    duals = exact.certificate["duals"]
                    q_exact = duals[m:2 * m] - duals[:m]
                    lower = max(lower, _dual_lower_bound(q_exact, phi.T @ q_exact, y, epsilon))
                    gap = incumbent.obj - lower
            if closes(gap):
                stop = "gap"
                break
        if last:
            break
        u_new, q_new, phi_u_new, phit_q_new, eta = stepper.take(u, q, phi_u, phit_q, weight)
        if it % RESTART_EVERY:
            continue
        # the restart check: the step just taken against one from the check's average
        residual = fixed_point_residual(u_new - u, q_new - q)
        avg_u_new, avg_q_new, _ = _pdhg_step(phi, y, epsilon, u_avg, q_avg, phi_u_avg,
                                             phit_q_avg, eta / weight, eta * weight)
        avg_residual = fixed_point_residual(avg_u_new - u_avg, avg_q_new - q_avg)
        from_avg = avg_residual < residual
        residual = min(residual, avg_residual)
        if (residual <= RESTART_SUFFICIENT * start_residual
                or checked_residual < residual <= RESTART_NECESSARY * start_residual
                or run >= RESTART_ARTIFICIAL * it):
            if from_avg:
                u, q, phi_u, phit_q = u_avg, q_avg, phi_u_avg, phit_q_avg
            du = core.norm_lp(u - start_u, 2)
            dq = core.norm_lp(q - start_q, 2)
            if du > 1e-10 and dq > 1e-10:
                weight = math.sqrt(weight * dq / du)
            start_u, start_q, start_residual = u, q, residual
            u_sum = np.zeros(n)
            q_sum = np.zeros(m)
            eta_sum = 0.0
            run = 0
            restarts += 1
            # the first step from the new start takes the new weight
            u_new, q_new, phi_u_new, phit_q_new, eta = stepper.take(u, q, phi_u, phit_q, weight)
        checked_residual = residual

    if incumbent.u is not None:
        u_out, obj_out, res_out = incumbent.u, incumbent.obj, incumbent.res
    else:
        u_out = u
        obj_out = core.norm_lp(u, 1)
        res_out = residual_l1(phi, y, u)
    status = STATUS_OPTIMAL if stop == "gap" else STATUS_ITER_LIMIT

    certificate = {"stop": stop, "restarts": restarts, "step_rejections": stepper.rejections,
                   "restricted_lps": len(tried)}
    if incumbent.u is not None:
        certificate["duality_gap"] = float(gap)
    return SolverResult(u_out, float(obj_out), float(res_out), status, it, certificate)


def solve(phi, y, epsilon: float, config: SolverConfig = None) -> SolverResult:
    """Dispatch on config.method (default: first-order)."""
    cfg = config if config is not None else SolverConfig()
    if cfg.method == METHOD_LP:
        return solve_lp_exact(lp_formulate(phi, y, epsilon), cfg)
    return solve_first_order(phi, y, epsilon, cfg)
