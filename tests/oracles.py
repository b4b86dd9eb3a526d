"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from first principles (plain
numpy, exhaustive enumeration, bisection) or handed to an outside solver
(HiGHS), and never calls back into the package's own implementations of
the operations it checks.  Two exceptions keep a former per-item form
of a batched computation, so that the batch can be held to its bytes:
trace_tail_rows (the tracer's per-block arithmetic on the package's
primitives) and circle_arcs_one_support (the k = 1 arc sweep of one
support).
"""

import math
from itertools import combinations

import numpy as np

from sl1 import core


def mat_vec_column_loop(a, v):
    """a @ v summed strictly left to right along each row: a plain loop
    over the columns, adding each column times its coefficient to a
    running sum that starts at 0.0."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        out += a[:, j] * v[j]
    return out


def trace_tail_rows(phi, h, blocks, signs, cross_dev_lower):
    """The tracer's tail-block figures computed one block at a time, by
    core.restrict and core.mat_vec: the sum of the blocks' l2 norms, and
    each block's cross-term row (|signs . phi h_B|, M * cross_dev_lower *
    ||h_B||_2) as a (blocks, 2) array."""
    m = phi.shape[0]
    norms = [core.norm_lp(core.restrict(h, blk), 2) for blk in blocks]
    rows = [(abs(float(np.sum(signs * core.mat_vec(phi, core.restrict(h, blk))))),
             m * cross_dev_lower * norm) for blk, norm in zip(blocks, norms)]
    return float(sum(norms)), np.array(rows, dtype=float).reshape(-1, 2)


def highs_objective(phi, y, epsilon):
    """The optimum of min ||u||_1 s.t. ||y - phi u||_1 <= epsilon by HiGHS
    (scipy.optimize.linprog), on an equality form that shares no code
    with solver.lp_formulate: u = u+ - u- and y - phi u = p - q,

        minimize sum(u+) + sum(u-)
        s.t.  phi u+ - phi u- + p - q = y,  sum(p) + sum(q) <= epsilon,
              u+, u-, p, q >= 0.
    """
    from scipy.optimize import linprog

    m, n = phi.shape
    c = np.concatenate([np.ones(2 * n), np.zeros(2 * m)])
    a_eq = np.hstack([phi, -phi, np.eye(m), -np.eye(m)])
    a_ub = np.concatenate([np.zeros(2 * n), np.ones(2 * m)])[None, :]
    ref = linprog(c, A_ub=a_ub, b_ub=[epsilon], A_eq=a_eq, b_eq=y,
                  bounds=(0, None), method="highs")
    assert ref.status == 0, ref.message
    return ref.fun


def lp_min_by_vertex_enumeration(c, a_ub, b_ub, feas_tol=1e-9, cond_cap=1e12):
    """Exact minimum of c @ z over {a_ub @ z <= b_ub, z >= 0} by
    enumerating all basic feasible points (vertices).

    Only viable for a handful of variables; the optimum of a bounded
    feasible LP is attained at one of these vertices.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n = c.size
    rows = np.vstack([a_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = math.inf
    argbest = None
    for active in combinations(range(rows.shape[0]), n):
        sub = rows[list(active)]
        if np.linalg.cond(sub) > cond_cap:
            continue
        z = np.linalg.solve(sub, rhs[list(active)])
        if not np.all(np.isfinite(z)):
            continue
        if np.all(rows @ z <= rhs + feas_tol):
            val = float(c @ z)
            if val < best:
                best = val
                argbest = z
    return best, argbest


def best_sparse_l1_error(v, k):
    """min over supports S with |S| <= k of ||v - v_S||_1, brute force."""
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    total = mags.sum()
    best = total
    for size in range(0, k + 1):
        for sup in combinations(range(v.size), size):
            best = min(best, total - mags[list(sup)].sum())
    return best


def project_l1_ball_bisection(v, radius, iters=200):
    """Euclidean projection onto the l1 ball via bisection on the
    soft-threshold level."""
    v = np.asarray(v, dtype=float)
    if radius == 0:
        return np.zeros_like(v)
    mags = np.abs(v)
    if mags.sum() <= radius:
        return v.copy()
    lo, hi = 0.0, float(mags.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(mags - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(mags - theta, 0.0)


def norm_deviation_on_angle_grid(phi, support, calibration, grid_points=4096):
    """Max of |(1/M)||phi_S z||_1 - nu| over a dense angle grid of unit
    z on a two-dimensional support."""
    sub = np.asarray(phi, dtype=float)[:, list(support)]
    assert sub.shape[1] == 2
    m = sub.shape[0]
    best = 0.0
    for theta in np.linspace(0.0, math.pi, grid_points, endpoint=False):
        z = np.array([math.cos(theta), math.sin(theta)])
        best = max(best, abs(np.abs(sub @ z).sum() / m - calibration))
    return best


def cross_deviation_disjoint_max_k1(phi, su, sv, grid_points=4096):
    """Max of |(1/M) <sign(phi u), phi v>| over unit u on a 2-dim
    support and unit v on a disjoint 1-dim support (k = 1 case), by an
    angle grid over u; for fixed u the best v is +-1, so the value is
    |phi_sv^T sign(phi_su u)| / M.

    Uses the sign(0) -> -1 convention to match the estimator.
    """
    phi = np.asarray(phi, dtype=float)
    m = phi.shape[0]
    bu = phi[:, list(su)]
    bv = phi[:, list(sv)].ravel()
    best = 0.0
    for theta in np.linspace(0.0, 2 * math.pi, grid_points, endpoint=False):
        z = np.array([math.cos(theta), math.sin(theta)])
        signs = np.where(bu @ z > 0, 1.0, -1.0)
        best = max(best, abs(float(signs @ bv)) / m)
    return best


def _circle_arcs_k1(b):
    """(lo, hi) arcs of the unit circle between consecutive angles where
    a nonzero row of the M x 2 block b is orthogonal to z = (cos t, sin t),
    by a plain loop over the sorted angles; arcs narrower than 1e-12 are
    dropped, and a block without nonzero rows gives the whole circle."""
    angles = []
    for x, y in np.asarray(b, dtype=float):
        if x != 0.0 or y != 0.0:
            base = math.atan2(y, x)
            angles += [(base + math.pi / 2) % (2 * math.pi),
                       (base - math.pi / 2) % (2 * math.pi)]
    angles.sort()
    if not angles:
        return [(0.0, 2 * math.pi)]
    arcs = []
    for i, lo in enumerate(angles):
        hi = angles[i + 1] if i + 1 < len(angles) else angles[0] + 2 * math.pi
        if hi - lo > 1e-12:
            arcs.append((lo, hi))
    return arcs


def circle_arcs_one_support(b, cols, arc_merge):
    """The k = 1 arc sweep of one M x 2 block b, one support at a time:
    (lo, hi, arc_sums, point_z, point_sums) over its arcs in sweep order,
    then its breakpoints with sign patterns of their own (rows turning
    both ways at one angle, each at sign(0) = -1)."""
    rows = np.flatnonzero((b[:, 0] != 0.0) | (b[:, 1] != 0.0))
    if rows.size == 0:
        sums = -np.sum(cols, axis=0, keepdims=True)
        return (np.zeros(1), np.full(1, 2.0 * math.pi), sums,
                np.empty((0, 2)), np.empty((0, cols.shape[1])))
    alpha = np.arctan2(b[rows, 1], b[rows, 0])
    theta = np.concatenate([alpha + 0.5 * math.pi, alpha - 0.5 * math.pi]) % (2.0 * math.pi)
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    gap = np.diff(theta, append=theta[0] + 2.0 * math.pi)
    widest = int(np.argmax(gap))
    order = np.roll(order, -(widest + 1))
    theta = np.roll(theta, -(widest + 1))
    theta[theta.size - widest - 1:] += 2.0 * math.pi
    t0 = theta[0] - 0.5 * gap[widest]
    s0 = np.where(b @ np.array([math.cos(t0), math.sin(t0)]) > 0.0, 1.0, -1.0)
    down = order < rows.size
    flip_rows = rows[order % rows.size]
    flips = np.where(down, -2.0, 2.0)[:, None] * cols[flip_rows]
    before = np.zeros((theta.size + 1, cols.shape[1]))
    np.cumsum(flips, axis=0, out=before[1:])
    before += s0 @ cols
    starts = np.flatnonzero(np.diff(theta, prepend=-math.inf) > arc_merge)
    ends = np.append(starts[1:], theta.size) - 1
    lo = np.append(theta[-1] - 2.0 * math.pi, theta[ends[:-1]])
    hi = theta[starts]
    arc_sums = before[starts]
    n_down = np.concatenate([[0], np.cumsum(down)])
    downs = n_down[ends + 1] - n_down[starts]
    mixed = (downs > 0) & (downs < ends + 1 - starts)
    if not mixed.any():
        return lo, hi, arc_sums, np.empty((0, 2)), np.empty((0, cols.shape[1]))
    down_sums = np.zeros_like(before)
    np.cumsum(np.where(down[:, None], flips, 0.0), axis=0, out=down_sums[1:])
    at, last = starts[mixed], ends[mixed] + 1
    point_sums = before[at] + down_sums[last] - down_sums[at]
    lead = b[flip_rows[at]]
    point_z = np.where(down[at, None], 1.0, -1.0) * np.stack([-lead[:, 1], lead[:, 0]], axis=1)
    point_z /= np.hypot(lead[:, 0], lead[:, 1])[:, None]
    return lo, hi, arc_sums, point_z, point_sums


def _signs_at(b, t):
    """sign(b z) at z = (cos t, sin t), with sign(0) = -1."""
    return np.where(b @ np.array([math.cos(t), math.sin(t)]) > 0.0, 1.0, -1.0)


def _golden_max(f, lo, hi, iters=60):
    """Max of a unimodal scalar f on [lo, hi] by golden-section search,
    the two ends included."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
    return max(fc, fd, f(lo), f(hi))


def k1_exact_norm_deviation(phi, calibration):
    """Max over unit u with at most 2 nonzeros of |(1/M)||phi u||_1 - nu|.

    For each support and each arc between breakpoints, the signs are read
    at the arc's midpoint; on the arc (1/M)||phi_S z||_1 = A cos t + B sin t,
    which is concave there, so a golden-section search gives its maximum
    and the ends give its minimum."""
    phi = np.asarray(phi, dtype=float)
    m, n = phi.shape
    best = 0.0
    for su in combinations(range(n), 2):
        b = phi[:, list(su)]
        for lo, hi in _circle_arcs_k1(b):
            s = _signs_at(b, 0.5 * (lo + hi))
            a_coef, b_coef = float(s @ b[:, 0]) / m, float(s @ b[:, 1]) / m

            def f(t):
                return a_coef * math.cos(t) + b_coef * math.sin(t)

            best = max(best, _golden_max(f, lo, hi) - calibration,
                       calibration - min(f(lo), f(hi)))
    return best


def k1_exact_cross_deviation(phi):
    """Max of |(1/M) <sign(phi u), phi_j>| over unit u on a 2-dim support
    and an index j outside it (k = 1, disjoint pairs): the signs are
    constant on each arc, so reading them at every arc's midpoint covers
    every value."""
    phi = np.asarray(phi, dtype=float)
    m, n = phi.shape
    best = 0.0
    for su in combinations(range(n), 2):
        b = phi[:, list(su)]
        others = phi[:, [j for j in range(n) if j not in su]]
        for lo, hi in _circle_arcs_k1(b):
            s = _signs_at(b, 0.5 * (lo + hi))
            best = max(best, float(np.max(np.abs(s @ others))) / m)
    return best


def box_muller_normals(bitgen, n):
    """n standard normals from a numpy Philox bit generator, drawing
    the radius uniforms and the angle uniforms with two separate calls
    of ceil(n/2) raw 64-bit words each (53-bit uniforms)."""
    half = (n + 1) // 2
    u1 = (bitgen.random_raw(half) >> np.uint64(11)) * 2.0**-53
    u2 = (bitgen.random_raw(half) >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * math.pi) * u2
    out = np.empty(2 * half)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def ascend_sphere_scalar(bsub, nu, z0, direction, steps):
    """One hill climb of direction * ((1/M)||B z||_1 - nu) over the unit
    sphere from z0: a normalised projected-gradient step of size eta,
    kept (eta grows by 1.3, at most 1) when the objective improves and
    retried at half the size otherwise; stops when the projected
    gradient vanishes or eta drops below 1e-9.
    Returns (unit z, |objective|, objective evaluations)."""
    m = bsub.shape[0]
    z = z0 / math.sqrt(float(z0 @ z0))
    val = float(np.sum(np.abs(bsub @ z))) / m - nu
    eta, evals = 0.5, 1
    for _ in range(steps):
        grad = direction * (bsub.T @ np.sign(bsub @ z)) / m
        grad -= (grad @ z) * z
        gnorm = math.sqrt(float(grad @ grad))
        if gnorm < 1e-14:
            break
        cand = z + (eta / gnorm) * grad
        cand /= math.sqrt(float(cand @ cand))
        cval = float(np.sum(np.abs(bsub @ cand))) / m - nu
        evals += 1
        if direction * cval > direction * val:
            z, val = cand, cval
            eta = min(eta * 1.3, 1.0)
        else:
            eta *= 0.5
            if eta < 1e-9:
                break
    return z, abs(val), evals


def cross_climb_scalar(bu, bv, sel, z0, directions):
    """One random-direction climb of the sign correlation of a support
    pair over unit u = z on S_u, from z0.

    bu = phi[:, S_u], bv = phi[:, S_v], sel[a, b] = 1 where S_v[a] =
    S_u[b].  For a fixed z the best unit v on S_v orthogonal to u is
    c = bv^T sign(bu z) (sign(0) = -1) with u's part on S_v projected
    off (twice), scaled to unit length; its value is ||c|| / M, or none
    when ||c|| < 1e-14.  Step t tries z + eta * directions[t],
    normalised, and keeps it on a strict improvement (eta grows by 1.3,
    at most 1), else halves eta and stops once eta < 1e-9.
    Returns (unit z, value or -inf, unit v or None, evaluations)."""
    m = bu.shape[0]

    def best_v(z):
        c = bv.T @ np.where(bu @ z > 0.0, 1.0, -1.0)
        a = np.zeros(bv.shape[1])
        for row, col in zip(*np.nonzero(sel)):
            a[row] = z[col]
        a_sq = float(a @ a)
        if a_sq > 0.0:
            for _ in range(2):
                c = c - (float(c @ a) / a_sq) * a
        c_norm = math.sqrt(float(c @ c))
        if c_norm < 1e-14:
            return -math.inf, None
        return c_norm / m, c / c_norm

    z = z0 / math.sqrt(float(z0 @ z0))
    val, v = best_v(z)
    eta, evals = 0.5, 1
    for step in directions:
        cand = z + eta * step
        cand /= math.sqrt(float(cand @ cand))
        cval, cv = best_v(cand)
        evals += 1
        if cval > val:
            z, val, v = cand, cval, cv
            eta = min(eta * 1.3, 1.0)
        else:
            eta *= 0.5
            if eta < 1e-9:
                break
    return z, val, v, evals


def simplex_full_tableau(c, a, b, max_pivots=100_000, tol=1e-9, free=None):
    """Dense one-phase simplex on the full tableau [a | I | b], slack
    basis at the origin (b >= 0), Dantzig pricing with exact ties to the
    smallest variable index, minimum-ratio ties (within 1e-9) to the
    largest pivot element.  Every column, the slack identity included,
    is updated at every pivot.  A column marked in `free` (a boolean
    mask over the n columns) has no bound x >= 0: it prices at -|d_j|,
    is negated with its cost (0.0 - t, exact) before it enters when
    d_j > 0, and once basic its row is left out of the ratio test.
    Returns (status, x, objective, pivots, duals); x, objective and duals
    are None when unbounded."""
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    cost = np.concatenate([c, np.zeros(m + 1)])
    basis = np.arange(n, n + m, dtype=np.int64)
    unbounded = np.zeros(n + m, dtype=bool)
    if free is not None:
        unbounded[:n] = free
    locked = np.zeros(m, dtype=bool)
    sign = np.ones(n)
    pivots = 0
    while True:
        pricing = np.where(unbounded, -np.abs(cost[:-1]), cost[:-1])
        negative = np.nonzero(pricing < -tol)[0]
        if negative.size == 0:
            status = "optimal"
            break
        if pivots >= max_pivots:
            status = "pivot-limit"
            break
        enter = int(negative[np.argmin(pricing[negative])])
        if unbounded[enter] and cost[enter] > 0.0:
            tableau[:, enter] = 0.0 - tableau[:, enter]
            cost[enter] = 0.0 - cost[enter]
            sign[enter] = -sign[enter]
        col = tableau[:, enter]
        positive = (col > tol) & ~locked
        if not positive.any():
            return "unbounded", None, None, pivots, None
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
        row = int(ties[np.argmax(col[ties])])
        tableau[row] = tableau[row] / tableau[row, enter]
        factors = tableau[:, enter].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row])
        if cost[enter] != 0.0:
            cost -= cost[enter] * tableau[row]
        tableau[:, enter] = 0.0
        tableau[row, enter] = 1.0
        cost[enter] = 0.0
        basis[row] = enter
        if unbounded[enter]:
            locked[row] = True
        pivots += 1
    full = np.zeros(n + m)
    full[basis] = tableau[:, -1]
    x = full[:n]
    x[sign < 0.0] = -x[sign < 0.0]
    return status, x, float(c @ x), pivots, -cost[n:n + m]
