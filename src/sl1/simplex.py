"""Self-contained dense two-phase simplex for LPs of the form

    minimize c @ x   subject to   a @ x <= b,  x >= 0.

Dantzig pricing picks the entering column (most negative reduced
cost); the ratio test picks the leaving row, breaking minimum-ratio ties
toward the largest pivot element for stability.  There is no
anti-cycling rule: the pivot cap is the only bound on the loop, so a
solve that would cycle ends with ``pivot-limit``.  Intended for
small/medium dense problems where an exact optimum is wanted as a
reference.
"""

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
PIVOT_LIMIT = "pivot-limit"

TOL = 1e-9


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    pivots: int
    duals: np.ndarray | None


def _pivot(tableau, cost, basis, row, col):
    tableau[row] = tableau[row] / tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    if cost[col] != 0.0:
        cost -= cost[col] * tableau[row]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    cost[col] = 0.0
    basis[row] = col


def _iterate(tableau, cost, basis, allowed, max_pivots, pivots):
    """Pivot until optimal/unbounded/limit."""
    while True:
        negative = np.nonzero(cost[:allowed] < -TOL)[0]
        if negative.size == 0:
            return OPTIMAL, pivots
        if pivots >= max_pivots:
            return PIVOT_LIMIT, pivots
        enter = int(negative[np.argmin(cost[negative])])
        col = tableau[:, enter]
        positive = col > TOL
        if not positive.any():
            return UNBOUNDED, pivots
        ratios = np.full(tableau.shape[0], np.inf)
        ratios[positive] = tableau[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
        leave = int(ties[np.argmax(col[ties])])
        _pivot(tableau, cost, basis, leave, enter)
        pivots += 1


def solve_canonical(c, a, b, max_pivots: int = 100_000) -> SimplexResult:
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("objective/rhs shapes do not match the constraint matrix")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")

    body = np.hstack([a, np.eye(m)])
    rhs = b.astype(np.float64).copy()
    negative_rows = np.nonzero(rhs < 0)[0]
    body[negative_rows] *= -1.0
    rhs[negative_rows] *= -1.0

    n_slack = n + m
    n_art = negative_rows.size
    tableau = np.zeros((m, n_slack + n_art + 1))
    tableau[:, :n_slack] = body
    tableau[:, -1] = rhs
    basis = np.arange(n, n_slack, dtype=np.int64)
    for j, i in enumerate(negative_rows):
        col = n_slack + j
        tableau[i, col] = 1.0
        basis[i] = col

    pivots = 0
    keep_rows = np.arange(m)
    if n_art:
        cost1 = np.zeros(n_slack + n_art + 1)
        cost1[n_slack:n_slack + n_art] = 1.0
        for i in negative_rows:
            cost1 -= tableau[i]
        status, pivots = _iterate(tableau, cost1, basis, n_slack + n_art, max_pivots, pivots)
        if status == PIVOT_LIMIT:
            return SimplexResult(PIVOT_LIMIT, None, None, pivots, None)
        artificial = basis >= n_slack
        phase1_obj = float(tableau[artificial, -1].sum()) if artificial.any() else 0.0
        if phase1_obj > TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            return SimplexResult(INFEASIBLE, None, None, pivots, None)
        # Drive leftover (zero-valued) artificials out of the basis;
        # a row with no usable pivot is redundant and gets dropped.
        drop = []
        for i in np.nonzero(basis >= n_slack)[0]:
            row = tableau[i, :n_slack]
            candidates = np.nonzero(np.abs(row) > TOL)[0]
            if candidates.size:
                _pivot(tableau, cost1, basis, int(i), int(candidates[0]))
                pivots += 1
            else:
                drop.append(int(i))
        if drop:
            keep = np.setdiff1d(np.arange(m), np.array(drop, dtype=int))
            tableau = tableau[keep]
            basis = basis[keep]
            keep_rows = keep_rows[keep]
        tableau = np.hstack([tableau[:, :n_slack], tableau[:, -1:]])

    cost2 = np.zeros(n_slack + 1)
    cost2[:n] = c
    for i in range(basis.size):
        if cost2[basis[i]] != 0.0:
            cost2 -= cost2[basis[i]] * tableau[i]
    status, pivots = _iterate(tableau, cost2, basis, n_slack, max_pivots, pivots)

    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots, None)

    full = np.zeros(n_slack)
    full[basis] = tableau[:, -1]
    x = full[:n]
    objective = float(c @ x)
    # Dual of original row i is minus the reduced cost of its slack
    # column (the sign flips applied above cancel out).
    duals = np.zeros(m)
    duals[keep_rows] = -cost2[n + keep_rows]
    return SimplexResult(status, x, objective, pivots, duals)
