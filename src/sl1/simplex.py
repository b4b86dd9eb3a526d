"""Self-contained dense simplex for LPs of the form

    minimize c @ x   subject to   a @ x <= b,  x >= 0,   with b >= 0.

The origin is then a feasible vertex, so one phase suffices: the solve
starts from the slack basis, and a negative right-hand side is rejected
with ``ValueError``.  An LP with nonnegative costs but a negative
right-hand side can be solved through its dual, which meets this form;
``solver.solve_lp_exact`` does so.

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


def _iterate(tableau, cost, basis, max_pivots):
    """Pivot until optimal/unbounded/limit."""
    pivots = 0
    while True:
        negative = np.nonzero(cost[:-1] < -TOL)[0]
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
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative (the origin must be feasible)")

    # Start from the slack basis at the origin; its reduced costs are c.
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    cost = np.concatenate([c, np.zeros(m + 1)])
    basis = np.arange(n, n + m, dtype=np.int64)
    status, pivots = _iterate(tableau, cost, basis, max_pivots)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots, None)

    full = np.zeros(n + m)
    full[basis] = tableau[:, -1]
    x = full[:n]
    # Dual of row i is minus the reduced cost of its slack column.
    return SimplexResult(status, x, float(c @ x), pivots, -cost[n:n + m])
