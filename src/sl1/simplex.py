"""Self-contained dense simplex for LPs of the form

    minimize c @ x   subject to   a @ x <= b,  x >= 0,   with b >= 0.

The origin is then a feasible vertex, so one phase suffices: the solve
starts from the slack basis, and a negative right-hand side is rejected
with ``ValueError``.  An LP with nonnegative costs but a negative
right-hand side can be solved through its dual, which meets this form;
``solver.solve_lp_exact`` does so.

The tableau is the compact (dictionary) one: it stores only the n
nonbasic columns and the right-hand side, m x (n + 1), with a
``nonbasic`` index array beside ``basis``.  The slack identity, and every
basic column with it, is implicit.  A pivot is a Jordan exchange: the
leaving variable takes over the entering variable's slot.  Its
arithmetic is entry for entry that of a full-tableau pivot, so pivots
and results are the same bytes as with the full [a | I | b] tableau.

Dantzig pricing picks the entering variable (most negative reduced
cost, exact ties going to the smallest variable index, not the slot);
the ratio test picks the leaving row, breaking minimum-ratio ties
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


def _pivot(tableau, cost, basis, nonbasic, row, col):
    """Jordan exchange: the variable basic in `row` leaves and takes over
    slot `col` of the entering variable.  The arithmetic matches a full
    tableau pivot entry for entry, where the leaving variable's column
    is the unit vector e_row and the entering one becomes it."""
    piv = tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    tableau[row] /= piv
    tableau -= np.outer(factors, tableau[row])
    entering = cost[col]
    cost[col] = 0.0
    cost -= entering * tableau[row]
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _iterate(tableau, cost, basis, nonbasic, max_pivots):
    """Pivot until optimal/unbounded/limit."""
    pivots = 0
    while True:
        negative = np.nonzero(cost[:-1] < -TOL)[0]
        if negative.size == 0:
            return OPTIMAL, pivots
        if pivots >= max_pivots:
            return PIVOT_LIMIT, pivots
        values = cost[negative]
        tied = negative[values == values.min()]
        enter = int(tied[np.argmin(nonbasic[tied])])
        col = tableau[:, enter]
        positive = col > TOL
        if not positive.any():
            return UNBOUNDED, pivots
        ratios = np.full(tableau.shape[0], np.inf)
        ratios[positive] = tableau[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
        leave = int(ties[np.argmax(col[ties])])
        _pivot(tableau, cost, basis, nonbasic, leave, enter)
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
    # Variables n..n+m-1 are the slacks.  The tableau is built row-major
    # whatever the layout of `a`, since every pivot updates it by rows.
    tableau = np.empty((m, n + 1))
    tableau[:, :n] = a
    tableau[:, n] = b
    cost = np.concatenate([c, [0.0]])
    basis = np.arange(n, n + m, dtype=np.int64)
    nonbasic = np.arange(n, dtype=np.int64)
    status, pivots = _iterate(tableau, cost, basis, nonbasic, max_pivots)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots, None)

    full = np.zeros(n + m)
    full[basis] = tableau[:, -1]
    x = full[:n]
    # Dual of row i is minus the reduced cost of its slack; a basic
    # slack's reduced cost is zero.
    reduced = np.zeros(n + m)
    reduced[nonbasic] = cost[:-1]
    return SimplexResult(status, x, float(c @ x), pivots, -reduced[n:])
