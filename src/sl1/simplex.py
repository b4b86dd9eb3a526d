"""Self-contained dense simplex for LPs of the form

    minimize c @ x   subject to   a @ x <= b,  x_j >= 0 unless j is free,
    with b >= 0.

The origin is then a feasible vertex, so one phase suffices: the solve
starts from the slack basis, and a negative right-hand side is rejected
with ``ValueError``.  An LP with nonnegative costs but a negative
right-hand side can be solved through its dual, which meets this form;
``solver.solve_lp_exact`` does so, with the dual's residual multiplier
as free columns.

A free column (the ``free`` mask of ``solve_canonical``) is no split
pair x+ - x-: while nonbasic it prices at -|d_j|, and one with d_j > 0
is negated before it enters (x_j -> -x_j, exact; 0.0 - t keeps the
tableau free of -0.0), so it enters as a bounded column would.  Once
basic its value may take either sign, so its row is locked: left out of
the ratio test, it never leaves.  A free column therefore enters at
most once, and x reads the negated ones back with their sign.  The
duals do not change with a column's sign.

The tableau is the compact (dictionary) one: it stores only the n
nonbasic columns and the right-hand side, m x (n + 1), with a
``nonbasic`` index array beside ``basis``.  The slack identity, and every
basic column with it, is implicit.  A pivot is a Jordan exchange: the
leaving variable takes over the entering variable's slot.  Its
arithmetic is entry for entry that of a full-tableau pivot, so pivots
and results are the same bytes as with the full [a | I | b] tableau.

Each pivot's rank-1 update, tableau -= f r^T, is one BLAS product
(m x 2) @ (2 x w) into a reused buffer.  The factors f fill column 0 of
the left operand and the scaled pivot row r fills row 0 of the right
one; their other column and row stay zero.  Every entry of the product
is then f_i * r_j + 0 * 0, the rounded product fl(f_i * r_j) of the
full-tableau update plus an exact zero, whatever the BLAS's summation
order, FMA use or split across threads: the bytes do not depend on the
BLAS thread count.  The product takes about a quarter of the time of
``np.outer``; the zero second column and row are there because numpy
computes a product with inner dimension 1 in its own loop, slower still
than ``np.outer``.  The BLAS returns +0.0 where fl(f_i * r_j) is -0.0,
which changes t - p only for t = -0.0, so the tableau is built with
``+= 0.0`` and holds no -0.0 (``_pivot`` keeps it so).  A zero's sign,
which may then differ from the full tableau's, reaches no result:
pricing and the ratio test never read it, x comes from rows that have
been pivot rows, and the cost row is updated from the pivot row alone.

Dantzig pricing picks the entering variable (most negative reduced
cost, -|d_j| for a free one, exact ties going to the smallest variable
index, not the slot); the ratio test picks the leaving row among the
unlocked ones, breaking minimum-ratio ties toward the largest pivot
element for stability.  There is no
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


class _Work:
    """Buffers reused by every pivot of one solve.

    `factors` (m x 2) holds the pivot column in column 0 and `pivot_row`
    (2 x w) the scaled pivot row in row 0; their second column and row
    stay zero."""

    def __init__(self, tableau):
        m, w = tableau.shape
        self.factors = np.zeros((m, 2))
        self.pivot_row = np.zeros((2, w))
        self.product = np.empty((m, w))
        self.ratios = np.empty(m)
        self.positive = np.empty(m, dtype=bool)


def _pivot(tableau, cost, basis, nonbasic, row, col, work):
    """Jordan exchange: the variable basic in `row` leaves and takes over
    slot `col` of the entering variable.  The arithmetic matches a full
    tableau pivot entry for entry, where the leaving variable's column
    is the unit vector e_row and the entering one becomes it.

    Given a tableau without -0.0 it leaves one without: a subtraction
    never makes -0.0 from other values, and the pivot row's full update
    r_j - 0 * r_j = r_j + 0.0 clears one that a division underflows to."""
    factors, pivot_row, product = work.factors, work.pivot_row, work.product
    piv = tableau[row, col]
    factors[:, 0] = tableau[:, col]
    factors[row, 0] = 0.0
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    prow = tableau[row]
    prow /= piv
    pivot_row[0] = prow
    np.matmul(factors, pivot_row, out=product)
    tableau -= product
    prow += 0.0
    entering = cost[col]
    cost[col] = 0.0
    cost -= entering * prow
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _iterate(tableau, cost, basis, nonbasic, max_pivots, free):
    """Pivot until optimal/unbounded/limit.  `free` marks the slots that
    hold nonbasic free variables; it is cleared as they enter, and the
    rows they enter are locked out of the ratio test.  Returns the
    status, the pivot count and the variables negated on entry."""
    work = _Work(tableau)
    ratios, positive = work.ratios, work.positive
    rhs = tableau[:, -1]
    reduced = cost[:-1]
    pricing = np.empty_like(reduced)
    locked = np.zeros(rhs.size, dtype=bool)
    negated = []
    pivots = 0
    while True:
        np.copyto(pricing, reduced)
        pricing[free] = -np.abs(reduced[free])
        negative = np.nonzero(pricing < -TOL)[0]
        if negative.size == 0:
            return OPTIMAL, pivots, negated
        if pivots >= max_pivots:
            return PIVOT_LIMIT, pivots, negated
        values = pricing[negative]
        tied = negative[values == values.min()]
        enter = int(tied[0] if tied.size == 1 else tied[np.argmin(nonbasic[tied])])
        col = tableau[:, enter]
        entering_free = free[enter]
        if entering_free and reduced[enter] > 0.0:
            # x_j -> -x_j: 0.0 - t negates exactly and makes no -0.0
            np.subtract(0.0, col, out=col)
            reduced[enter] = -reduced[enter]
            negated.append(int(nonbasic[enter]))
        np.greater(col, TOL, out=positive)
        positive &= ~locked
        if not positive.any():
            return UNBOUNDED, pivots, negated
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=positive)
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
        leave = int(ties[0] if ties.size == 1 else ties[np.argmax(col[ties])])
        _pivot(tableau, cost, basis, nonbasic, leave, enter, work)
        pivots += 1
        if entering_free:
            # a free basic variable never leaves, so the variable that
            # takes over its slot is not free
            locked[leave] = True
            free[enter] = False


def solve_canonical(c, a, b, max_pivots: int = 100_000, free=None) -> SimplexResult:
    """Solve the LP of the module docstring; `free` (a boolean mask over
    the n columns; None for none) marks the variables without the bound
    x >= 0."""
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
    free = np.zeros(n, dtype=bool) if free is None else np.array(free, dtype=bool)
    if free.shape != (n,):
        raise ValueError("free mask must have one entry per column")

    # Start from the slack basis at the origin; its reduced costs are c.
    # Variables n..n+m-1 are the slacks.  The tableau is built row-major
    # whatever the layout of `a`, since every pivot updates it by rows,
    # and with every -0.0 of `a` and `b` made +0.0 (see ``_pivot``).
    tableau = np.empty((m, n + 1))
    tableau[:, :n] = a
    tableau[:, n] = b
    tableau += 0.0
    cost = np.concatenate([c, [0.0]])
    basis = np.arange(n, n + m, dtype=np.int64)
    nonbasic = np.arange(n, dtype=np.int64)
    status, pivots, negated = _iterate(tableau, cost, basis, nonbasic, max_pivots, free)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots, None)

    full = np.zeros(n + m)
    full[basis] = tableau[:, -1]
    x = full[:n]
    x[negated] = -x[negated]
    # Dual of row i is minus the reduced cost of its slack; a basic
    # slack's reduced cost is zero.  Negating a column changes no dual.
    reduced = np.zeros(n + m)
    reduced[nonbasic] = cost[:-1]
    return SimplexResult(status, x, float(c @ x), pivots, -reduced[n:])
