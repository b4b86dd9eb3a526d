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
table free of -0.0), so it enters as a bounded column would.  Once
basic its value may take either sign, so its row is locked: left out of
the ratio test, it never leaves.  A free column therefore enters at
most once, and x reads the negated ones back with their sign.  The
duals do not change with a column's sign.

The table is the compact (dictionary) one: it stores only the n
nonbasic columns and the right-hand side, with the reduced costs as its
last row, (m + 1) x (n + 1), and a ``nonbasic`` index array beside
``basis``.  The slack identity, and every basic column with it, is
implicit.  A pivot is a Jordan exchange: the leaving variable takes over
the entering variable's slot.  Its arithmetic is entry for entry that of
a full-tableau pivot, so pivots and results are the same bytes as with
the full [a | I | b] tableau.

Each pivot's rank-1 update, table -= f r^T, is one BLAS product
((m + 1) x 2) @ (2 x w) into a reused buffer, and it updates the cost
row with the rest.  The factors f, the entering column with its reduced
cost, fill column 0 of the column-major left operand, and the scaled
pivot row r fills row 0 of the right one; their other column and row
stay zero.  Every entry of the product is then f_i * r_j + 0 * 0, the
rounded product fl(f_i * r_j) of the full-tableau update plus an exact
zero, whatever the BLAS's summation order, FMA use or split across
threads: the bytes do not depend on the BLAS thread count.  The product
takes about a quarter of the time of ``np.outer``; the zero second
column and row are there because numpy computes a product with inner
dimension 1 in its own loop, slower still than ``np.outer``.  The BLAS
returns +0.0 where fl(f_i * r_j) is -0.0, which changes t - p only for
t = -0.0, so the table, its cost row included, is built with ``+= 0.0``
and holds no -0.0 (``_pivot`` keeps it so).  A zero's sign, which may
then differ from the full tableau's, reaches no result: pricing and the
ratio test never read it, x comes from rows that have been pivot rows,
and a slack's reduced cost, whose negation is its dual, starts at +0.0
and is only ever subtracted from, in either table.

Besides the product, a pivot copies the entering column once, into the
factor buffer, where the flip negates it and the ratio test reads it
contiguously.  Pricing is two ufuncs and an ``argmin`` (min(d_j, -d_j)
for a free slot, d_j for the others), the ratio test a compare, a masked
division and an ``argmin``; the minimum ratio is +inf when no row bounds
the entering variable, and ties are resolved only when a count finds
one.  Dantzig pricing picks the entering variable (most negative reduced
cost, -|d_j| for a free one, exact ties going to the smallest variable
index, not the slot); the ratio test picks the leaving row among the
unlocked ones, breaking minimum-ratio ties toward the largest pivot
element for stability.  There is no anti-cycling rule: the pivot cap is
the only bound on the loop, so a solve that would cycle ends with
``pivot-limit``.  Intended for small/medium dense problems where an
exact optimum is wanted as a reference.
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

    `factors` ((m + 1) x 2, column-major) holds the entering column in
    column 0 and `pivot_row` (2 x w) the scaled pivot row in row 0; their
    second column and row stay zero.  `ratios` has one entry per row and
    a last one that stays +inf."""

    def __init__(self, table):
        rows, w = table.shape
        self.factors = np.zeros((rows, 2), order="F")
        self.pivot_row = np.zeros((2, w))
        self.product = np.empty((rows, w))
        self.ratios = np.full(rows, np.inf)
        self.positive = np.empty(rows - 1, dtype=bool)
        self.ties = np.empty(rows, dtype=bool)


def _pivot(table, basis, nonbasic, row, col, work):
    """Jordan exchange on the entering column that `work.factors` holds:
    the variable basic in `row` leaves and takes over slot `col` of the
    entering variable.  The arithmetic matches a full tableau pivot entry
    for entry, where the leaving variable's column is the unit vector
    e_row and the entering one becomes it; the cost row's update is that
    of cost -= entering * r.

    Given a table without -0.0 it leaves one without: a subtraction
    never makes -0.0 from other values, and the pivot row's full update
    r_j - 0 * r_j = r_j + 0.0 clears one that a division underflows to."""
    factors, pivot_row, product = work.factors, work.pivot_row, work.product
    piv = factors[row, 0]
    factors[row, 0] = 0.0
    table[:, col] = 0.0
    table[row, col] = 1.0
    prow = table[row]
    prow /= piv
    pivot_row[0] = prow
    np.matmul(factors, pivot_row, out=product)
    table -= product
    prow += 0.0
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _iterate(table, basis, nonbasic, max_pivots, free):
    """Pivot `table` (the reduced costs its last row) until
    optimal/unbounded/limit.  `free` marks the slots that hold nonbasic
    free variables at the start; a slot stops being free when its
    variable enters, and the row it enters is locked out of the ratio
    test.  Returns the status, the pivot count and the variables negated
    on entry."""
    work = _Work(table)
    factors, ratios, positive, ties = work.factors, work.ratios, work.positive, work.ties
    m = table.shape[0] - 1
    column = factors[:, 0]
    entering, row_ratios = column[:m], ratios[:m]
    rhs = table[:m, -1]
    reduced = table[m, :-1]
    negated = []
    if not reduced.size:
        return OPTIMAL, 0, negated
    # pricing is min(d_j, sign_j * d_j): -|d_j| in a free slot, d_j in another
    sign = np.where(free, -1.0, 1.0)
    pricing = np.empty_like(reduced)
    # a row enters the ratio test when its entry exceeds its threshold,
    # which is +inf once the row is locked
    threshold = np.full(m, TOL)
    pivots = 0
    while True:
        np.multiply(reduced, sign, out=pricing)
        np.minimum(pricing, reduced, out=pricing)
        enter = int(pricing.argmin())
        price = pricing[enter]
        if not price < -TOL:
            return OPTIMAL, pivots, negated
        if pivots >= max_pivots:
            return PIVOT_LIMIT, pivots, negated
        if np.count_nonzero(pricing == price) > 1:
            tied = np.flatnonzero(pricing == price)
            enter = int(tied[nonbasic[tied].argmin()])
        column[:] = table[:, enter]
        entering_free = sign[enter] < 0.0
        if entering_free and reduced[enter] > 0.0:
            # x_j -> -x_j: 0.0 - t negates exactly and makes no -0.0
            np.subtract(0.0, column, out=column)
            negated.append(int(nonbasic[enter]))
        np.greater(entering, threshold, out=positive)
        row_ratios.fill(np.inf)
        np.divide(rhs, entering, out=row_ratios, where=positive)
        # the last ratio stays +inf: the minimum is +inf, and the LP
        # unbounded, when no row bounds the entering variable
        leave = int(ratios.argmin())
        best = ratios[leave]
        if best == np.inf:
            return UNBOUNDED, pivots, negated
        np.less_equal(ratios, best + 1e-9 * (1.0 + abs(best)), out=ties)
        if np.count_nonzero(ties) > 1:
            tied = np.flatnonzero(ties)
            leave = int(tied[entering[tied].argmax()])
        _pivot(table, basis, nonbasic, leave, enter, work)
        pivots += 1
        if entering_free:
            # a free basic variable never leaves, so the variable that
            # takes over its slot is not free
            threshold[leave] = np.inf
            sign[enter] = 1.0


def solve_canonical(c, a, b, max_pivots: int = 100_000, free=None) -> SimplexResult:
    """Solve the LP of the module docstring; `free` (a boolean mask over
    the n columns; None for none) marks the variables without the bound
    x >= 0.  The data is copied into the table; the inputs are left
    unchanged."""
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("objective/rhs shapes do not match the constraint matrix")
    # Variables n..n+m-1 are the slacks, basic at the origin, where the
    # reduced costs are c.  The table is row-major whatever the layout of
    # `a`, since every pivot updates it by rows.
    table = np.zeros((m + 1, n + 1))
    table[:m, :n] = a
    table[:m, n] = b
    table[m, :n] = c
    if not np.isfinite(table).all():
        raise ValueError("LP data must be finite")
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative (the origin must be feasible)")
    free = np.zeros(n, dtype=bool) if free is None else np.array(free, dtype=bool)
    if free.shape != (n,):
        raise ValueError("free mask must have one entry per column")

    # the objective reads c as given, -0.0 and all; the table holds no
    # -0.0 (see ``_pivot``)
    table += 0.0
    basis = np.arange(n, n + m, dtype=np.int64)
    nonbasic = np.arange(n, dtype=np.int64)
    status, pivots, negated = _iterate(table, basis, nonbasic, max_pivots, free)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots, None)

    full = np.zeros(n + m)
    full[basis] = table[:m, -1]
    x = full[:n]
    x[negated] = -x[negated]
    # Dual of row i is minus the reduced cost of its slack; a basic
    # slack's reduced cost is zero.  Negating a column changes no dual.
    reduced = np.zeros(n + m)
    reduced[nonbasic] = table[m, :-1]
    return SimplexResult(status, x, float(c @ x), pivots, -reduced[n:])
