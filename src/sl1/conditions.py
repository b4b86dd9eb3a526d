"""Deviation constants of the l1 sketch and their empirical estimation.

For a Gaussian sensing matrix, (1/M)||phi @ u||_1 concentrates around
sqrt(2/pi) * ||u||_2 on sparse vectors, and the sign-correlation
(1/M) <sign(phi @ u), phi @ v> concentrates around 0 on orthogonal
sparse pairs.  This module evaluates both single-vector deviations,
searches for worst cases over sparse supports (reporting certified
lower bounds with re-checkable witnesses), decides the recovery
condition  norm_dev + cross_dev <= sqrt(2/pi) - 1/2,  and exposes the
sample-complexity and concentration-probability formulas

    M >= C * delta**-6 * K * log(2N/K),     1 - 8 * exp(-c * delta**2 * M),

whose constants C and c are universal but unspecified; callers must
supply their own values (the defaults C = c = 1 are placeholders, not
calibrated).

True worst-case deviations are NP-hard to certify in general: the
searches below enumerate supports exhaustively only at small scale.  At
k = 1 the per-support maximization is exact: u lives on a circle, whose
sign patterns change only at the 2M breakpoints where a row of phi_S u
vanishes, and the searches enumerate the arcs between them in closed
form, so an exhaustive "satisfied" verdict at k = 1 is a proof.  At
k >= 2 the per-support maximization is a multi-start ascent heuristic,
and "satisfied" certifies the support enumeration with that caveat.
There every (support or pair, start) climbs as a lane of one batched
ascent (_ascend), BLOCK items at a time.  The lanes keep their
coordinates on the leading axis of (coordinate, item, lane) arrays, and
the norm search writes |phi_S z| to a (row, item, lane) buffer, so every
sum over a lane's coordinates or rows runs along a leading axis, adding
in the order one lane alone would.  At k = 1 one arc sweep
(_circle_arcs) serves a block of supports: their breakpoints are
sorted, rolled and summed along the rows of (support, breakpoint)
arrays, and only each support's two small products (its signs at the
sweep's start and their sums) run one support at a time.
"""

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .generators import gen_gaussian_matrix
from .rng import RngSpec, Stream

VERDICT_SATISFIED = "satisfied"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"


def half_normal_mean() -> float:
    """E|g| for standard normal g: sqrt(2/pi), the sketch calibration."""
    return math.sqrt(2.0 / math.pi)


def l1_norm_deviation(phi, u) -> float:
    """Relative deviation of the l1 sketch on a single vector:
    |(1/M)||phi u||_1 - nu ||u||_2| / ||u||_2 with nu = sqrt(2/pi)."""
    phi = core.as_matrix(phi, "phi")
    u = core.as_vector(u, "u")
    if u.size != phi.shape[1]:
        raise ValueError("u length does not match phi columns")
    u_norm = core.norm_lp(u, 2)
    if u_norm == 0.0:
        raise ValueError("u must be nonzero")
    sketch = float(np.sum(np.abs(phi @ u))) / phi.shape[0]
    return abs(sketch - half_normal_mean() * u_norm) / u_norm


def sign_cross_deviation(phi, u, v) -> float:
    """|(1/M) <sign_vec(phi u), phi v>| / ||v||_2 on an orthogonal pair.

    Uses the sign(0) = -1 convention of core.sign_vec.  Raises unless
    |<u, v>| <= 1e-12 ||u|| ||v||.
    """
    phi = core.as_matrix(phi, "phi")
    u = core.as_vector(u, "u")
    v = core.as_vector(v, "v")
    if u.size != phi.shape[1] or v.size != phi.shape[1]:
        raise ValueError("u/v length does not match phi columns")
    u_norm = core.norm_lp(u, 2)
    v_norm = core.norm_lp(v, 2)
    if u_norm == 0.0 or v_norm == 0.0:
        raise ValueError("u and v must be nonzero")
    if abs(float(u @ v)) > 1e-12 * u_norm * v_norm:
        raise ValueError("u and v must be orthogonal (within 1e-12 relative)")
    signs = core.sign_vec(phi @ u)
    return abs(float(signs @ (phi @ v))) / phi.shape[0] / v_norm


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the worst-case deviation searches."""

    supports: int = 64            # sampled mode: supports tried for the norm bound
    pairs: int = 128              # sampled mode: support pairs tried for the cross bound
    starts: int = 6               # random restarts per support / pair
    steps: int = 40               # ascent steps per restart
    exhaustive_cap: int = 10_000  # enumerate supports when the count fits
    overlap_share: float = 0.5    # fraction of sampled pairs with overlapping supports

    def __post_init__(self):
        counts = (self.supports, self.pairs, self.starts, self.steps, self.exhaustive_cap)
        if min(counts) < 0:
            raise ValueError("search budget counts must be nonnegative")
        if not 0.0 <= self.overlap_share <= 1.0:
            raise ValueError(f"overlap_share must lie in [0, 1], got {self.overlap_share}")

    def engaged(self) -> bool:
        return self.starts >= 1 and (self.supports >= 1 or self.pairs >= 1)


@dataclass
class DeviationWitness:
    """(support, coefficients) certificate that re-evaluates to the bound."""

    value: float
    u_indices: list
    u_coeffs: list
    v_indices: list = None
    v_coeffs: list = None

    def u_vector(self, n: int) -> np.ndarray:
        return core.embed(self.u_coeffs, self.u_indices, n)

    def v_vector(self, n: int) -> np.ndarray:
        return core.embed(self.v_coeffs, self.v_indices, n)

    def as_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass
class SearchPart:
    """Outcome of one deviation search (norm or cross)."""

    value: float
    witness: DeviationWitness | None
    samples: int      # objective evaluations spent
    visited: int      # supports or pairs examined
    total: int | None  # combinatorial total in exhaustive mode
    exhaustive: bool
    families: dict | None = None  # cross search: pairs per sampling family


# Items (supports or pairs) climbed per batch: it bounds the batch
# arrays whatever the enumeration size, and no result depends on it.
BLOCK = 64
# Floats per array of one k = 1 arc sweep (supports x 2M breakpoints x
# columns summed): at most BLOCK supports, fewer where M or the columns
# are large, which keeps the sweep's arrays small; no result depends on it.
SWEEP_FLOATS = 1 << 15


def _blocks(items, size=None):
    items = iter(items)
    while block := list(itertools.islice(items, size or BLOCK)):
        yield block


def _sweep_size(m, cols):
    """Supports per k = 1 sweep of M rows and `cols` summed columns."""
    return max(1, min(BLOCK, SWEEP_FLOATS // (2 * m * cols)))


def _stacked(phi, sets):
    """phi[:, sets[i]] for every row i of sets, as one (items, M, width)
    array whose slices share phi[:, S]'s column-major layout."""
    return phi.T[sets].transpose(0, 2, 1)


def _unit(z):
    """z scaled to unit norm over its leading (coordinate) axis."""
    return z / np.sqrt(np.sum(z * z, axis=0))


def _ascend(objective, propose, z, steps):
    """Hill-climb every lane z[:, i, j] over the unit sphere at once.

    z is laid out (coordinate, item, lane), so each sum over a lane's
    coordinates runs along the leading axis.  objective(z) -> score and
    propose(t, z, eta) -> (step t's candidates, lanes that can still
    move).  A lane keeps a candidate only if its score rises strictly
    (eta grows by 1.3, to at most 1), else halves eta; it stops when it
    cannot move or eta < 1e-9.  A start with squared norm below 1e-24
    becomes all ones.
    Returns (z, score, evaluations) per lane."""
    z = _unit(np.where(np.sum(z * z, axis=0) >= 1e-24, z, 1.0))
    val = objective(z)
    eta = np.full(val.shape, 0.5)
    evals = np.ones(val.shape, dtype=np.int64)
    live = np.ones(val.shape, dtype=bool)
    for t in range(steps):
        cand, movable = propose(t, z, eta)
        live &= movable
        if not live.any():
            break
        cval = objective(cand)
        evals += live
        up = live & (cval > val)
        down = live & ~up
        z = np.where(up, cand, z)
        val = np.where(up, cval, val)
        eta = np.where(up, np.minimum(eta * 1.3, 1.0), np.where(down, eta * 0.5, eta))
        live &= ~(down & (eta < 1e-9))
    return z, val, evals


def _coordinates_first(z):
    """An (item, coordinate, lane) array as a (coordinate, item, lane) one."""
    return np.ascontiguousarray(z.transpose(1, 0, 2))


def _norm_lanes(b, nu, z0, directions, steps):
    """Climb directions[j] * ((1/M)||b[i] z||_1 - nu), b[i] = phi[:, S_i],
    from every start z0[i, :, j] by normalised projected-gradient steps.
    The objective writes |b @ z| to a (row, item, lane) buffer, so its
    sum over the M rows runs along the leading axis, in row order;
    propose recomputes b @ z rather than carrying it from step to step,
    and takes its signs into the same buffer, laid out by item.
    Returns (z, |objective|, evaluations) per lane, z as (item,
    coordinate, lane)."""
    items, m, width = b.shape
    work = np.empty(items * m * z0.shape[2])
    rows_first = work.reshape(m, items, -1)  # |b z|
    signs = work.reshape(items, m, -1)       # sign(b z)
    bz = np.empty_like(signs)
    slope = np.empty((width, items, z0.shape[2]))  # b^T sign(b z)

    def objective(z):
        np.matmul(b, z.transpose(1, 0, 2), out=rows_first.transpose(1, 0, 2))
        return directions * (np.abs(rows_first, out=rows_first).sum(axis=0) / m - nu)

    def propose(t, z, eta):
        # out of place: np.sign in place takes several times as long
        np.sign(np.matmul(b, z.transpose(1, 0, 2), out=bz), out=signs)
        np.matmul(b.transpose(0, 2, 1), signs, out=slope.transpose(1, 0, 2))
        grad = directions * slope / m
        grad -= np.sum(grad * z, axis=0) * z
        gnorm = np.sqrt(np.sum(grad * grad, axis=0))
        movable = gnorm >= 1e-14
        return _unit(z + eta / np.where(movable, gnorm, 1.0) * grad), movable

    z, score, evals = _ascend(objective, propose, _coordinates_first(z0), steps)
    return z.transpose(1, 0, 2), np.abs(score), evals


def _cross_lanes(bu, bv, sel, z0, directions):
    """Climb pair i's sign correlation from every start z0[i, :, j], step
    t trying z + eta * directions[i, t, :, j].  bu[i] = phi[:, S_u],
    bv[i] = phi[:, S_v], and sel[i, a, b] = 1 where S_v[a] = S_u[b].  For
    unit u = z on S_u the best unit v on S_v orthogonal to u is
    phi_Sv^T sign(phi_Su z) (sign(0) = -1) projected off u's part on
    S_v, worth its norm / M; the climb scores that norm, and v itself is
    formed once, at the lanes' final z.  Returns (z, value, unit v,
    evaluations) per lane, z and v as (item, coordinate, lane); value
    -inf marks a lane whose vector vanished (no witness)."""
    items, m, _ = bu.shape
    work = np.empty((items, m, z0.shape[2]))
    positive = np.empty(work.shape, dtype=bool)
    corr = np.empty((bv.shape[2], items, z0.shape[2]))  # phi_Sv^T sign(phi_Su z)
    a = np.empty_like(corr)                             # u's part on S_v
    step = np.empty((z0.shape[1],) + corr.shape[1:])
    bvt = bv.transpose(0, 2, 1)

    def project(z):
        signs = np.matmul(bu, z.transpose(1, 0, 2), out=work)
        np.multiply(np.greater(signs, 0.0, out=positive), 2.0, out=signs)
        signs -= 1.0  # sign(bu z), sign(0) = -1
        np.matmul(bvt, signs, out=corr.transpose(1, 0, 2))
        np.matmul(sel, z.transpose(1, 0, 2), out=a.transpose(1, 0, 2))
        a_sq = np.sum(a * a, axis=0)
        a_sq[a_sq == 0.0] = 1.0  # a = 0 there: nothing to project off
        c = corr
        for _ in range(2):  # the second pass kills rounding residue
            c = c - (np.sum(c * a, axis=0) / a_sq) * a
        return c, np.sqrt(np.sum(c * c, axis=0))

    def objective(z):
        c_norm = project(z)[1]
        return np.where(c_norm >= 1e-14, c_norm / m, -math.inf)

    def propose(t, z, eta):
        np.multiply(eta, directions[:, t].transpose(1, 0, 2), out=step)
        return _unit(np.add(z, step, out=step)), True

    z, val, evals = _ascend(objective, propose, _coordinates_first(z0), directions.shape[1])
    c, c_norm = project(z)
    v = c / np.where(c_norm >= 1e-14, c_norm, 1.0)
    return z.transpose(1, 0, 2), val, v.transpose(1, 0, 2), evals


def _search(blocks, climb):
    """Climb every block of items in order; the first maximum wins.

    climb(block) -> (values, evals, pick): values is an (items, lanes)
    array in item and lane order, -inf for a lane without a witness,
    and pick(i, j) gives item i's lane-j candidate.
    Returns (best candidate or None, evals, items visited)."""
    best_val, best, evals, visited = -math.inf, None, 0, 0
    for block in blocks:
        vals, used, pick = climb(block)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j] > best_val:
            best_val, best = vals[i, j], pick(i, j)
        evals += int(used)
        visited += len(block)
    return best, evals, visited


# Breakpoints closer than this (radians) count as one: no float witness
# lands reliably inside a narrower arc, and rounding cannot tell two such
# breakpoints from one.  A sign pattern that holds only on a narrower arc
# is the one case the k = 1 enumeration does not see.
ARC_MERGE = 1e-12


def _circle_arcs(b, cols):
    """Sign patterns s = sign(b[i] z) over the unit circle z = (cos t, sin t)
    for every M x 2 block b[i] = phi[:, S_i] of an (items, M, 2) stack,
    and the sums s @ cols[i] on each, for all items in one sweep.

    Row r with b_r != 0 turns from + to - (counterclockwise) at
    atan2(b_r) + pi/2 and from - to + at atan2(b_r) - pi/2; a zero row
    keeps sign(0) = -1 all round.  An item's signs are read once, in the
    middle of its widest gap, and one cumsum of the flips
    -2 * old_sign * cols[i, r] in sweep order gives the sums on every
    arc: O(items * M * cols) memory.  Breakpoints within ARC_MERGE merge.
    Where rows turning both ways meet at one breakpoint (rows of opposite
    signs along one line), that breakpoint carries a pattern of its own,
    with each of those rows at sign(0) = -1; such points come back too,
    each with a unit z at which its leading row vanishes.  Two products
    per item (b[i] @ z at the start, s @ cols[i]) run one item at a time.

    Item i's 2 M_i breakpoints (M_i its nonzero rows) take slots 0 ..
    2 M_i - 1 of its row in sweep order.  Returns (lo, hi, arc, sums,
    points, point_z, point_sums): arc[i, p] marks the slots that open an
    arc (lo[i, p], hi[i, p]), lo < hi <= lo + 2 pi, with sums sums[i, p];
    an item without a nonzero row has the one arc (0, 2 pi) in slot 0.
    points[q] is the item of breakpoint pattern q, listed item by item in
    sweep order, with its unit z point_z[q] and sums point_sums[q].
    """
    items, m, _ = b.shape
    slots = 2 * m
    pos = np.arange(slots)
    rows = np.arange(items)
    nonzero = (b[..., 0] != 0.0) | (b[..., 1] != 0.0)
    count = 2 * np.count_nonzero(nonzero, axis=1)
    last = np.maximum(count - 1, 0)
    valid = pos < count[:, None]
    alpha = np.arctan2(b[..., 1], b[..., 0])
    theta = np.concatenate([alpha + 0.5 * math.pi, alpha - 0.5 * math.pi], axis=1)
    # zero rows sort last, each at a value of its own
    unsorted = np.where(np.concatenate([nonzero, nonzero], axis=1), theta % (2.0 * math.pi),
                        4.0 * math.pi + pos)
    base = slots * rows[:, None]  # row starts in the flattened arrays
    order = np.argsort(unsorted, axis=1)
    theta = np.take(unsorted, order + base)
    tied = np.any(theta[:, 1:] == theta[:, :-1], axis=1)
    if tied.any():  # equal breakpoints keep their row order
        order[tied] = np.argsort(unsorted[tied], axis=1, kind="stable")
    gap = np.empty_like(theta)
    np.subtract(theta[:, 1:], theta[:, :-1], out=gap[:, :-1])
    gap[rows, last] = theta[:, 0] + 2.0 * math.pi - theta[rows, last]
    gap[~valid] = -math.inf
    widest = np.argmax(gap, axis=1)
    # sweep counterclockwise from the middle of the widest gap: slot p
    # takes breakpoint p + widest + 1, one turn on where that wraps
    src = pos + (widest + 1)[:, None]
    wrapped = valid & (src >= count[:, None])
    src = np.where(valid, src - wrapped * count[:, None], pos)
    order, theta = np.take(order, src + base), np.take(theta, src + base)
    theta[wrapped] += 2.0 * math.pi
    t0 = theta[:, 0] - 0.5 * gap[rows, widest]
    down = order < m                    # + to - at this breakpoint
    flip_rows = order % m

    sums0 = np.empty((items, cols.shape[2]))
    for i in range(items):
        if count[i]:
            s0 = (b[i] @ np.array([math.cos(t0[i]), math.sin(t0[i])]) > 0.0) * 2.0 - 1.0
            sums0[i] = s0 @ cols[i]
        else:
            sums0[i] = -np.sum(cols[i], axis=0)
    flips = np.take(np.ascontiguousarray(cols).reshape(items * m, -1),
                    flip_rows + m * rows[:, None], axis=0)
    flips *= (2.0 - 4.0 * down)[..., None]
    before = np.empty((items, slots + 1, cols.shape[2]))
    before[:, 0] = 0.0
    np.cumsum(flips, axis=1, out=before[:, 1:])
    before += sums0[:, None]            # before[i, p]: sums ahead of breakpoint p
    empty = count == 0
    before[empty, 0] = sums0[empty]
    theta[empty, 0] = 2.0 * math.pi

    lo = np.empty_like(theta)
    lo[:, 1:] = theta[:, :-1]
    lo[:, 0] = theta[rows, last] - 2.0 * math.pi
    arc = valid.copy()
    arc[:, 0] = True
    arc[:, 1:] &= np.diff(theta, axis=1) > ARC_MERGE

    # a breakpoint has a pattern of its own where its rows turn both ways
    mixed = np.zeros_like(arc)
    mixed[:, 1:] = valid[:, 1:] & ~arc[:, 1:] & (down[:, 1:] != down[:, :-1])
    if not mixed.any():
        return (lo, theta, arc, before[:, :slots], np.empty(0, dtype=np.int64),
                np.empty((0, 2)), np.empty((0, cols.shape[2])))
    opening = np.maximum.accumulate(np.where(arc, pos, 0), axis=1)
    points, at = np.divmod(np.unique(np.flatnonzero(mixed) // slots * slots
                                     + opening[mixed]), slots)
    # the group opened at slot p runs to the next opening slot
    ahead = np.full((items, slots + 1), slots)
    ahead[:, :-1] = np.where(arc, pos, slots)
    ahead = np.minimum.accumulate(ahead[:, ::-1], axis=1)[:, ::-1]
    end = np.minimum(ahead[points, at + 1], count[points])
    # at the point itself the rows turning down are already at -1, the
    # rows turning up still are
    down_sums = np.zeros_like(before)
    np.cumsum(np.where(down[..., None], flips, 0.0), axis=1, out=down_sums[:, 1:])
    point_sums = before[points, at] + down_sums[points, end] - down_sums[points, at]
    lead = b[points, flip_rows[points, at]]
    point_z = (down[points, at] * 2.0 - 1.0)[:, None] * np.stack([-lead[:, 1], lead[:, 0]], axis=1)
    point_z /= np.hypot(lead[:, 0], lead[:, 1])[:, None]
    return lo, theta, arc, before[:, :slots], points, point_z, point_sums


def _norm_on_arcs(b, nu):
    """Exact max over unit z of |(1/M)||b[i] z||_1 - nu| for every M x 2
    block b[i] of an (items, M, 2) stack.

    On each arc (1/M)||b z||_1 = A cos t + B sin t, so its extremes lie at
    the arc's ends or at the stationary angles atan2(B, A) and + pi.
    Returns (value, angle of the maximiser, arcs evaluated) per block.
    """
    items, m, _ = b.shape
    lo, hi, arc, sums, *_ = _circle_arcs(b, b)
    a_coef, b_coef = sums[..., 0] / m, sums[..., 1] / m
    peak = np.arctan2(b_coef, a_coef)[..., None] + np.array([0.0, math.pi])
    inner = lo[..., None] + (peak - lo[..., None]) % (2.0 * math.pi)
    cos_hi, sin_hi = np.cos(hi), np.sin(hi)
    # an arc's lo is the hi of the arc before it (slot 0's wraps round)
    cos_lo, sin_lo = np.roll(cos_hi, 1, axis=1), np.roll(sin_hi, 1, axis=1)
    cos_lo[:, 0], sin_lo[:, 0] = np.cos(lo[:, 0]), np.sin(lo[:, 0])
    dev = np.full(lo.shape + (4,), -1.0)
    dev[..., 0] = np.abs(a_coef * cos_lo + b_coef * sin_lo - nu)
    dev[..., 1] = np.abs(a_coef * cos_hi + b_coef * sin_hi - nu)
    i, p, c = np.nonzero(inner < hi[..., None])  # stationary angles inside their arc
    dev[i, p, c + 2] = np.abs(a_coef[i, p] * np.cos(inner[i, p, c])
                              + b_coef[i, p] * np.sin(inner[i, p, c]) - nu)
    dev[~arc] = -math.inf
    best = np.argmax(dev.reshape(items, -1), axis=1)
    rows, (p, c) = np.arange(items), np.divmod(best, 4)
    angle = np.where(c == 0, lo[rows, p], np.where(c == 1, hi[rows, p], inner[rows, p, c % 2]))
    return dev[rows, p, c], angle, np.count_nonzero(arc, axis=1)


def _cross_on_arcs(b, cols):
    """For every M x 2 block b[i] and every column c of cols[i], the max of
    |s @ c| / M over the sign patterns s of b[i] z on the circle (arc
    midpoints, then the breakpoints with patterns of their own; the first
    maximum wins).  Returns (value, unit z) per item and column, and the
    patterns per item."""
    items, m, _ = b.shape
    lo, hi, arc, sums, points, point_z, point_sums = _circle_arcs(b, cols)
    vals = np.abs(sums)
    vals /= m
    vals[~arc] = -math.inf
    best = np.argmax(vals, axis=1)
    value = np.take_along_axis(vals, best[:, None], axis=1)[:, 0]
    mid = 0.5 * (np.take_along_axis(lo, best, axis=1) + np.take_along_axis(hi, best, axis=1))
    z = np.stack([np.cos(mid), np.sin(mid)], axis=2)
    point_vals = np.abs(point_sums) / m
    for i in np.unique(points):
        mine = points == i
        top = np.argmax(point_vals[mine], axis=0)
        top_val = np.take_along_axis(point_vals[mine], top[None], axis=0)[0]
        wins = top_val > value[i]
        value[i, wins] = top_val[wins]
        z[i, wins] = point_z[mine][top[wins]]
    return value, z, np.count_nonzero(arc, axis=1) + np.bincount(points, minlength=items)


def _cross_overlap_k1(phi, su, j):
    """At k = 1 with S_v = {j} inside S_u, u must be +-e_i (i the other
    index of S_u): the value is |sign(+-phi_i) . phi_j| / M in closed form.
    Returns (value, u coefficients on S_u)."""
    other = su != j
    col_i = phi[:, su[other][0]]
    plus, minus = (abs(float(((sign * col_i > 0.0) * 2.0 - 1.0) @ phi[:, j])) / phi.shape[0]
                   for sign in (1.0, -1.0))
    return max(plus, minus), np.where(other, 1.0 if plus >= minus else -1.0, 0.0)


def _checked_sparsity(k, n: int) -> int:
    """k as an int, or ValueError unless 1 <= 2k <= n."""
    k = int(k)
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= 2k <= n, got k={k}, n={n}")
    return k


def estimate_norm_deviation(phi, k: int, budget: SearchBudget, rng: RngSpec) -> SearchPart:
    """Lower bound on the worst norm deviation over vectors with at
    most 2k nonzeros, by support enumeration (when the count fits the
    budget cap) or sampled supports, drawn in order on one stream,
    rng.child(0).  At 2k = 2 each support is maximized exactly over its
    arcs (_norm_on_arcs) and no start vectors are drawn.  At 2k >= 4 each
    support's `starts` start vectors follow it on the stream, and the
    2 * starts ascents of every support (up and down from each start)
    climb as lanes of one batch."""
    phi = core.as_matrix(phi, "phi")
    m, n = phi.shape
    k = _checked_sparsity(k, n)
    nu = half_normal_mean()
    width = 2 * k
    total = math.comb(n, width)
    engaged = budget.starts >= 1 and budget.supports >= 1
    exhaustive = engaged and total <= budget.exhaustive_cap

    if not engaged:
        return SearchPart(0.0, None, 0, 0, total, False)

    stream = Stream(rng.child(0))
    if exhaustive:
        supports = (np.asarray(sup, dtype=np.int64)
                    for sup in itertools.combinations(range(n), width))
    else:
        supports = (stream.subset(n, width) for _ in range(budget.supports))

    def exact(block):
        sups = np.array(block)
        vals, angles, arcs = _norm_on_arcs(_stacked(phi, sups), nu)
        return vals[:, None], arcs.sum(), lambda i, _: (
            sups[i], np.array([math.cos(angles[i]), math.sin(angles[i])]))

    draws = ((sup, stream.normal_rows(budget.starts, width).T) for sup in supports)
    # lane 2j climbs up from start j, lane 2j + 1 down from it
    directions = np.tile([1.0, -1.0], budget.starts)

    def climb(block):
        sups, starts = map(np.array, zip(*block))
        z, vals, used = _norm_lanes(_stacked(phi, sups), nu, np.repeat(starts, 2, axis=2),
                                    directions, budget.steps)
        return vals, used.sum(), lambda i, j: (sups[i], z[i, :, j])

    if width == 2:
        best, evals, visited = _search(_blocks(supports, _sweep_size(m, 2)), exact)
    else:
        best, evals, visited = _search(_blocks(draws), climb)
    witness = None
    if best is not None:  # re-evaluate through the public path
        sup, z = best
        witness = DeviationWitness(l1_norm_deviation(phi, core.embed(z, sup, n)),
                                   sup.tolist(), z.tolist())
    return SearchPart(witness.value if witness else 0.0, witness, evals, visited, total,
                      exhaustive)


def _sample_pair(stream, n, k, overlap_share, disjoint_ok):
    """Draw one (S_u, S_v) support pair; returns (S_u, S_v, family)."""
    use_overlap = not disjoint_ok or float(stream.uniform(1)[0]) < overlap_share
    su = stream.subset(n, 2 * k)
    comp = np.delete(np.arange(n), su)
    if not use_overlap:
        return su, comp[stream.subset(n - 2 * k, k)], "disjoint"
    # at least 3k - n of the k indices must come from su: only n - 2k
    # lie outside it
    lo = max(1, 3 * k - n)
    o = lo + stream.integer_below(k - lo + 1)
    inside = su[stream.subset(2 * k, o)]
    if k - o > 0:
        sv = core.support_union(inside, comp[stream.subset(n - 2 * k, k - o)])
    else:
        sv = inside
    return su, sv, "overlap"


def estimate_cross_deviation(phi, k: int, budget: SearchBudget, rng: RngSpec) -> SearchPart:
    """Lower bound on the worst sign-correlation deviation over
    orthogonal pairs (u with <= 2k nonzeros, v with <= k nonzeros).

    Pairs come from two families: disjoint supports (orthogonal by
    construction; enumerated exactly in exhaustive mode) and overlapping
    supports with v projected onto the orthogonal complement of u inside
    its own support.  The family mix is recorded in the result.  Pairs
    are drawn in order on rng.child(0).  At k = 1 each pair is solved
    exactly and no starts are drawn: a disjoint pair's value is constant
    on each arc of the S_u circle (_cross_on_arcs; exhaustive mode sweeps
    each S_u once over every column and reads it for every S_v, sampled
    mode sweeps each pair's S_v alone), and an overlapping pair forces
    u = +-e_i (_cross_overlap_k1); v is the unit vector e_j of S_v = {j}.  At
    k >= 2 u climbs by random-direction steps: each pair's starts and
    directions come from one normal call of a fixed size, made in pair
    order on one stream, rng.child(1), so a larger pair budget extends a
    smaller one exactly, and every (pair, start) climbs as a lane of one
    batch.
    """
    phi = core.as_matrix(phi, "phi")
    m, n = phi.shape
    k = _checked_sparsity(k, n)
    disjoint_ok = 3 * k <= n
    if not disjoint_ok and budget.overlap_share <= 0.0:
        raise ValueError(
            f"no orthogonal pair family available: 3k = {3 * k} exceeds n = {n} "
            "and overlapping pairs are disabled")
    total = math.comb(n, 2 * k) * math.comb(n - 2 * k, k) if disjoint_ok else None
    engaged = budget.starts >= 1 and budget.pairs >= 1
    exhaustive = engaged and disjoint_ok and total <= budget.exhaustive_cap
    families = {"disjoint": 0, "overlap": 0}

    if not engaged:
        return SearchPart(0.0, None, 0, 0, total, False, families)

    stream = Stream(rng.child(0))

    def pairs():
        if exhaustive:
            for su in itertools.combinations(range(n), 2 * k):
                su = np.asarray(su, dtype=np.int64)
                comp = np.delete(np.arange(n), su)
                for sv in itertools.combinations(comp.tolist(), k):
                    families["disjoint"] += 1
                    yield su, np.asarray(sv, dtype=np.int64)
        else:
            for _ in range(budget.pairs):
                su, sv, family = _sample_pair(stream, n, k, budget.overlap_share,
                                              disjoint_ok)
                families[family] += 1
                yield su, sv

    def exact(block):
        su, sv = map(np.array, zip(*block))
        j = sv[:, 0]
        vals, zu = np.empty(len(block)), np.empty((len(block), 2))
        inside = (su == j[:, None]).any(axis=1)
        for i in np.flatnonzero(inside):
            vals[i], zu[i] = _cross_overlap_k1(phi, su[i], j[i])
        evals = 2 * np.count_nonzero(inside)
        if exhaustive:
            # pairs come S_u by S_u, so one sweep of each S_u over every
            # column serves all its pairs
            first = np.append(True, np.any(su[1:] != su[:-1], axis=1))
            item = np.cumsum(first) - 1
            shared = np.broadcast_to(phi, (np.count_nonzero(first),) + phi.shape)
            value, z, patterns = _cross_on_arcs(_stacked(phi, su[first]), shared)
            vals[:], zu[:] = value[item, j], z[item, j]
            evals += patterns[item].sum()
        elif not inside.all():
            # sampled pairs rarely share S_u: each sweeps its own S_v only
            apart = ~inside
            value, z, patterns = _cross_on_arcs(_stacked(phi, su[apart]), _stacked(phi, sv[apart]))
            vals[apart], zu[apart] = value[:, 0], z[:, 0]
            evals += patterns.sum()
        return vals[:, None], evals, lambda i, _: (su[i], zu[i], sv[i], np.ones(1))

    def climb(block):
        chosen, flat = zip(*block)
        su, sv = map(np.array, zip(*chosen))
        # (pair, steps + 1, 2k, starts): each pair's starts, then its step directions
        draws = np.array(flat).reshape(len(block), budget.steps + 1, budget.starts, 2 * k)
        draws = draws.transpose(0, 1, 3, 2)
        sel = (sv[:, :, None] == su[:, None, :]).astype(float)
        zu, vals, zv, used = _cross_lanes(_stacked(phi, su), _stacked(phi, sv), sel,
                                          draws[:, 0], draws[:, 1:])
        return vals, used.sum(), lambda i, j: (su[i], zu[i, :, j], sv[i], zv[i, :, j])

    if k == 1:
        # an exhaustive block holds every pair (n - 2 of them) of its supports
        size = _sweep_size(m, n) * (n - 2) if exhaustive else _sweep_size(m, 1)
        best, evals, visited = _search(_blocks(pairs(), size), exact)
    else:
        climbs = Stream(rng.child(1))
        size = (budget.steps + 1) * budget.starts * 2 * k
        draws = ((pair, climbs.normal(size)) for pair in pairs())
        best, evals, visited = _search(_blocks(draws), climb)
    witness = None
    if best is not None:
        su, zu, sv, zv = best
        value = sign_cross_deviation(phi, core.embed(zu, su, n), core.embed(zv, sv, n))
        witness = DeviationWitness(value, su.tolist(), zu.tolist(), sv.tolist(), zv.tolist())
    return SearchPart(witness.value if witness else 0.0, witness, evals, visited, total,
                      exhaustive, families)


@dataclass
class ConditionEstimate:
    """Empirical lower bounds for the two deviation constants at
    sparsity k, with witnesses and search provenance."""

    calibration: float
    norm_dev_lower: float
    cross_dev_lower: float
    k: int
    samples: int
    refinement: str           # "none" | "local-ascent" | "exact-arcs" (k = 1)
    exhaustive: bool
    norm_part: SearchPart = None
    cross_part: SearchPart = None

    def verify(self, phi, tol: float = 1e-12) -> bool:
        """Re-evaluate the stored witnesses against phi."""
        n = core.as_matrix(phi).shape[1]
        ok = True
        if self.norm_part and self.norm_part.witness:
            w = self.norm_part.witness
            ok &= abs(l1_norm_deviation(phi, w.u_vector(n)) - w.value) <= tol
        if self.cross_part and self.cross_part.witness:
            w = self.cross_part.witness
            ok &= abs(sign_cross_deviation(phi, w.u_vector(n), w.v_vector(n)) - w.value) <= tol
        return bool(ok)

    def as_dict(self) -> dict:
        def part_dict(part):
            if part is None:
                return None
            return dict(asdict(part), witness=part.witness.as_dict() if part.witness else None)
        scalars = ("calibration", "norm_dev_lower", "cross_dev_lower", "k", "samples",
                   "refinement", "exhaustive")
        return dict({name: getattr(self, name) for name in scalars},
                    norm_search=part_dict(self.norm_part), cross_search=part_dict(self.cross_part))


def estimate_conditions(phi, k: int, budget: SearchBudget, rng: RngSpec) -> ConditionEstimate:
    """Run both deviation searches and assemble a ConditionEstimate."""
    norm_part = estimate_norm_deviation(phi, k, budget, rng.child(1))
    cross_part = estimate_cross_deviation(phi, k, budget, rng.child(2))
    if not budget.engaged():
        refinement = "none"
    elif k == 1:
        refinement = "exact-arcs"
    else:
        refinement = "local-ascent" if budget.steps > 0 else "none"
    return ConditionEstimate(
        calibration=half_normal_mean(),
        norm_dev_lower=norm_part.value,
        cross_dev_lower=cross_part.value,
        k=k,
        samples=norm_part.samples + cross_part.samples,
        refinement=refinement,
        exhaustive=norm_part.exhaustive and cross_part.exhaustive,
        norm_part=norm_part,
        cross_part=cross_part,
    )


def condition_verdict(estimate: ConditionEstimate) -> str:
    """Check norm_dev + cross_dev <= calibration - 1/2.

    Lower bounds can refute the condition outright; confirming it
    requires the exhaustive search.  At k = 1 the per-support
    maximization is exact, so "satisfied" is a proof there; at k >= 2 it
    is a heuristic ascent, which "satisfied" inherits.
    """
    threshold = estimate.calibration - 0.5
    if estimate.norm_dev_lower + estimate.cross_dev_lower > threshold:
        return VERDICT_VIOLATED
    if estimate.exhaustive:
        return VERDICT_SATISFIED
    return VERDICT_INCONCLUSIVE


@dataclass(frozen=True)
class SampleBoundParams:
    """Inputs of the sample-complexity bound; c_sample stands for the
    unspecified universal constant and defaults to placeholder 1."""

    c_sample: float = 1.0
    delta: float = 1.0
    k: int = 1
    n: int = 1

    def __post_init__(self):
        if not self.c_sample > 0:  # NaN fails this test too
            raise ValueError("c_sample must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


def sample_complexity_bound(params: SampleBoundParams) -> int:
    """ceil(C * delta**-6 * K * log(2N/K)) with the natural log."""
    ratio = 2.0 * params.n / params.k
    if ratio <= 1.0:
        raise ValueError(f"need 2n/k > 1, got {ratio}")
    return math.ceil(params.c_sample * params.delta ** -6 * params.k * math.log(ratio))


def concentration_probability(c_prob: float, delta: float, m: int) -> float:
    """1 - 8 exp(-c * delta**2 * M), clamped to [0, 1).

    The clamp below 1 matters once the exponential underflows the
    float64 resolution of 1.
    """
    if not c_prob > 0:  # NaN fails this test too
        raise ValueError("c_prob must be positive")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not m >= 1:  # NaN fails this test too
        raise ValueError(f"m must be positive, got {m}")
    value = 1.0 - 8.0 * math.exp(-c_prob * delta * delta * m)
    return min(max(0.0, value), math.nextafter(1.0, 0.0))


@dataclass
class ConcentrationReport:
    """Sampled concentration check of the two deviation inequalities."""

    params: dict
    trials: list
    violation_rate_norm: float
    violation_rate_cross: float
    mean_l1_ratio: float
    max_dev_norm: float
    max_dev_cross: float

    def as_dict(self) -> dict:
        return asdict(self)


def concentration_check(n: int, m: int, k: int, delta: float, trials: int,
                        rng: RngSpec, samples_per_trial: int = 1000) -> ConcentrationReport:
    """Empirical violation rates of the deviation inequalities at level
    delta, over sampled unit k-sparse vectors and disjoint-support
    orthogonal pairs, with a fresh Gaussian matrix per trial.

    This samples the inequalities; it does not bound the supremum.
    """
    n, m = int(n), int(m)
    k = _checked_sparsity(k, n)
    if m < 1 or trials < 1 or samples_per_trial < 1:
        raise ValueError("m, trials and samples_per_trial must be positive")
    if not delta > 0:  # NaN fails this test too
        raise ValueError(f"delta must be positive, got {delta}")
    nu = half_normal_mean()

    records = []
    ratio_sum = 0.0
    max_dev_norm = 0.0
    max_dev_cross = 0.0
    for t in range(trials):
        tspec = rng.child(t)
        phi = gen_gaussian_matrix(m, n, tspec.child(0))
        su_stream = Stream(tspec.child(1))
        pair_stream = Stream(tspec.child(2))
        norm_viol = 0
        cross_viol = 0
        trial_ratio = 0.0
        for _ in range(samples_per_trial):
            sup = su_stream.subset(n, k)
            z = su_stream.unit_vector(k)
            ratio = float(np.sum(np.abs(phi[:, sup] @ z))) / m
            trial_ratio += ratio
            dev = abs(ratio - nu)
            max_dev_norm = max(max_dev_norm, dev)
            norm_viol += dev > delta

            su = pair_stream.subset(n, k)
            zu = pair_stream.unit_vector(k)
            comp = np.delete(np.arange(n), su)
            sv = comp[pair_stream.subset(n - k, k)]
            zv = pair_stream.unit_vector(k)
            signs = core.sign_vec(phi[:, su] @ zu)
            cross = abs(float(signs @ (phi[:, sv] @ zv))) / m
            max_dev_cross = max(max_dev_cross, cross)
            cross_viol += cross > delta
        ratio_sum += trial_ratio
        records.append({
            "trial": t,
            "violations_norm": int(norm_viol),
            "violations_cross": int(cross_viol),
            "samples": samples_per_trial,
            "mean_l1_ratio": trial_ratio / samples_per_trial,
        })
    total = trials * samples_per_trial
    return ConcentrationReport(
        params={"n": n, "m": m, "k": k, "delta": delta, "trials": trials,
                "samples_per_trial": samples_per_trial, "rng": rng.as_dict()},
        trials=records,
        violation_rate_norm=sum(r["violations_norm"] for r in records) / total,
        violation_rate_cross=sum(r["violations_cross"] for r in records) / total,
        mean_l1_ratio=ratio_sum / total,
        max_dev_norm=max_dev_norm,
        max_dev_cross=max_dev_cross,
    )
