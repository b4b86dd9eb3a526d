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
ascent (_ascend), BLOCK items at a time.
"""

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .generators import gen_gaussian_matrix
from .rng import CHILD_TAGS, RngSpec, Stream

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
        if max(self.pairs, self.exhaustive_cap) >= CHILD_TAGS ** 2:  # see _pair_draws
            raise ValueError(f"pairs and exhaustive_cap must be below {CHILD_TAGS ** 2}")
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


def _blocks(items):
    items = iter(items)
    while block := list(itertools.islice(items, BLOCK)):
        yield block


def _stacked(phi, sets):
    """phi[:, sets[i]] for every row i of sets, as one (items, M, width)
    array whose slices share phi[:, S]'s column-major layout."""
    return phi.T[sets].transpose(0, 2, 1)


def _unit(z):
    return z / np.sqrt(np.sum(z * z, axis=1, keepdims=True))


def _ascend(objective, propose, z, steps):
    """Hill-climb every lane z[i, :, j] over the unit sphere at once.

    objective(z) -> (score, state) and propose(t, z, state, eta) -> (step
    t's candidates, lanes that can still move).  A lane keeps a candidate
    only if its score rises strictly (eta grows by 1.3, to at most 1),
    else halves eta; it stops when it cannot move or eta < 1e-9.  A start
    with squared norm below 1e-24 becomes all ones.
    Returns (z, score, state, evaluations) per lane."""
    z = _unit(np.where(np.sum(z * z, axis=1, keepdims=True) >= 1e-24, z, 1.0))
    val, state = objective(z)
    eta = np.full(val.shape, 0.5)
    evals = np.ones(val.shape, dtype=np.int64)
    live = np.ones(val.shape, dtype=bool)
    for t in range(steps):
        cand, movable = propose(t, z, state, eta)
        live &= movable
        if not live.any():
            break
        cval, cstate = objective(cand)
        evals += live
        up = live & (cval > val)
        down = live & ~up
        z = np.where(up[:, None], cand, z)
        state = np.where(up[:, None], cstate, state)
        val = np.where(up, cval, val)
        eta = np.where(up, np.minimum(eta * 1.3, 1.0), np.where(down, eta * 0.5, eta))
        live &= ~(down & (eta < 1e-9))
    return z, val, state, evals


def _norm_lanes(b, nu, z0, directions, steps):
    """Climb directions[j] * ((1/M)||b[i] z||_1 - nu), b[i] = phi[:, S_i],
    from every start z0[i, :, j] by normalised projected-gradient steps.
    Returns (z, |objective|, evaluations) per lane."""
    m = b.shape[1]

    def objective(z):
        bz = b @ z
        return directions * (np.sum(np.abs(bz), axis=1) / m - nu), bz

    def propose(t, z, bz, eta):
        grad = directions * (b.transpose(0, 2, 1) @ np.sign(bz)) / m
        grad -= np.sum(grad * z, axis=1, keepdims=True) * z
        gnorm = np.sqrt(np.sum(grad * grad, axis=1))
        movable = gnorm >= 1e-14
        return _unit(z + (eta / np.where(movable, gnorm, 1.0))[:, None] * grad), movable

    z, score, _, evals = _ascend(objective, propose, z0, steps)
    return z, np.abs(score), evals


def _cross_lanes(bu, bv, sel, z0, directions):
    """Climb pair i's sign correlation from every start z0[i, :, j], step
    t trying z + eta * directions[i, t, :, j].  bu[i] = phi[:, S_u],
    bv[i] = phi[:, S_v], and sel[i, a, b] = 1 where S_v[a] = S_u[b].  For
    unit u = z on S_u the best unit v on S_v orthogonal to u is
    phi_Sv^T sign(phi_Su z) (sign(0) = -1) projected off u's part on
    S_v, worth its norm / M.  Returns (z, value, unit v, evaluations)
    per lane; value -inf marks a lane whose vector vanished (no witness)."""
    m = bu.shape[1]

    def objective(z):
        c = bv.transpose(0, 2, 1) @ np.where(bu @ z > 0.0, 1.0, -1.0)
        a = sel @ z
        a_sq = np.sum(a * a, axis=1, keepdims=True)
        a_sq[a_sq == 0.0] = 1.0  # a = 0 there: nothing to project off
        for _ in range(2):  # the second pass kills rounding residue
            c = c - (np.sum(c * a, axis=1, keepdims=True) / a_sq) * a
        c_norm = np.sqrt(np.sum(c * c, axis=1))
        found = c_norm >= 1e-14
        return np.where(found, c_norm / m, -math.inf), c / np.where(found, c_norm, 1.0)[:, None]

    def propose(t, z, v, eta):
        return _unit(z + eta[:, None] * directions[:, t]), True

    return _ascend(objective, propose, z0, directions.shape[1])


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


def _each(solve):
    """Block climb of an exact solve(item) -> (value, candidate, evals)."""
    def climb(block):
        found = [solve(item) for item in block]
        return (np.array([[f[0]] for f in found]), sum(f[2] for f in found),
                lambda i, _: found[i][1])
    return climb


# Breakpoints closer than this (radians) count as one: no float witness
# lands reliably inside a narrower arc, and rounding cannot tell two such
# breakpoints from one.  A sign pattern that holds only on a narrower arc
# is the one case the k = 1 enumeration does not see.
ARC_MERGE = 1e-12


def _circle_arcs(b, cols):
    """Sign patterns s = sign(b z) over the unit circle z = (cos t, sin t)
    for an M x 2 block b = phi[:, S_u], and the sums s @ cols on each.

    Row r with b_r != 0 turns from + to - (counterclockwise) at
    atan2(b_r) + pi/2 and from - to + at atan2(b_r) - pi/2; a zero row
    keeps sign(0) = -1 all round.  The signs are read once, in the middle
    of the widest gap, and one cumsum of the flips -2 * old_sign * cols[r]
    in sweep order gives the sums on every arc: O(M * cols) memory.
    Breakpoints within ARC_MERGE merge.  Where rows turning both ways meet
    at one breakpoint (rows of opposite signs along one line), that
    breakpoint carries a pattern of its own, with each of those rows at
    sign(0) = -1; such points come back too, each with a unit z at which
    its leading row vanishes.

    Returns (lo, hi, arc_sums, point_z, point_sums): arc g spans
    (lo[g], hi[g]) with lo[g] < hi[g] <= lo[g] + 2 pi.
    """
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
    # sweep counterclockwise from the middle of the widest gap
    order = np.roll(order, -(widest + 1))
    theta = np.roll(theta, -(widest + 1))
    theta[theta.size - widest - 1:] += 2.0 * math.pi
    t0 = theta[0] - 0.5 * gap[widest]
    s0 = np.where(b @ np.array([math.cos(t0), math.sin(t0)]) > 0.0, 1.0, -1.0)
    down = order < rows.size            # + to - at this breakpoint
    flip_rows = rows[order % rows.size]
    flips = np.where(down, -2.0, 2.0)[:, None] * cols[flip_rows]
    before = np.zeros((theta.size + 1, cols.shape[1]))
    np.cumsum(flips, axis=0, out=before[1:])
    before += s0 @ cols                 # before[i]: sums ahead of breakpoint i

    starts = np.flatnonzero(np.diff(theta, prepend=-math.inf) > ARC_MERGE)
    ends = np.append(starts[1:], theta.size) - 1
    lo = np.append(theta[-1] - 2.0 * math.pi, theta[ends[:-1]])
    hi = theta[starts]
    arc_sums = before[starts]

    n_down = np.concatenate([[0], np.cumsum(down)])
    downs = n_down[ends + 1] - n_down[starts]
    mixed = (downs > 0) & (downs < ends + 1 - starts)
    if not mixed.any():
        return lo, hi, arc_sums, np.empty((0, 2)), np.empty((0, cols.shape[1]))
    # at the point itself the rows turning down are already at -1, the
    # rows turning up still are
    down_sums = np.zeros_like(before)
    np.cumsum(np.where(down[:, None], flips, 0.0), axis=0, out=down_sums[1:])
    at, last = starts[mixed], ends[mixed] + 1
    point_sums = before[at] + down_sums[last] - down_sums[at]
    lead = b[flip_rows[at]]
    point_z = np.where(down[at, None], 1.0, -1.0) * np.stack([-lead[:, 1], lead[:, 0]], axis=1)
    point_z /= np.hypot(lead[:, 0], lead[:, 1])[:, None]
    return lo, hi, arc_sums, point_z, point_sums


def _norm_on_arcs(b, nu):
    """Exact max over unit z of |(1/M)||b z||_1 - nu| for an M x 2 block.

    On each arc (1/M)||b z||_1 = A cos t + B sin t, so its extremes lie at
    the arc's ends or at the stationary angles atan2(B, A) and + pi.
    Returns (value, unit z, arcs evaluated).
    """
    m = b.shape[0]
    lo, hi, sums, _, _ = _circle_arcs(b, b)
    a_coef, b_coef = sums[:, 0] / m, sums[:, 1] / m
    peak = np.arctan2(b_coef, a_coef)[:, None] + np.array([0.0, math.pi])
    inner = lo[:, None] + (peak - lo[:, None]) % (2.0 * math.pi)
    t = np.concatenate([lo[:, None], hi[:, None], inner], axis=1)
    dev = np.abs(a_coef[:, None] * np.cos(t) + b_coef[:, None] * np.sin(t) - nu)
    dev[:, 2:][inner >= hi[:, None]] = -1.0
    best = np.unravel_index(int(np.argmax(dev)), dev.shape)
    angle = float(t[best])
    return float(dev[best]), np.array([math.cos(angle), math.sin(angle)]), lo.size


def _cross_candidates(b, cols):
    """One unit z per sign pattern of b z on the circle (arc midpoints,
    then the breakpoints with patterns of their own) and |s @ cols| / M
    for each: a row per pattern, a column per column of cols."""
    lo, hi, arc_sums, point_z, point_sums = _circle_arcs(b, cols)
    mid = 0.5 * (lo + hi)
    z = np.concatenate([np.stack([np.cos(mid), np.sin(mid)], axis=1), point_z])
    return z, np.abs(np.concatenate([arc_sums, point_sums])) / b.shape[0]


def _cross_overlap_k1(phi, su, j):
    """At k = 1 with S_v = {j} inside S_u, u must be +-e_i (i the other
    index of S_u): the value is |sign(+-phi_i) . phi_j| / M in closed form.
    Returns (value, u coefficients on S_u)."""
    other = su != j
    col_i = phi[:, su[other][0]]
    plus, minus = (abs(float(np.where(sign * col_i > 0.0, 1.0, -1.0) @ phi[:, j])) / phi.shape[0]
                   for sign in (1.0, -1.0))
    return max(plus, minus), np.where(other, 1.0 if plus >= minus else -1.0, 0.0)


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
    k = int(k)
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= 2k <= n, got k={k}, n={n}")
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

    def exact(sup):
        val, z, arcs = _norm_on_arcs(phi[:, sup], nu)
        return val, (sup, z), arcs

    draws = ((sup, stream.normal_rows(budget.starts, width).T) for sup in supports)
    # lane 2j climbs up from start j, lane 2j + 1 down from it
    directions = np.tile([1.0, -1.0], budget.starts)

    def climb(block):
        sups, starts = map(np.array, zip(*block))
        z, vals, used = _norm_lanes(_stacked(phi, sups), nu, np.repeat(starts, 2, axis=2),
                                    directions, budget.steps)
        return vals, used.sum(), lambda i, j: (sups[i], z[i, :, j])

    if width == 2:
        best, evals, visited = _search(_blocks(supports), _each(exact))
    else:
        best, evals, visited = _search(_blocks(draws), climb)
    witness = None
    if best is not None:  # re-evaluate through the public path
        sup, z = best
        witness = DeviationWitness(l1_norm_deviation(phi, core.embed(z, sup, n)),
                                   sup.tolist(), z.tolist())
    return SearchPart(witness.value if witness else 0.0, witness, evals, visited, total,
                      exhaustive)


def _pair_draws(spec, index, starts, steps, width):
    """Pair `index`'s starts (row 0) and step directions (row t + 1), as
    (steps + 1, width, starts), in one call on a stream of its own; the
    key takes two child levels, as one child tag ends below CHILD_TAGS."""
    hi, lo = divmod(index, CHILD_TAGS)
    draws = Stream(spec.child(hi).child(lo)).normal((steps + 1) * starts * width)
    return draws.reshape(steps + 1, starts, width).transpose(0, 2, 1)


def _sample_pair(stream, n, k, overlap_share, disjoint_ok):
    """Draw one (S_u, S_v) support pair; returns (S_u, S_v, family)."""
    use_overlap = not disjoint_ok or float(stream.uniform(1)[0]) < overlap_share
    su = stream.subset(n, 2 * k)
    if not use_overlap:
        comp = core.complement_support(su, n)
        sv = comp[stream.subset(n - 2 * k, k)]
        return su, sv, "disjoint"
    # at least 3k - n of the k indices must come from su: only n - 2k
    # lie outside it
    lo = max(1, 3 * k - n)
    o = lo + stream.integer_below(k - lo + 1)
    inside = su[stream.subset(2 * k, o)]
    if k - o > 0:
        comp = core.complement_support(su, n)
        outside = comp[stream.subset(n - 2 * k, k - o)]
        sv = core.support_union(inside, outside)
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
    on each arc of the S_u circle (_cross_candidates, swept once per S_u
    and read for every S_v), and an overlapping pair forces u = +-e_i
    (_cross_overlap_k1); v is the unit vector e_j of S_v = {j}.  At
    k >= 2 u climbs by random-direction steps: each pair's starts and
    directions come from a stream keyed by the pair's index under
    rng.child(1) (_pair_draws), so a larger pair budget extends a smaller
    one exactly, and every (pair, start) climbs as a lane of one batch.
    """
    phi = core.as_matrix(phi, "phi")
    m, n = phi.shape
    k = int(k)
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= 2k <= n, got k={k}, n={n}")
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
                comp = core.complement_support(su, n)
                for sv in itertools.combinations(comp.tolist(), k):
                    families["disjoint"] += 1
                    yield su, np.asarray(sv, dtype=np.int64)
        else:
            for _ in range(budget.pairs):
                su, sv, family = _sample_pair(stream, n, k, budget.overlap_share,
                                              disjoint_ok)
                families[family] += 1
                yield su, sv

    swept = [None, None]  # (S_u, its candidates on every column of phi)

    def exact(pair):
        su, sv = pair
        j = int(sv[0])
        if j in su:
            val, zu = _cross_overlap_k1(phi, su, j)
            return val, (su, zu, sv, np.ones(1)), 2
        # Two sweeps with the same bytes, each the faster where it runs.
        # Exhaustive pairs share S_u, so one sweep over every column
        # serves them all (a sweep per pair took about 4x the time on two
        # 400 x 8 matrices); sampled pairs rarely share it, so a sweep
        # over every column is wasted (about 2.5x the time on two sampled
        # 60 x 200 matrices at k = 1; one BLAS thread on 2 vCPUs).
        if exhaustive:
            if swept[0] is not su:
                swept[:] = su, _cross_candidates(phi[:, su], phi)
            zs, vals = swept[1]
            vals = vals[:, j]
        else:
            zs, vals = _cross_candidates(phi[:, su], phi[:, sv])
            vals = vals[:, 0]
        best = int(np.argmax(vals))
        return float(vals[best]), (su, zs[best], sv, np.ones(1)), vals.size

    def climb(block):
        su, sv = map(np.array, zip(*(pair for _, pair in block)))
        draws = np.stack([_pair_draws(rng.child(1), index, budget.starts, budget.steps, 2 * k)
                          for index, _ in block])
        sel = (sv[:, :, None] == su[:, None, :]).astype(float)
        zu, vals, zv, used = _cross_lanes(_stacked(phi, su), _stacked(phi, sv), sel,
                                          draws[:, 0], draws[:, 1:])
        return vals, used.sum(), lambda i, j: (su[i], zu[i, :, j], sv[i], zv[i, :, j])

    if k == 1:
        best, evals, visited = _search(_blocks(pairs()), _each(exact))
    else:
        best, evals, visited = _search(_blocks(enumerate(pairs())), climb)
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
        if self.c_sample <= 0:
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
    if c_prob <= 0:
        raise ValueError("c_prob must be positive")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if m < 1:
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
    n, m, k = int(n), int(m), int(k)
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= 2k <= n, got k={k}, n={n}")
    if m < 1 or trials < 1 or samples_per_trial < 1:
        raise ValueError("m, trials and samples_per_trial must be positive")
    if delta <= 0:
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
            comp = core.complement_support(su, n)
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
