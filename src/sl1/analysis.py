"""Recovery-error bound evaluation, a numerical tracer for the chain of
inequalities behind it, and batched trial grids.

The guarantee under scrutiny: when the deviation condition
norm_dev + cross_dev <= sqrt(2/pi) - 1/2 holds at sparsity K, the
solution x* of the l1-fidelity program satisfies

    ||x* - x||_2  <=  8 * epsilon / M  +  12 * e0(K),

with e0(K) = ||x - x_K||_1 / sqrt(K).  The tracer evaluates every step
of the derivation on a concrete instance and separates unconditional
inequalities (true for any feasible, l1-minimal solution) from the ones
that depend on estimated deviation constants.
"""

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from . import core
from .conditions import ConditionEstimate, condition_verdict
from .generators import make_instance, SparseInstance
from .rng import RngSpec
from .solver import STATUS_OPTIMAL, SolverConfig, SolverResult, residual_slack, solve

EXACT_RECOVERY_RTOL = 1e-5

TRIALS_CSV_HEADER = "N,M,K,s,eps,seed,status,err_l2,e0,bound,bound_holds,iters,runtime_ms"


def recovery_error_bound(epsilon: float, m: int, e0: float) -> float:
    """The headline bound 8 * epsilon / M + 12 * e0."""
    if not m >= 1:  # NaN fails this test too
        raise ValueError(f"m must be positive, got {m}")
    if not epsilon >= 0 or not e0 >= 0:  # NaN fails this test too
        raise ValueError("epsilon and e0 must be nonnegative")
    return 8.0 * (float(epsilon) / float(m)) + 12.0 * float(e0)


def recovery_error_bound_sharp(epsilon: float, m: int, e0: float, calibration: float,
                               norm_dev: float, cross_dev: float) -> float:
    """Pre-simplification bound with explicit deviation constants:

        (4/theta) * epsilon/M + 4 * (nu + cross - norm)/theta * e0,

    theta = nu - (norm + cross).  Requires theta > 0."""
    if not m >= 1:  # NaN fails this test too
        raise ValueError(f"m must be positive, got {m}")
    if not epsilon >= 0 or not e0 >= 0:  # NaN fails this test too
        raise ValueError("epsilon and e0 must be nonnegative")
    theta = calibration - (norm_dev + cross_dev)
    if not theta > 0:  # a NaN deviation fails this test too
        raise ValueError(
            f"deviation sum {norm_dev + cross_dev} reaches the calibration {calibration}; "
            "the bound hypothesis is violated")
    return (4.0 / theta) * (float(epsilon) / float(m)) \
        + 4.0 * ((calibration + cross_dev - norm_dev) / theta) * float(e0)


@dataclass(slots=True)
class TraceRow:
    name: str
    lhs: float
    rhs: float
    holds: bool
    conditional: bool
    note: str = ""

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "holds": self.holds,
                "conditional": self.conditional, "note": self.note}


@dataclass(slots=True)
class RecoveryTrace:
    """The inequality chain of one solve.  The two sides of the rows are
    kept in one (rows, 2) array, and `rows` builds the TraceRow objects on
    each access, so a kept trace holds one array instead of an object and
    two floats per row; the row names and notes follow from the row count
    and are built on access too, as is the `inputs` dict from its values
    in the order of _INPUT_KEYS."""

    sides: np.ndarray
    minimality_slack: float  # the block-compressibility row's allowance
    unconditional: int  # the leading rows, which hold for any feasible minimiser
    input_values: tuple
    condition: str
    deviation_provenance: str

    @property
    def inputs(self) -> dict:
        return dict(zip(_INPUT_KEYS, self.input_values))

    @property
    def names(self) -> tuple:
        return _row_layout(len(self.sides))[0]

    @property
    def notes(self) -> tuple:
        fixed = _row_layout(len(self.sides))[1]
        return (fixed[:2] + (f"l1-minimality slack {self.minimality_slack:.3e}",)
                + fixed[3:-1] + (f"condition {self.condition}",))

    @property
    def rows(self) -> list:
        return [TraceRow(name=name, lhs=lhs, rhs=rhs, holds=rhs - lhs >= 0.0,
                         conditional=i >= self.unconditional, note=note)
                for i, (name, (lhs, rhs), note)
                in enumerate(zip(self.names, self.sides.tolist(), self.notes))]

    def row(self, name: str) -> TraceRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def unconditional_ok(self) -> bool:
        return all(r.holds for r in self.rows if not r.conditional)

    def as_dict(self) -> dict:
        return {"inputs": self.inputs, "condition": self.condition,
                "deviation_provenance": self.deviation_provenance,
                "rows": [r.as_dict() for r in self.rows]}


_INPUT_KEYS = ("n", "m", "k", "epsilon", "e0", "calibration", "norm_dev_lower",
               "cross_dev_lower", "feasibility_tol", "residual_l1", "solver_status")

# the rows before and after the cross terms (one per tail block); the
# five before them are the unconditional ones
_HEAD_ROWS = ("error-triangle", "tail-vs-block-sum", "block-compressibility",
              "holder-sign-inner", "residual-feasibility")
_FOOT_ROWS = ("sketch-lower-bound", "recovery-error-bound")


def _row_layout(rows: int) -> tuple:
    """The names of the rows of a trace with `rows` rows, and the notes
    that do not depend on the solve (empty where one does)."""
    blocks = rows - len(_HEAD_ROWS) - len(_FOOT_ROWS)
    cross = tuple(f"cross-term-block-{j:03d}" for j in range(2, blocks + 2))
    return (_HEAD_ROWS + cross + _FOOT_ROWS,
            ("",) * len(_HEAD_ROWS) + ("uses the estimated cross deviation",) * blocks
            + ("uses the estimated norm deviation", ""))


def _checked_trace_inputs(instance: SparseInstance, result: SolverResult) -> tuple:
    """(phi, x, y, u_star, k) of one solve, or ValueError unless x, y and
    u_star are finite vectors, phi is a finite len(y) x len(x) matrix,
    u_star has the length of x and 1 <= k <= len(x).  This is the tracer's
    one pass over its inputs: the core kernels it then calls check nothing."""
    x = core.as_vector(instance.x, "x")
    y = core.as_vector(instance.y, "y")
    u = core.as_vector(result.u_star, "u_star")
    n, m, k = x.size, y.size, int(instance.k)
    phi = np.asarray(instance.phi, dtype=np.float64)
    if not m or phi.shape != (m, n) or not np.isfinite(phi).all():
        raise ValueError(f"phi must be a finite {m}x{n} matrix with m >= 1, "
                         f"got shape {phi.shape}")
    if u.size != n:
        raise ValueError(f"u_star has length {u.size} but x has length {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return phi, x, y, u, k


def trace_recovery(instance: SparseInstance, result: SolverResult,
                   estimate: ConditionEstimate,
                   feasibility_tol: float = SolverConfig.feasibility_tol) -> RecoveryTrace:
    """Evaluate the full inequality chain on one solved instance.

    Requires a solution feasible up to solver.residual_slack.  Unconditional
    rows must hold for any feasible l1-minimal output; a failure there
    indicates a solver or arithmetic bug.  Conditional rows use the
    (estimated) deviation constants and may legitimately fail when those
    underestimate the true worst case.
    """
    phi, x, y, u, k = _checked_trace_inputs(instance, result)
    eps, m = instance.epsilon, y.size
    residual = core._l1(y - core._mat_vec(phi, u))
    slack = residual_slack(m, core._l1(y), eps, feasibility_tol)
    if residual > eps + slack:
        raise ValueError(f"solution is infeasible: residual {residual} exceeds epsilon {eps} "
                         f"+ slack {slack}")

    h = u - x
    part = core._partition(h, core._hard_support(x, k), k)
    h01 = core._restrict(h, part.t01)
    h01c = h - h01
    n01 = core._l2(h01)
    n01c = core._l2(h01c)
    tail = part.tail_blocks()
    # the tail blocks side by side: h restricted to each block as a row,
    # and each block's columns and values padded with zeros to k
    cols = np.zeros((len(tail), k), dtype=np.int64)
    vals = np.zeros((len(tail), k))
    restricted = np.zeros((len(tail), h.size))
    for b, blk in enumerate(tail):
        cols[b, :blk.size] = blk
        vals[b, :blk.size] = restricted[b, blk] = h[blk]
    tail_norms = np.sqrt((restricted * restricted).sum(axis=1))
    tail_sum = float(sum(tail_norms.tolist()))
    e0 = core._compressibility_error(x, k)
    phi_h = core._mat_vec(phi, h)
    phi_h01 = core._mat_vec(phi, h01)
    signs01 = core._sign_vec(phi_h01)
    # phi @ (each restricted block), summed left to right over the block's
    # columns as core.mat_vec sums over all of them: the products it adds
    # outside the block are zeros, which change no nonzero sum
    products = phi[:, cols] * vals
    np.add.accumulate(products, axis=2, out=products)
    phi_tail = products[:, :, -1].T + 0.0
    cross = np.abs((signs01 * phi_tail).sum(axis=1))
    cross_bound = m * estimate.cross_dev_lower * tail_norms
    nu = estimate.calibration
    verdict = condition_verdict(estimate)
    # The compressibility chain is proved from ||x*||_1 <= ||x||_1; a
    # computed minimizer can miss that by its optimality gap, so the
    # valid form for any feasible solution carries the measured slack
    # (zero for an exact minimizer) plus a rigorous bound on the
    # rounding of the two l1-norm evaluations themselves.
    u_mass = core._l1(u)
    x_mass = core._l1(x)
    fp_budget = 8.0 * np.finfo(float).eps * x.size * max(1.0, u_mass, x_mass)
    minimality_slack = max(0.0, u_mass - x_mass) + fp_budget

    # (lhs, rhs) of each row, in the order of _row_layout's names
    sides = np.empty((len(tail) + len(_HEAD_ROWS) + len(_FOOT_ROWS), 2))
    sides[:5] = [
        # ||h|| <= ||h_T01|| + ||h_T01c||; the lhs is recombined from the
        # two disjoint pieces (hypot), which equals ||h|| exactly in real
        # arithmetic and keeps the degenerate cases rounding-safe.
        (math.hypot(n01, n01c), n01 + n01c),
        (n01c, tail_sum),
        (tail_sum, n01 + 2.0 * e0 + minimality_slack / math.sqrt(k)),
        (float(np.add.reduce(signs01 * phi_h)), core._l1(phi_h)),
        (core._l1(phi_h), 2.0 * eps + 2.0 * feasibility_tol),
    ]
    sides[5:-2, 0] = cross
    sides[5:-2, 1] = cross_bound
    sides[-2] = (m * (nu - estimate.norm_dev_lower) * n01, core._l1(phi_h01))
    sides[-1] = (core._l2(h), recovery_error_bound(eps, m, e0))

    inputs = (x.size, m, k, eps, e0, nu, estimate.norm_dev_lower,
              estimate.cross_dev_lower, feasibility_tol, residual, result.status)
    return RecoveryTrace(sides=sides, minimality_slack=minimality_slack,
                         unconditional=len(_HEAD_ROWS), input_values=inputs, condition=verdict,
                         deviation_provenance="exhaustive" if estimate.exhaustive else "sampled")


@dataclass
class TrialRecord:
    n: int
    m: int
    k: int
    s: int
    eps: float
    seed: str
    status: str
    err_l2: float
    e0: float
    bound: float
    bound_holds: bool
    iters: int
    runtime_ms: int
    exact: bool = False  # not a CSV column; feeds the cell summaries

    def csv_row(self) -> str:
        return ",".join([
            str(self.n), str(self.m), str(self.k), str(self.s),
            repr(self.eps), self.seed, self.status,
            repr(self.err_l2), repr(self.e0), repr(self.bound),
            "true" if self.bound_holds else "false",
            str(self.iters), str(self.runtime_ms),
        ])


@dataclass(frozen=True)
class GridSpec:
    """Experiment grid over measurement count, sparsity and corruption.

    Its fields, the solver's flattened in, are the grid's config keys."""

    n: int
    m_values: tuple
    k_values: tuple
    s_values: tuple
    trials: int = 10
    seed: int = 0
    stream: int = 0
    amplitude: str | list = "gaussian"   # a law name or ["uniform", a, b]
    spike_scale: float = 1.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")

    def cells(self) -> list:
        return list(product(self.m_values, self.k_values, self.s_values))

    def as_dict(self) -> dict:
        d = asdict(self)
        d.update(d.pop("solver"))
        return d


def run_trial(n: int, m: int, k: int, s: int, rng: RngSpec, *,
              amplitude=GridSpec.amplitude, spike_scale: float = GridSpec.spike_scale,
              config: SolverConfig = None) -> TrialRecord:
    """Generate one instance, solve it, compare the error to the bound.

    An exact recovery counts as meeting the bound, which is 0 for a
    noiseless trial and so cannot absorb a solver's rounding error.
    Solver failures are recorded in the status column instead of
    raising, so grid runs always complete.
    """
    started = time.perf_counter()
    noise = {"kind": "none"} if s == 0 else {"kind": "sparse", "s": s, "scale": spike_scale}
    instance = make_instance(n, m, k, noise, {"kind": "sparse", "amplitude": amplitude}, rng)
    status = "error"
    err = math.nan
    iters = 0
    try:
        result = solve(instance.phi, instance.y, instance.epsilon, config)
        status = result.status
        iters = result.iters
        err = core.norm_lp(result.u_star - instance.x, 2)
    except Exception:
        pass
    e0 = core.compressibility_error(instance.x, k)
    bound = recovery_error_bound(instance.epsilon, m, e0)
    runtime_ms = int(round((time.perf_counter() - started) * 1000.0))
    exact = (not math.isnan(err)
             and err <= EXACT_RECOVERY_RTOL * max(1.0, core.norm_lp(instance.x, 2)))
    return TrialRecord(
        n=n, m=m, k=k, s=s, eps=instance.epsilon,
        seed=f"{rng.seed}/{rng.stream}", status=status,
        err_l2=err, e0=e0, bound=bound,
        bound_holds=bool(exact or err <= bound),
        iters=iters, runtime_ms=runtime_ms, exact=exact,
    )


@dataclass
class GridResult:
    spec: GridSpec
    records: list = field(default_factory=list)

    def trials_csv(self) -> str:
        lines = [TRIALS_CSV_HEADER]
        lines.extend(r.csv_row() for r in self.records)
        return "\n".join(lines) + "\n"

    def cell_summaries(self) -> list:
        summaries = []
        per_cell = self.spec.trials
        for ci, (m, k, s) in enumerate(self.spec.cells()):
            cell = self.records[ci * per_cell:(ci + 1) * per_cell]
            errs = sorted(r.err_l2 for r in cell if not math.isnan(r.err_l2))
            count = len(cell) or math.nan  # rates of a cell without trials are nan (null)
            summaries.append({
                "m": m, "k": k, "s": s, "trials": len(cell),
                "err_median": _quantile(errs, 0.5),
                "err_q90": _quantile(errs, 0.9),
                "bound_rate": sum(r.bound_holds for r in cell) / count,
                "exact_rate": sum(r.exact for r in cell) / count,
                "solved_rate": sum(r.status == STATUS_OPTIMAL for r in cell) / count,
                "mean_iters": sum(r.iters for r in cell) / count,
            })
        return summaries

    def summary_dict(self) -> dict:
        return {
            "config": self.spec.as_dict(),
            "cells": self.cell_summaries(),
            # the bound comparison is observational: the deviation
            # hypothesis is not certified at grid scale
            "condition_certified": False,
        }


def run_grid(spec: GridSpec) -> GridResult:
    """Run every (m, k, s) cell for the configured number of trials, in
    (cell, trial) order; each trial owns a disjoint sub-stream."""
    base = RngSpec(spec.seed, spec.stream)
    records = [run_trial(spec.n, m, k, s, base.child(ci).child(t),
                         amplitude=spec.amplitude, spike_scale=spec.spike_scale,
                         config=spec.solver)
               for ci, (m, k, s) in enumerate(spec.cells())
               for t in range(spec.trials)]
    return GridResult(spec=spec, records=records)


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    return float(sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac)
