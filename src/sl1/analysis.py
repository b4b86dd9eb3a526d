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
from .solver import STATUS_OPTIMAL, SolverConfig, SolverResult, solve

EXACT_RECOVERY_RTOL = 1e-5

TRIALS_CSV_HEADER = "N,M,K,s,eps,seed,status,err_l2,e0,bound,bound_holds,iters,runtime_ms"


def recovery_error_bound(epsilon: float, m: int, e0: float) -> float:
    """The headline bound 8 * epsilon / M + 12 * e0."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if epsilon < 0 or e0 < 0:
        raise ValueError("epsilon and e0 must be nonnegative")
    return 8.0 * (float(epsilon) / float(m)) + 12.0 * float(e0)


def recovery_error_bound_sharp(epsilon: float, m: int, e0: float, calibration: float,
                               norm_dev: float, cross_dev: float) -> float:
    """Pre-simplification bound with explicit deviation constants:

        (4/theta) * epsilon/M + 4 * (nu + cross - norm)/theta * e0,

    theta = nu - (norm + cross).  Requires theta > 0."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if epsilon < 0 or e0 < 0:
        raise ValueError("epsilon and e0 must be nonnegative")
    theta = calibration - (norm_dev + cross_dev)
    if theta <= 0:
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
    kept in one (rows, 2) array beside their names and notes, and `rows`
    builds the TraceRow objects on each access, so a kept trace holds one
    array instead of an object and two floats per row."""

    names: tuple
    sides: np.ndarray
    notes: tuple
    unconditional: int  # the leading rows, which hold for any feasible minimiser
    inputs: dict
    condition: str
    deviation_provenance: str

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


def trace_recovery(instance: SparseInstance, result: SolverResult,
                   estimate: ConditionEstimate,
                   feasibility_tol: float = SolverConfig.feasibility_tol) -> RecoveryTrace:
    """Evaluate the full inequality chain on one solved instance.

    Requires a feasible solution.  Unconditional rows must hold for any
    feasible l1-minimal output; a failure there indicates a solver or
    arithmetic bug.  Conditional rows use the (estimated) deviation
    constants and may legitimately fail when those underestimate the
    true worst case.
    """
    phi, x, y = instance.phi, instance.x, instance.y
    eps, k, m = instance.epsilon, instance.k, instance.m
    u = core.as_vector(result.u_star, "u_star")
    residual = core.norm_lp(y - core.mat_vec(phi, u), 1)
    if residual > eps + feasibility_tol:
        raise ValueError(
            f"solution is infeasible: residual {residual} exceeds epsilon {eps} "
            f"+ tolerance {feasibility_tol}")

    h = u - x
    t0 = core.hard_support(x, k)
    part = core.partition_support(h, t0, k)
    t01 = part.t01
    h01 = core.restrict(h, t01)
    h01c = h - h01
    n01 = core.norm_lp(h01, 2)
    n01c = core.norm_lp(h01c, 2)
    tail_norms = [core.norm_lp(core.restrict(h, blk), 2) for blk in part.tail_blocks()]
    tail_sum = float(sum(tail_norms))
    e0 = core.compressibility_error(x, k)
    phi_h = core.mat_vec(phi, h)
    phi_h01 = core.mat_vec(phi, h01)
    signs01 = core.sign_vec(phi_h01)
    nu = estimate.calibration
    verdict = condition_verdict(estimate)
    # The compressibility chain is proved from ||x*||_1 <= ||x||_1; a
    # computed minimizer can miss that by its optimality gap, so the
    # valid form for any feasible solution carries the measured slack
    # (zero for an exact minimizer) plus a rigorous bound on the
    # rounding of the two l1-norm evaluations themselves.
    u_mass = core.norm_lp(u, 1)
    x_mass = core.norm_lp(x, 1)
    fp_budget = 8.0 * np.finfo(float).eps * x.size * max(1.0, u_mass, x_mass)
    minimality_slack = max(0.0, u_mass - x_mass) + fp_budget

    # (name, lhs, rhs, note); the first five rows are unconditional
    rows = [
        # ||h|| <= ||h_T01|| + ||h_T01c||; the lhs is recombined from the
        # two disjoint pieces (hypot), which equals ||h|| exactly in real
        # arithmetic and keeps the degenerate cases rounding-safe.
        ("error-triangle", math.hypot(n01, n01c), n01 + n01c, ""),
        ("tail-vs-block-sum", n01c, tail_sum, ""),
        ("block-compressibility", tail_sum,
         n01 + 2.0 * e0 + minimality_slack / math.sqrt(k),
         f"l1-minimality slack {minimality_slack:.3e}"),
        ("holder-sign-inner", float(np.sum(signs01 * phi_h)),
         float(np.sum(np.abs(phi_h))), ""),
        ("residual-feasibility", float(np.sum(np.abs(phi_h))),
         2.0 * eps + 2.0 * feasibility_tol, ""),
    ]
    for j, blk in enumerate(part.tail_blocks(), start=2):
        cross = abs(float(np.sum(signs01 * core.mat_vec(phi, core.restrict(h, blk)))))
        bound = m * estimate.cross_dev_lower * core.norm_lp(core.restrict(h, blk), 2)
        rows.append((f"cross-term-block-{j:03d}", cross, bound,
                     "uses the estimated cross deviation"))
    rows.append(("sketch-lower-bound",
                 m * (nu - estimate.norm_dev_lower) * n01,
                 float(np.sum(np.abs(phi_h01))), "uses the estimated norm deviation"))
    rows.append(("recovery-error-bound", core.norm_lp(h, 2),
                 recovery_error_bound(eps, m, e0), f"condition {verdict}"))
    names, lhs, rhs, notes = zip(*rows)

    inputs = {
        "n": instance.n, "m": m, "k": k, "epsilon": eps, "e0": e0,
        "calibration": nu,
        "norm_dev_lower": estimate.norm_dev_lower,
        "cross_dev_lower": estimate.cross_dev_lower,
        "feasibility_tol": feasibility_tol,
        "residual_l1": residual,
        "solver_status": result.status,
    }
    return RecoveryTrace(names=names, sides=np.column_stack((lhs, rhs)), notes=notes,
                         unconditional=5, inputs=inputs, condition=verdict,
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
            summaries.append({
                "m": m, "k": k, "s": s, "trials": len(cell),
                "err_median": _quantile(errs, 0.5),
                "err_q90": _quantile(errs, 0.9),
                "bound_rate": sum(r.bound_holds for r in cell) / max(1, len(cell)),
                "exact_rate": sum(r.exact for r in cell) / max(1, len(cell)),
                "solved_rate": sum(r.status == STATUS_OPTIMAL for r in cell) / max(1, len(cell)),
                "mean_iters": sum(r.iters for r in cell) / max(1, len(cell)),
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
