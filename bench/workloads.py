"""The four sl1 benchmark workloads.

Each workload makes its inputs (``setup``), names the units its timed
window cycles through (``units``), runs one unit and returns the
operations it performed (``run_unit``, timing each op with the clock it
is given), and checks each operation against an independent reference
after the window closes (``check``).

``conditions`` makes its inputs from the seed: seed ``s`` adds ``s`` to
each base seed, so the default seed 0 reproduces the acceptance-suite
seeds.  ``oracle``, ``grid`` and ``exact`` are pinned at the
acceptance-suite seeds for every ``--seed``: their per-op cost is
heavy-tailed (a first-order solve can take 100 times the median
iterations; a stalled simplex solve 10 times the median pivots).  With
a fresh input set per seed, the quartile spread of ``ops_per_s`` over
five seeds was 0.29 (oracle), 0.36 (grid) and 0.45 (exact), more than
the largest bound the benchmark may set.

An operation (op) is the unit that latency and throughput count:
one instance solved by both routes (``oracle``), one grid trial
(``grid``, ``exact``) or one condition search (``conditions``).
"""

import contextlib
import csv
import io
import math
import os
import time

import numpy as np

import calibrate
from sl1 import analysis, cli, conditions, generators, matio, solver
from sl1.rng import RngSpec, Stream

_clock = time.perf_counter

NU = math.sqrt(2.0 / math.pi)       # computed here, not taken from the package
FEAS_TOL = 1e-8
OBJ_RTOL = 1e-6
ERR_RTOL = 1e-6


class OpResult:
    """One operation: its latency, the output to check and the verdict."""

    __slots__ = ("key", "ms", "output", "failed", "incorrect", "reason")

    def __init__(self, key, ms, output=None, error=None):
        self.key = key
        self.ms = ms
        self.output = output
        self.failed = error is not None
        self.incorrect = False
        self.reason = error

    def fail(self, reason, incorrect=False):
        if not self.failed:
            self.reason = reason
        self.failed = True
        self.incorrect |= incorrect


def _highs(lp):
    """Reference optimum of the LP that solver.lp_formulate built."""
    from scipy.optimize import linprog
    res = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    n = lp.phi.shape[1]
    return float(res.fun), res.x[:n] - res.x[n:2 * n]


def _cli(argv):
    """sl1's command line in-process, its progress line kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _residual(phi, y, u):
    return float(np.abs(y - phi @ u).sum())


# -- oracle -------------------------------------------------------------


class Oracle:
    """The criterion-1 set: 100 instances with N, M <= 40, each solved
    by the exact route and the first-order route, then traced."""

    name = "oracle"
    size_seed = 31415
    data_seed = 27182
    count = 100
    max_iters = 400_000

    def __init__(self, seed):
        self.params = {"instances": self.count, "size_seed": self.size_seed,
                       "data_seed": self.data_seed, "max_iters": self.max_iters,
                       "n_max": 40, "m_max": 40, "k_max": 5, "pinned": True}

    def setup(self, out_dir):
        instances = []
        for i in range(self.count):
            st = Stream(RngSpec(self.size_seed, i))
            n = 5 + st.integer_below(36)
            m = 5 + st.integer_below(36)
            k = 1 + st.integer_below(min(5, n))
            s = 1 + st.integer_below(max(1, m // 4))
            instances.append(generators.make_instance(
                n, m, k, {"kind": "sparse", "s": s, "scale": 1.0},
                {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(self.data_seed, i)))
        return instances

    def units(self, inputs):
        return list(enumerate(inputs))

    def kernel(self):
        return calibrate.primal_dual(30, 30, 400)

    def run_unit(self, unit, clock):
        i, inst = unit
        start = clock()
        try:
            lp = solver.solve_lp_exact(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
            fo = solver.solve_first_order(inst.phi, inst.y, inst.epsilon,
                                          solver.SolverConfig(max_iters=self.max_iters))
            estimate = conditions.ConditionEstimate(
                calibration=NU, norm_dev_lower=0.0, cross_dev_lower=0.0, k=inst.k,
                samples=0, refinement="none", exhaustive=False)
            traces = [analysis.trace_recovery(inst, r, estimate) for r in (lp, fo)]
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return [OpResult(i, (clock() - start) * 1e3, error=f"{type(exc).__name__}: {exc}")]
        return [OpResult(i, (clock() - start) * 1e3,
                         output={"inst": inst, "lp": lp, "fo": fo, "traces": traces})]

    def check(self, ops):
        refs = {}
        for op in ops:
            if op.output is None:
                continue
            inst = op.output["inst"]
            if op.key not in refs:
                refs[op.key] = _highs(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))[0]
            ref = refs[op.key]
            for route in ("lp", "fo"):
                res = op.output[route]
                if res.status != "optimal":
                    op.fail(f"{route} status {res.status}")
                    continue
                residual = _residual(inst.phi, inst.y, res.u_star)
                rel = abs(res.objective - ref) / (1.0 + abs(ref))
                if residual > inst.epsilon + FEAS_TOL:
                    op.fail(f"{route} residual {residual} > eps {inst.epsilon}", incorrect=True)
                elif rel > OBJ_RTOL:
                    op.fail(f"{route} objective {res.objective} vs HiGHS {ref}", incorrect=True)
            for trace in op.output["traces"]:
                bad = [r.name for r in trace.rows if not r.conditional and not r.holds]
                if bad:
                    op.fail(f"unconditional trace rows fail: {bad}", incorrect=True)
        return {}


# -- grid and exact -----------------------------------------------------


class Grid:
    """One in-process ``sl1 grid`` run: n=256, m in {96, 128}, k=5,
    s in {0, 5}, 30 trials per cell, seed 14142; one op is one trial."""

    name = "grid"
    argv = ["--n", "256", "--m-values", "96,128", "--k-values", "5", "--s-values", "0,5",
            "--trials", "30", "--seed", "14142"]
    trials = 120

    def __init__(self, seed):
        self.params = {"argv": self.argv, "pinned": True}

    def setup(self, out_dir):
        self.out = os.path.join(out_dir, self.name)
        os.makedirs(self.out, exist_ok=True)
        return None

    def units(self, inputs):
        return [["--threads", "1", "grid", "--out", self.out, *self.argv]]

    def kernel(self):
        return calibrate.primal_dual(128, 256, 250)

    def run_unit(self, argv, clock):
        # Each trial is timed by a shim around analysis.run_trial: the
        # runtime_ms column holds whole milliseconds only.
        times = []
        inner = analysis.run_trial

        def timed_trial(*args, **kwargs):
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append((clock() - start) * 1e3)

        analysis.run_trial = timed_trial
        error = None
        try:
            code = _cli(argv)
            if code != 0:
                error = f"sl1 grid exited with {code}"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            analysis.run_trial = inner
        if error is None:
            try:
                with open(os.path.join(self.out, "trials.csv"), newline="") as fh:
                    rows = list(csv.DictReader(fh))
                summary = matio.read_json(os.path.join(self.out, "summary.json"))
            except (OSError, matio.FormatError) as exc:
                rows, error = [], f"unreadable grid output: {exc}"
            if error is None and (len(rows) != self.trials or len(times) != self.trials):
                error = f"expected {self.trials} trials, got {len(rows)} rows"
        if error is not None:
            share = sum(times) / self.trials
            return [OpResult(t, share, error=error) for t in range(self.trials)]
        return [OpResult(t, ms, output={"row": row, "summary": summary})
                for t, (row, ms) in enumerate(zip(rows, times))]

    def check(self, ops):
        refs = {}
        for op in ops:
            if op.output is None:
                continue
            row = op.output["row"]
            n, m, k, s = (int(row[c]) for c in ("N", "M", "K", "s"))
            seed, stream = (int(v) for v in row["seed"].split("/"))
            if row["seed"] not in refs:
                noise = {"kind": "none"} if s == 0 else {"kind": "sparse", "s": s, "scale": 1.0}
                inst = generators.make_instance(n, m, k, noise,
                                                {"kind": "sparse", "amplitude": "gaussian"},
                                                RngSpec(seed, stream))
                _, u_ref = _highs(solver.lp_formulate(inst.phi, inst.y, inst.epsilon))
                refs[row["seed"]] = (float(np.linalg.norm(u_ref - inst.x)),
                                     float(np.linalg.norm(inst.x)))
            err_ref, x_norm = refs[row["seed"]]
            err = float(row["err_l2"])
            if row["status"] != "optimal":
                op.fail(f"status {row['status']} after {row['iters']} iterations")
            elif not abs(err - err_ref) <= ERR_RTOL * (1.0 + x_norm):
                op.fail(f"err_l2 {err} vs HiGHS {err_ref}", incorrect=True)
        # Per-cell bound satisfaction is recorded, not counted as a failure:
        # in the noiseless cells the bound is exactly 0.
        bound_rate = {}
        statuses = {}
        for op in ops:
            if op.output is not None:
                row = op.output["row"]
                statuses[row["status"]] = statuses.get(row["status"], 0) + 1
                for cell in op.output["summary"]["cells"]:
                    key = f"m{cell['m']}_k{cell['k']}_s{cell['s']}"
                    bound_rate[key] = min(bound_rate.get(key, 1.0), cell["bound_rate"])
        return {"bound_rate_by_cell": bound_rate, "status_counts": statuses,
                "cells_with_bound_rate_0": sorted(k for k, v in bound_rate.items() if v == 0)}


class Exact(Grid):
    """One ``sl1 grid --method lp-exact`` run: n=128, m=64, k=4, s=4,
    40 trials, seed 14142; the simplex route.

    ``--max-iters 2000`` sets a 20,000-pivot cap; solves that reach it
    come back as feasible-suboptimal and count as failed ops.
    """

    name = "exact"
    argv = ["--n", "128", "--m-values", "64", "--k-values", "4", "--s-values", "4",
            "--trials", "40", "--seed", "14142", "--method", "lp-exact", "--max-iters", "2000"]
    trials = 40

    def kernel(self):
        return calibrate.tableau(129, 450, 60)


# -- conditions ---------------------------------------------------------


class Conditions:
    """``sl1 conditions --matrix`` at the default budget on two 60x200
    Gaussian matrices (k=3, sampled mode) and two 400x8 toy matrices
    (k=1, exhaustive mode, as in criterion 4); one op is one search."""

    name = "conditions"
    gauss_seed = 17320
    toy_seed = 60221
    search_seed = 60222

    def __init__(self, seed):
        self.seed = seed
        self.params = {"gaussian": {"m": 60, "n": 200, "k": 3, "count": 2,
                                    "seed": self.gauss_seed + seed},
                       "toy": {"m": 400, "n": 8, "k": 1, "count": 2,
                               "seed": self.toy_seed + seed},
                       "search_seed": self.search_seed + seed, "budget": "default"}

    def setup(self, out_dir):
        self.out_dir = os.path.join(out_dir, self.name)
        os.makedirs(self.out_dir, exist_ok=True)
        inputs = []
        for t in range(2):
            phi = generators.gen_gaussian_matrix(60, 200, RngSpec(self.gauss_seed + self.seed, t))
            inputs.append((f"gauss{t}", phi, 3, t))
            toy = generators.make_instance(8, 400, 1, {"kind": "sparse", "s": 40, "scale": 1.0},
                                           {"kind": "sparse", "amplitude": "gaussian"},
                                           RngSpec(self.toy_seed + self.seed, t))
            inputs.append((f"toy{t}", toy.phi, 1, t))
        for label, phi, _, _ in inputs:
            matio.write_matrix_bin(os.path.join(self.out_dir, f"{label}.bin"), phi)
        return inputs

    def units(self, inputs):
        return inputs

    def kernel(self):
        return calibrate.primal_dual(60, 6, 300)

    def run_unit(self, unit, clock):
        label, phi, k, stream = unit
        out = os.path.join(self.out_dir, f"{label}.json")
        argv = ["--threads", "1", "conditions", "--matrix",
                os.path.join(self.out_dir, f"{label}.bin"), "--k", str(k),
                "--seed", str(self.search_seed + self.seed), "--stream", str(stream),
                "--out", out]
        start = clock()
        try:
            code = _cli(argv)
            doc = matio.read_json(out) if code == 0 else None
            error = None if code == 0 else f"sl1 conditions exited with {code}"
        except Exception as exc:
            doc, error = None, f"{type(exc).__name__}: {exc}"
        ms = (clock() - start) * 1e3
        return [OpResult(label, ms, output={"phi": phi, "doc": doc} if doc else None,
                         error=error)]

    def check(self, ops):
        dev_sums = []
        verify_s = 0.0
        for op in ops:
            if op.output is None:
                continue
            doc, phi = op.output["doc"], op.output["phi"]
            est = _estimate_from_json(doc["estimate"])
            start = _clock()
            verified = est.verify(phi)
            verify_s += _clock() - start
            if not verified:
                op.fail("witnesses do not re-evaluate to the recorded deviations",
                        incorrect=True)
            total = est.norm_dev_lower + est.cross_dev_lower
            if total > NU - 0.5:
                expected = "violated"
            else:
                expected = "satisfied" if est.exhaustive else "inconclusive"
            if doc["verdict"] != expected:
                op.fail(f"verdict {doc['verdict']} but deviations give {expected}",
                        incorrect=True)
            dev_sums.append(total)
        return {"dev_sum": float(np.mean(dev_sums)) if dev_sums else 0.0,
                "verify_s": verify_s}


def _estimate_from_json(d):
    def part(p):
        if p is None:
            return None
        w = p["witness"]
        witness = None if w is None else conditions.DeviationWitness(
            value=w["value"], u_indices=w["u_indices"], u_coeffs=w["u_coeffs"],
            v_indices=w.get("v_indices"), v_coeffs=w.get("v_coeffs"))
        return conditions.SearchPart(value=p["value"], witness=witness, samples=p["samples"],
                                     visited=p["visited"], total=p["total"],
                                     exhaustive=p["exhaustive"], families=p["families"])
    return conditions.ConditionEstimate(
        calibration=d["calibration"], norm_dev_lower=d["norm_dev_lower"],
        cross_dev_lower=d["cross_dev_lower"], k=d["k"], samples=d["samples"],
        refinement=d["refinement"], exhaustive=d["exhaustive"],
        norm_part=part(d["norm_search"]), cross_part=part(d["cross_search"]))


WORKLOADS = {cls.name: cls for cls in (Oracle, Grid, Exact, Conditions)}
