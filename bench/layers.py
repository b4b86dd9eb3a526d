"""The traced boundaries of sl1 and the per-layer metrics derived from them.

Every hook names a module attribute of the package; the metrics below
are computed from the spans and aggregates a ``tracing.Tracer``
collected.  Counts are exact and repeat between runs of one seed;
times are wall-clock seconds on one thread.
"""

import numpy as np

from tracing import Hook

# The first-order loop checks its certificate every CHECK_EVERY
# iterations (sl1.solver's default step_params); used only to derive
# the computed mat-vec count.
CHECK_EVERY = 10


def _fo_info(args, kwargs, result):
    phi = args[0]
    config = args[3] if len(args) > 3 else kwargs.get("config")
    cert = result.certificate or {}
    return {"iters": int(result.iters), "stop": cert.get("stop"),
            "m": int(phi.shape[0]), "n": int(phi.shape[1]),
            "max_iters": int(config.max_iters) if config is not None else None}


def _lp_exact_info(args, kwargs, result):
    lp = args[0]
    usable = result.is_usable()
    return {"status": result.status, "usable": usable,
            "infeasible_usable": bool(usable and result.residual_l1 > lp.epsilon + 1e-8)}


def _simplex_info(args, kwargs, result):
    return {"pivots": int(result.pivots), "status": result.status}


def _search_info(args, kwargs, result):
    budget = args[2] if len(args) > 2 else kwargs.get("budget")
    return {"evals": int(result.samples), "visited": int(result.visited),
            "starts": int(budget.starts)}


def _write_info(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs.get("data")
    return {"bytes": len(data)}


_STREAM_METHODS = ("raw", "uniform", "open_uniform", "normal", "laplace", "signs",
                   "integer_below", "subset", "permutation", "unit_vector")

HOOKS = [
    Hook("cli.main", "sl1.cli:main"),
    Hook("analysis.run_trial", "sl1.analysis:run_trial"),
    Hook("analysis.trace", "sl1.analysis:trace_recovery"),
    Hook("generators.make_instance", "sl1.generators:make_instance"),
    Hook("solver.fo", "sl1.solver:solve_first_order", info=_fo_info),
    Hook("solver.norm_est", "sl1.solver:operator_norm_estimate"),
    Hook("solver.prox", "sl1.solver:soft_threshold", kind="agg"),
    Hook("solver.proj", "sl1.solver:project_l1_ball", kind="agg"),
    Hook("solver.polish", "sl1.solver:_FeasibilityPolish.candidate", kind="agg"),
    Hook("solver.lp_formulate", "sl1.solver:lp_formulate"),
    Hook("solver.lp_exact", "sl1.solver:solve_lp_exact", info=_lp_exact_info),
    Hook("simplex", "sl1.simplex:solve_canonical", info=_simplex_info),
    Hook("conditions.norm", "sl1.conditions:estimate_norm_deviation", info=_search_info),
    Hook("conditions.cross", "sl1.conditions:estimate_cross_deviation", info=_search_info),
    Hook("core.mat_vec", "sl1.core:mat_vec", kind="agg"),
    Hook("matio.write", "sl1.matio:atomic_write_bytes", info=_write_info),
] + [Hook("rng", f"sl1.rng:Stream.{name}", kind="rng") for name in _STREAM_METHODS]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _fo_metrics(tracer):
    spans = tracer.named("solver.fo")
    infos = [s["info"] for s in spans if "info" in s]
    iters = [i["iters"] for i in infos]
    total = sum(iters)
    seconds = tracer.seconds("solver.fo")
    stops = [i["stop"] for i in infos]
    matvecs = 0
    nbytes = 0
    for span in spans:
        info = span.get("info")
        if info is None:
            continue
        it = info["iters"]
        checks = it // CHECK_EVERY + (1 if it % CHECK_EVERY and it == info["max_iters"] else 0)
        polish = span.get("calls", {}).get("solver.polish", 0)
        # 2 per iteration, 1 residual per check, 2 per polish (correction
        # and its residual), 1 final dual product; the power iteration of
        # the norm estimate is not included.
        count = 2 * it + checks + 2 * polish + (1 if it else 0)
        matvecs += count
        nbytes += count * info["m"] * info["n"] * 8
    return {
        "solver.fo.calls": len(spans),
        "solver.fo.s": seconds,
        "solver.fo.iters_total": total,
        "solver.fo.iters_p50": _pct(iters, 50),
        "solver.fo.iters_p90": _pct(iters, 90),
        "solver.fo.iters_max": max(iters, default=0),
        "solver.fo.us_per_iter": seconds / total * 1e6 if total else 0.0,
        "solver.fo.stop_gap": stops.count("gap"),
        "solver.fo.stop_stall": stops.count("stall"),
        "solver.fo.stop_cap": stops.count("cap"),
        "solver.matvec.computed": matvecs,
        "solver.matvec.bytes_computed": nbytes,
    }


def _simplex_metrics(tracer):
    infos = [s["info"] for s in tracer.named("simplex") if "info" in s]
    pivots = [i["pivots"] for i in infos]
    total = sum(pivots)
    seconds = tracer.seconds("simplex")
    capped = [i["pivots"] for i in infos if i["status"] == "pivot-limit"]
    exact = [s["info"] for s in tracer.named("solver.lp_exact") if "info" in s]
    return {
        "simplex.calls": len(tracer.named("simplex")),
        "simplex.s": seconds,
        "simplex.pivots_total": total,
        "simplex.pivots_p90": _pct(pivots, 90),
        "simplex.pivots_max": max(pivots, default=0),
        "simplex.us_per_pivot": seconds / total * 1e6 if total else 0.0,
        "simplex.capped": len(capped),
        "simplex.wasted_pivot_share": sum(capped) / total if total else 0.0,
        "solver.lp_exact.infeasible_usable": sum(i["infeasible_usable"] for i in exact),
    }


def _conditions_metrics(tracer):
    out = {}
    evals = visited = 0
    for part in ("norm", "cross"):
        infos = [s["info"] for s in tracer.named(f"conditions.{part}") if "info" in s]
        out[f"conditions.{part}.s"] = tracer.seconds(f"conditions.{part}")
        out[f"conditions.{part}.evals"] = sum(i["evals"] for i in infos)
        evals += out[f"conditions.{part}.evals"]
        visited += sum(i["visited"] for i in infos)
        if part == "norm":
            # each visited support runs one ascent per start and direction
            out["conditions.ascent.calls"] = sum(2 * i["visited"] * i["starts"] for i in infos)
    search_s = out["conditions.norm.s"] + out["conditions.cross.s"]
    out["conditions.us_per_eval"] = search_s / evals * 1e6 if evals else 0.0
    out["conditions.visited"] = visited
    return out


def per_layer(tracer):
    """Every per-layer metric the hooks support, keyed by metric name."""
    out = {}
    out.update(_fo_metrics(tracer))
    out.update(_simplex_metrics(tracer))
    out.update(_conditions_metrics(tracer))
    for name in ("solver.prox", "solver.proj", "solver.polish", "core.mat_vec", "rng"):
        out[f"{name}.calls"], out[f"{name}.s"] = tracer.agg(name)
    for name in ("solver.norm_est", "generators.make_instance", "analysis.trace",
                 "matio.write"):
        out[f"{name}.calls"] = len(tracer.named(name))
        out[f"{name}.s"] = tracer.seconds(name)
    out["solver.lp_formulate.s"] = tracer.seconds("solver.lp_formulate")
    out["matio.bytes_written"] = sum(s["info"]["bytes"] for s in tracer.named("matio.write")
                                     if "info" in s)
    out["analysis.run_trial.self_s"] = tracer.self_seconds("analysis.run_trial")
    out["cli.self_s"] = tracer.self_seconds("cli.main")
    return out
