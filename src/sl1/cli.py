"""Command-line front end: reproducible batch runs of generation,
solving, condition estimation, inequality tracing and trial grids.

Every command accepts --config <json> plus flag overrides (flags win),
and every output embeds the fully resolved configuration, so any run
can be replayed from its own output.  Exit codes: 0 success, 2 invalid
arguments, 3 I/O or format errors, 4 solver non-convergence.
"""

import argparse
import dataclasses
import os
import sys

from . import matio
from .analysis import GridSpec, run_grid, trace_recovery
from .conditions import SearchBudget, condition_verdict, estimate_conditions
from .generators import load_bundle, make_instance, save_bundle
from .matio import FormatError
from .rng import RngSpec
from .solver import METHOD_FIRST_ORDER, METHOD_LP, SolverConfig, solve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4


def _load_config(path) -> dict:
    doc = matio.read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    if isinstance(doc.get("config"), dict):
        doc = doc["config"]  # allow replaying from an embedded echo
    return doc


def _resolve(args, keys: dict) -> dict:
    """Merge defaults < config file < explicit CLI flags."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    return resolved


def _require(resolved: dict, *keys):
    for key in keys:
        if resolved.get(key) is None:
            raise ValueError(f"missing required parameter: {key}")


def _parse_amplitude(value):
    """Normalise the uniform amplitude law, given as "uniform:a:b" or as
    a ["uniform", a, b] list, to the list form; other values pass through
    to the generator, which rejects unknown laws."""
    if isinstance(value, str) and value.startswith("uniform:"):
        value = ["uniform", *value.split(":")[1:]]
    if isinstance(value, (list, tuple)) and len(value) == 3 and value[0] == "uniform":
        return ["uniform", float(value[1]), float(value[2])]
    return value


def _parse_int_list(value):
    if isinstance(value, str):
        return tuple(int(tok) for tok in value.split(",") if tok.strip())
    return tuple(int(v) for v in value)


def _solver_config(resolved: dict) -> SolverConfig:
    return SolverConfig(
        method=resolved["method"],
        feasibility_tol=float(resolved["feasibility_tol"]),
        objective_tol=float(resolved["objective_tol"]),
        max_iters=int(resolved["max_iters"]),
    )


def _budget(resolved: dict) -> SearchBudget:
    return SearchBudget(
        num_supports=int(resolved["supports"]),
        num_pairs=int(resolved["pairs"]),
        starts=int(resolved["starts"]),
        steps=int(resolved["steps"]),
        exhaustive_cap=int(resolved["exhaustive_cap"]),
        overlap_share=float(resolved["overlap_share"]),
    )


# Settings shared by several commands, each declared once.
_SOLVER_KEYS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
_SEARCH_KEYS = {
    "seed": 0, "stream": 0,
    "supports": 64, "pairs": 128, "starts": 6, "steps": 40,
    "exhaustive_cap": 10_000, "overlap_share": 0.5,
}

_GEN_KEYS = {
    "out": None, "n": None, "m": None, "k": None,
    "seed": 0, "stream": 0,
    "signal": "sparse", "amplitude": "unit", "p": 1.0,
    "noise": "none", "s": 1, "epsilon": None, "scale": 1.0, "quantile": 0.99,
}


def cmd_gen(args) -> int:
    resolved = _resolve(args, _GEN_KEYS)
    _require(resolved, "out", "n", "m", "k")
    resolved["amplitude"] = _parse_amplitude(resolved["amplitude"])
    if resolved["signal"] == "sparse":
        signal_spec = {"kind": "sparse", "amplitude": resolved["amplitude"]}
    else:
        signal_spec = {"kind": "compressible", "p": float(resolved["p"])}
    kind = resolved["noise"]
    if kind == "none":
        noise_spec = {"kind": "none"}
    elif kind == "sparse":
        noise_spec = {"kind": "sparse", "s": int(resolved["s"])}
        if resolved["epsilon"] is not None:
            noise_spec["epsilon"] = float(resolved["epsilon"])
        else:
            noise_spec["scale"] = float(resolved["scale"])
    elif kind == "laplacian":
        noise_spec = {"kind": "laplacian", "quantile": float(resolved["quantile"])}
    else:
        raise ValueError(f"unknown noise kind {kind!r}")

    rng = RngSpec(int(resolved["seed"]), int(resolved["stream"]))
    instance = make_instance(int(resolved["n"]), int(resolved["m"]), int(resolved["k"]),
                             noise_spec, signal_spec, rng)
    save_bundle(resolved["out"], instance, extra_meta={"config": resolved})
    print(f"wrote instance bundle to {resolved['out']}")
    return EXIT_OK


_SOLVE_KEYS = {"bundle": None, "out": None, **_SOLVER_KEYS}


def cmd_solve(args) -> int:
    resolved = _resolve(args, _SOLVE_KEYS)
    _require(resolved, "bundle", "out")
    instance = load_bundle(resolved["bundle"])
    result = solve(instance.phi, instance.y, instance.epsilon, _solver_config(resolved))
    doc = {"config": resolved}
    doc.update(result.to_json_dict())
    matio.write_json(resolved["out"], doc)
    print(f"status={result.status} objective={result.objective:.12g} "
          f"residual_l1={result.residual_l1:.12g} -> {resolved['out']}")
    return EXIT_OK if result.is_usable() else EXIT_SOLVER


_CONDITIONS_KEYS = {"bundle": None, "matrix": None, "out": None, "k": None, **_SEARCH_KEYS}


def cmd_conditions(args) -> int:
    resolved = _resolve(args, _CONDITIONS_KEYS)
    _require(resolved, "out")
    if resolved["bundle"]:
        instance = load_bundle(resolved["bundle"])
        phi = instance.phi
        if resolved["k"] is None:
            resolved["k"] = instance.k
    elif resolved["matrix"]:
        phi = matio.read_matrix_bin(resolved["matrix"])
    else:
        raise ValueError("missing required parameter: bundle or matrix")
    _require(resolved, "k")
    rng = RngSpec(int(resolved["seed"]), int(resolved["stream"]))
    estimate = estimate_conditions(phi, int(resolved["k"]), _budget(resolved), rng)
    doc = {"config": resolved, "verdict": condition_verdict(estimate),
           "estimate": estimate.as_dict()}
    matio.write_json(resolved["out"], doc)
    print(f"verdict={doc['verdict']} norm_dev={estimate.norm_dev_lower:.6g} "
          f"cross_dev={estimate.cross_dev_lower:.6g} -> {resolved['out']}")
    return EXIT_OK


_TRACE_KEYS = {**_SOLVE_KEYS, **_SEARCH_KEYS}


def cmd_trace(args) -> int:
    resolved = _resolve(args, _TRACE_KEYS)
    _require(resolved, "bundle", "out")
    instance = load_bundle(resolved["bundle"])
    result = solve(instance.phi, instance.y, instance.epsilon, _solver_config(resolved))
    if not result.is_usable():
        print(f"solver did not converge (status={result.status}); no trace written",
              file=sys.stderr)
        return EXIT_SOLVER
    rng = RngSpec(int(resolved["seed"]), int(resolved["stream"]))
    estimate = estimate_conditions(instance.phi, instance.k, _budget(resolved), rng)
    trace = trace_recovery(instance, result, estimate,
                           feasibility_tol=float(resolved["feasibility_tol"]))
    doc = {"config": resolved,
           "solver": {"objective": result.objective, "residual_l1": result.residual_l1,
                      "status": result.status, "iters": result.iters},
           "trace": trace.as_dict()}
    matio.write_json(resolved["out"], doc)
    failed = [r.name for r in trace.rows if not r.holds]
    print(f"condition={trace.condition} rows={len(trace.rows)} "
          f"failing={failed or 'none'} -> {resolved['out']}")
    return EXIT_OK


_GRID_KEYS = {
    "out": None, "n": None, "m_values": None, "k_values": None, "s_values": None,
    "trials": 10, "seed": 0, "stream": 0, "amplitude": "gaussian", "spike_scale": 1.0,
    **_SOLVER_KEYS,
}


def cmd_grid(args) -> int:
    resolved = _resolve(args, _GRID_KEYS)
    _require(resolved, "out", "n", "m_values", "k_values", "s_values")
    for key in ("m_values", "k_values", "s_values"):
        resolved[key] = list(_parse_int_list(resolved[key]))
    resolved["amplitude"] = _parse_amplitude(resolved["amplitude"])
    spec = GridSpec.from_dict(resolved)
    result = run_grid(spec)
    os.makedirs(resolved["out"], exist_ok=True)
    matio.atomic_write_text(os.path.join(resolved["out"], "trials.csv"), result.trials_csv())
    summary = result.summary_dict()
    summary["config"]["out"] = resolved["out"]
    matio.write_json(os.path.join(resolved["out"], "summary.json"), summary)
    print(f"ran {len(result.records)} trials over {len(spec.cells())} cells "
          f"-> {resolved['out']}")
    return EXIT_OK


def _add_solver_flags(cmd):
    cmd.add_argument("--method", choices=(METHOD_LP, METHOD_FIRST_ORDER))
    cmd.add_argument("--feasibility-tol", dest="feasibility_tol", type=float)
    cmd.add_argument("--objective-tol", dest="objective_tol", type=float)
    cmd.add_argument("--max-iters", dest="max_iters", type=int)


def _add_search_flags(cmd):
    for key, default in _SEARCH_KEYS.items():
        cmd.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl1",
        description="Sparse recovery with an l1 residual constraint: generate "
                    "instances, solve them, estimate deviation constants, trace "
                    "the error-bound inequalities and run trial grids.")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect (every run "
                             "is sequential and its output does not depend on it)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance bundle")
    gen.add_argument("--config")
    gen.add_argument("--out")
    for flag in ("n", "m", "k", "seed", "stream", "s"):
        gen.add_argument(f"--{flag}", type=int)
    gen.add_argument("--signal", choices=("sparse", "compressible"))
    gen.add_argument("--amplitude")
    gen.add_argument("--p", type=float)
    gen.add_argument("--noise", choices=("none", "sparse", "laplacian"))
    gen.add_argument("--epsilon", type=float)
    gen.add_argument("--scale", type=float)
    gen.add_argument("--quantile", type=float)
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", help="solve a bundle")
    slv.add_argument("--config")
    slv.add_argument("--bundle")
    slv.add_argument("--out")
    _add_solver_flags(slv)
    slv.set_defaults(func=cmd_solve)

    cond = sub.add_parser("conditions", help="estimate deviation constants")
    cond.add_argument("--config")
    cond.add_argument("--bundle")
    cond.add_argument("--matrix")
    cond.add_argument("--out")
    cond.add_argument("--k", type=int)
    _add_search_flags(cond)
    cond.set_defaults(func=cmd_conditions)

    trc = sub.add_parser("trace", help="solve a bundle and trace the bound inequalities")
    trc.add_argument("--config")
    trc.add_argument("--bundle")
    trc.add_argument("--out")
    _add_solver_flags(trc)
    _add_search_flags(trc)
    trc.set_defaults(func=cmd_trace)

    grd = sub.add_parser("grid", help="run a trial grid")
    grd.add_argument("--config")
    grd.add_argument("--out")
    grd.add_argument("--n", type=int)
    grd.add_argument("--m-values", dest="m_values")
    grd.add_argument("--k-values", dest="k_values")
    grd.add_argument("--s-values", dest="s_values")
    grd.add_argument("--trials", type=int)
    grd.add_argument("--seed", type=int)
    grd.add_argument("--stream", type=int)
    grd.add_argument("--amplitude")
    grd.add_argument("--spike-scale", dest="spike_scale", type=float)
    _add_solver_flags(grd)
    grd.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
