"""Command-line front end: reproducible batch runs of generation,
solving, condition estimation, inequality tracing and trial grids.

Every command accepts --config <json> plus flag overrides (flags win),
and every output embeds the fully resolved configuration, so any run
can be replayed from its own output.  The solver settings, the search
budget and the grid settings are the fields of SolverConfig,
SearchBudget and GridSpec: each field's name is its config key and
flag, and its default and type are the command's.  Exit codes: 0
success, 2 invalid arguments (a config value of the wrong type
included), 3 I/O or format errors, 4 solver non-convergence.
"""

import argparse
import dataclasses
import os
import sys

from . import matio
from .analysis import GridSpec, run_grid, trace_recovery
from .conditions import SearchBudget, condition_verdict, estimate_conditions
from .generators import NOISE_KINDS, SIGNAL_KINDS, load_bundle, make_instance, save_bundle
from .matio import FormatError
from .rng import RngSpec
from .solver import METHODS, SolverConfig, solve

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
    for key in ("bundle", "matrix", "out"):
        if resolved.get(key) is not None:
            _coerce(key, resolved[key], str)
    return resolved


def _require(resolved: dict, *keys):
    for key in keys:
        if resolved.get(key) is None:
            raise ValueError(f"missing required parameter: {key}")


def _integer(value) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


_KINDS = {int: "an integer", float: "a number", tuple: "a list of integers", str: "a string"}


def _coerce(key: str, value, kind):
    """value as an int, float, tuple of ints ("1,2" or a list) or str.
    Numeric strings and integral floats convert; any other value of the
    wrong type, a JSON boolean included, raises a ValueError that names
    the key.  A value of another kind (the grid's amplitude law) passes
    through."""
    try:
        if kind is int:
            return _integer(value)
        if kind is float:
            if isinstance(value, bool):
                raise TypeError(value)
            return float(value)
        if kind is tuple:
            items = [t for t in value.split(",") if t.strip()] if isinstance(value, str) else value
            return tuple(_integer(v) for v in items)
        if kind is str and not isinstance(value, str):
            raise TypeError(value)
        return value
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be {_KINDS[kind]}, got {value!r}") from None


def _fields(*classes) -> list:
    """The fields of the classes, a nested dataclass's fields in its place."""
    return [g for cls in classes for f in dataclasses.fields(cls)
            for g in (_fields(f.type) if dataclasses.is_dataclass(f.type) else [f])]


def _keys(cls) -> dict:
    """Config keys and defaults of the settings of cls (None: required)."""
    return {f.name: None if f.default is dataclasses.MISSING else f.default
            for f in _fields(cls)}


def _build(cls, resolved: dict):
    """cls from the resolved config, each field's value coerced to its type."""
    return cls(**{f.name: _build(f.type, resolved) if dataclasses.is_dataclass(f.type)
                  else _coerce(f.name, resolved[f.name], f.type)
                  for f in dataclasses.fields(cls)})


def _parse_amplitude(value):
    """Normalise the uniform amplitude law, given as "uniform:a:b" or as
    a ["uniform", a, b] list, to the list form; other values pass through
    to the generator, which rejects unknown laws."""
    if isinstance(value, str) and value.startswith("uniform:"):
        value = ["uniform", *value.split(":")[1:]]
    if isinstance(value, (list, tuple)) and len(value) == 3 and value[0] == "uniform":
        return ["uniform", *(_coerce("amplitude", v, float) for v in value[1:])]
    return value


# Settings shared by several commands, each declared once: the random
# stream's keys here, the solver's and the searches' as dataclass fields.
_RNG_KEYS = {"seed": 0, "stream": 0}
_SOLVER_KEYS = _keys(SolverConfig)
_SEARCH_KEYS = {**_RNG_KEYS, **_keys(SearchBudget)}

_GEN_KEYS = {
    "out": None, "n": None, "m": None, "k": None, **_RNG_KEYS,
    "signal": "sparse", "amplitude": "unit", "p": 1.0,
    "noise": "none", "s": 1, "epsilon": None, "scale": 1.0, "quantile": 0.99,
}
_GEN_NUMBERS = {"n": int, "m": int, "k": int, "p": float,
                "s": int, "epsilon": float, "scale": float, "quantile": float}


def cmd_gen(args) -> int:
    resolved = _resolve(args, _GEN_KEYS)
    _require(resolved, "out", "n", "m", "k")
    resolved["amplitude"] = _parse_amplitude(resolved["amplitude"])
    # every number is coerced; only epsilon may stay unset (sparse noise then uses scale)
    num = {key: None if key == "epsilon" and resolved[key] is None
           else _coerce(key, resolved[key], kind) for key, kind in _GEN_NUMBERS.items()}
    signal = {"kind": resolved["signal"], "amplitude": resolved["amplitude"], "p": num["p"]}
    noise = {"kind": resolved["noise"], "s": num["s"], "epsilon": num["epsilon"],
             "scale": num["scale"], "quantile": num["quantile"]}
    instance = make_instance(num["n"], num["m"], num["k"], noise, signal,
                             _build(RngSpec, resolved))
    save_bundle(resolved["out"], instance, extra_meta={"config": resolved})
    print(f"wrote instance bundle to {resolved['out']}")
    return EXIT_OK


_SOLVE_KEYS = {"bundle": None, "out": None, **_SOLVER_KEYS}


def cmd_solve(args) -> int:
    resolved = _resolve(args, _SOLVE_KEYS)
    _require(resolved, "bundle", "out")
    instance = load_bundle(resolved["bundle"])
    result = solve(instance.phi, instance.y, instance.epsilon, _build(SolverConfig, resolved))
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
    estimate = estimate_conditions(phi, _coerce("k", resolved["k"], int),
                                   _build(SearchBudget, resolved), _build(RngSpec, resolved))
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
    config, budget, rng = (_build(cls, resolved) for cls in (SolverConfig, SearchBudget, RngSpec))
    result = solve(instance.phi, instance.y, instance.epsilon, config)
    if not result.is_usable():
        print(f"solver did not converge (status={result.status}); no trace written",
              file=sys.stderr)
        return EXIT_SOLVER
    estimate = estimate_conditions(instance.phi, instance.k, budget, rng)
    trace = trace_recovery(instance, result, estimate, feasibility_tol=config.feasibility_tol)
    doc = {"config": resolved,
           "solver": {"objective": result.objective, "residual_l1": result.residual_l1,
                      "status": result.status, "iters": result.iters},
           "trace": trace.as_dict()}
    matio.write_json(resolved["out"], doc)
    failed = [r.name for r in trace.rows if not r.holds]
    print(f"condition={trace.condition} rows={len(trace.rows)} "
          f"failing={failed or 'none'} -> {resolved['out']}")
    return EXIT_OK


_GRID_KEYS = {"out": None, **_keys(GridSpec)}


def cmd_grid(args) -> int:
    resolved = _resolve(args, _GRID_KEYS)
    _require(resolved, "out", "n", "m_values", "k_values", "s_values")
    resolved["amplitude"] = _parse_amplitude(resolved["amplitude"])
    spec = _build(GridSpec, resolved)
    result = run_grid(spec)
    os.makedirs(resolved["out"], exist_ok=True)
    matio.atomic_write_text(os.path.join(resolved["out"], "trials.csv"), result.trials_csv())
    summary = result.summary_dict()
    summary["config"]["out"] = resolved["out"]
    matio.write_json(os.path.join(resolved["out"], "summary.json"), summary)
    print(f"ran {len(result.records)} trials over {len(spec.cells())} cells "
          f"-> {resolved['out']}")
    return EXIT_OK


def _add_flags(cmd, *classes):
    """One flag per setting of the classes, typed as its field."""
    for f in _fields(*classes):
        cmd.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                         type=f.type if f.type in (int, float) else None,
                         choices=METHODS if f.name == "method" else None)


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
    gen.add_argument("--signal", choices=SIGNAL_KINDS)
    gen.add_argument("--amplitude")
    gen.add_argument("--p", type=float)
    gen.add_argument("--noise", choices=NOISE_KINDS)
    gen.add_argument("--epsilon", type=float)
    gen.add_argument("--scale", type=float)
    gen.add_argument("--quantile", type=float)
    gen.set_defaults(func=cmd_gen)

    slv = sub.add_parser("solve", help="solve a bundle")
    slv.add_argument("--config")
    slv.add_argument("--bundle")
    slv.add_argument("--out")
    _add_flags(slv, SolverConfig)
    slv.set_defaults(func=cmd_solve)

    cond = sub.add_parser("conditions", help="estimate deviation constants")
    cond.add_argument("--config")
    cond.add_argument("--bundle")
    cond.add_argument("--matrix")
    cond.add_argument("--out")
    cond.add_argument("--k", type=int)
    _add_flags(cond, RngSpec, SearchBudget)
    cond.set_defaults(func=cmd_conditions)

    trc = sub.add_parser("trace", help="solve a bundle and trace the bound inequalities")
    trc.add_argument("--config")
    trc.add_argument("--bundle")
    trc.add_argument("--out")
    _add_flags(trc, SolverConfig, RngSpec, SearchBudget)
    trc.set_defaults(func=cmd_trace)

    grd = sub.add_parser("grid", help="run a trial grid")
    grd.add_argument("--config")
    grd.add_argument("--out")
    _add_flags(grd, GridSpec)
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
