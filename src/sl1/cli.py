"""Command-line front end: reproducible batch runs of generation,
solving, condition estimation, inequality tracing and trial grids.

Every command accepts --config <json> plus flag overrides (flags win),
and every output embeds the fully resolved configuration, so any run
can be replayed from its own output.  The instance settings of gen,
the solver settings, the search budget, the grid settings and the random
stream are the fields of _GenSettings, SolverConfig, SearchBudget,
GridSpec and RngSpec: each field's name is its config key and flag, and
its default and type are the command's.  Exit codes: 0 success, 2
invalid arguments (a config value of the wrong type included), 3 I/O or
format errors, 4 solver non-convergence.
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


def _resolve(args) -> dict:
    """Merge defaults < config file < explicit CLI flags over the
    command's keys."""
    config = _load_config(args.config) if args.config else {}
    resolved = {}
    for key, default in args.keys.items():
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


def _keys(*classes) -> dict:
    """Config keys and defaults of the settings of the classes (None:
    required)."""
    return {f.name: None if f.default is dataclasses.MISSING else f.default
            for f in _fields(*classes)}


def _build(cls, resolved: dict):
    """cls from the resolved config, each field's value coerced to its
    type; an unset value stays None where that is the field's default."""
    return cls(**{f.name: _build(f.type, resolved) if dataclasses.is_dataclass(f.type)
                  else None if resolved[f.name] is None and f.default is None
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


@dataclasses.dataclass(frozen=True)
class _GenSettings:
    """The instance settings of gen; an unset epsilon makes sparse noise
    use scale."""

    n: int
    m: int
    k: int
    signal: str = "sparse"
    amplitude: str | list = "unit"   # a law name or ["uniform", a, b]
    p: float = 1.0
    noise: str = "none"
    s: int = 1
    epsilon: float = None
    scale: float = 1.0
    quantile: float = 0.99


def cmd_gen(args) -> int:
    resolved = _resolve(args)
    _require(resolved, "out", "n", "m", "k")
    resolved["amplitude"] = _parse_amplitude(resolved["amplitude"])
    gen = _build(_GenSettings, resolved)
    signal = {"kind": gen.signal, "amplitude": gen.amplitude, "p": gen.p}
    noise = {"kind": gen.noise, "s": gen.s, "epsilon": gen.epsilon, "scale": gen.scale,
             "quantile": gen.quantile}
    instance = make_instance(gen.n, gen.m, gen.k, noise, signal, _build(RngSpec, resolved))
    save_bundle(resolved["out"], instance, extra_meta={"config": resolved})
    print(f"wrote instance bundle to {resolved['out']}")
    return EXIT_OK


def cmd_solve(args) -> int:
    resolved = _resolve(args)
    _require(resolved, "bundle", "out")
    instance = load_bundle(resolved["bundle"])
    result = solve(instance.phi, instance.y, instance.epsilon, _build(SolverConfig, resolved))
    doc = {"config": resolved}
    doc.update(result.to_json_dict())
    matio.write_json(resolved["out"], doc)
    print(f"status={result.status} objective={result.objective:.12g} "
          f"residual_l1={result.residual_l1:.12g} -> {resolved['out']}")
    return EXIT_OK if result.is_usable() else EXIT_SOLVER


def cmd_conditions(args) -> int:
    resolved = _resolve(args)
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


def cmd_trace(args) -> int:
    resolved = _resolve(args)
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


def cmd_grid(args) -> int:
    resolved = _resolve(args)
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


_CHOICES = {"method": METHODS, "signal": SIGNAL_KINDS, "noise": NOISE_KINDS}


def _add_flags(cmd, *classes):
    """One flag per setting of the classes, typed as its field."""
    for f in _fields(*classes):
        cmd.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                         type=f.type if f.type in (int, float) else None,
                         choices=_CHOICES.get(f.name))


# name: (handler, help, the command's own keys, its settings classes)
_COMMANDS = {
    "gen": (cmd_gen, "generate an instance bundle", ("out",), (_GenSettings, RngSpec)),
    "solve": (cmd_solve, "solve a bundle", ("bundle", "out"), (SolverConfig,)),
    "conditions": (cmd_conditions, "estimate deviation constants",
                   ("bundle", "matrix", "out", "k"), (RngSpec, SearchBudget)),
    "trace": (cmd_trace, "solve a bundle and trace the bound inequalities",
              ("bundle", "out"), (SolverConfig, RngSpec, SearchBudget)),
    "grid": (cmd_grid, "run a trial grid", ("out",), (GridSpec,)),
}


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
    for name, (func, help_text, own, classes) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config")
        for key in own:  # paths, and the sparsity k of conditions
            cmd.add_argument("--" + key, type=int if key == "k" else None)
        _add_flags(cmd, *classes)
        cmd.set_defaults(func=func, keys={**dict.fromkeys(own), **_keys(*classes)})
    return parser


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:  # built once per process: every call parses into a new namespace
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
