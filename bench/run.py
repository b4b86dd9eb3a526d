"""Benchmark runner for sl1.

    python3 bench/run.py --workload {oracle,grid,exact,conditions,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  BLAS is pinned
to one thread and the package runs with ``--threads 1``.

``--trace 0`` sets the workload up several times (``setup_s`` is the
import time plus the median set-up), then runs whole cycles over the
workload's units until ``--seconds`` have passed and reports the
end-to-end metrics; the ``*_norm`` ones are rescaled by the machine
speed that ``calibrate.Calibration`` measures during the window.
``--trace 1`` runs one cycle untraced and the same
cycle traced, and reports the per-layer metrics plus the tracing
overhead.  After either, every op is checked against an independent
reference; that time is reported as ``check_s`` and is in no metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from BENCHMARK.json.  A fuller record (provenance, every
metric, failure reasons, spans) goes to .bench_out/records/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("oracle", "grid", "exact", "conditions")


class UsageError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise UsageError(f"{path} is missing")
    with open(path) as fh:
        return json.load(fh)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "sl1", "__init__.py")):
        raise UsageError(f"no sl1 sources under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]
    import sl1
    if os.path.dirname(os.path.abspath(sl1.__file__)) != os.path.join(SRC, "sl1"):
        raise UsageError(f"sl1 imported from {sl1.__file__}, not from {SRC}")
    import calibrate
    import layers
    import tracing
    import workloads
    return workloads, layers, tracing, calibrate


# -- provenance ---------------------------------------------------------


def _git():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(["git", "--no-optional-locks", "-C", ROOT, "status",
                                 "--porcelain"], capture_output=True, text=True, env=env,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed, params):
    import numpy
    import scipy
    sha, dirty = _git()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_version,
        "blas_threads": _blas_threads(), "package_threads": 1,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "seed": seed, "params": params,
    }


# -- measurement --------------------------------------------------------


def _tail(ms):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(ms)
    if n < 11:
        return None, None
    import numpy
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return q, float(numpy.percentile(ms, q))


def _window(wl, units, seconds, clock):
    """Run whole cycles over ``units`` until ``seconds`` have passed on
    ``clock``, so every op of the workload counts equally however many
    cycles fit."""
    ops = []
    cycles = 0
    start = clock()
    while True:
        for unit in units:
            ops.extend(wl.run_unit(unit, clock))
        cycles += 1
        busy = clock() - start
        if busy >= seconds:
            return ops, busy, cycles


def run_workload(name, seed, seconds, trace, mods, import_s):
    workloads, layers, tracing, calibrate = mods
    wl = workloads.WORKLOADS[name](seed)
    clock = time.perf_counter
    info = {}
    metrics = {}
    tracer = None
    speed = None
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            inputs = wl.setup(OUT_DIR)
            setups.append(clock() - start)
        with calibrate.Calibration(wl.kernel()) as cal:
            ops, elapsed, info["cycles"] = _window(wl, wl.units(inputs), seconds, cal.clock)
        speed = cal.speed()
        info["machine_speed"] = speed
        metrics["setup_s"] = (import_s + statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        info.update(import_s=import_s, setup_runs_s=setups, window_s=elapsed)
        checked = ops
    else:
        # One cycle untraced, then the same cycle traced: the difference
        # is the tracing overhead.  Set-up is traced too, since it is where
        # oracle and conditions generate their inputs.
        tracer = tracing.Tracer()
        tracer.install(layers.HOOKS)
        try:
            with tracer.region("bench.setup"):
                inputs = wl.setup(OUT_DIR)
        finally:
            tracer.uninstall()
        units = wl.units(inputs)
        ops, elapsed, _ = _window(wl, units, 0, clock)
        tracer.install(layers.HOOKS)
        try:
            with tracer.region("bench.cycle") as span:
                traced_ops = [op for unit in units for op in wl.run_unit(unit, clock)]
        finally:
            tracer.uninstall()
        traced_s = span["end"] - span["start"]
        info.update(untraced_cycle_s=elapsed, traced_cycle_s=traced_s,
                    absent_hooks=tracer.absent, hooks_fired=tracer.fired())
        checked = ops + traced_ops

    start = clock()
    extra = wl.check(checked)
    info["check_s"] = clock() - start
    info.update(extra)

    ms = [op.ms for op in ops]
    failed = sum(op.failed for op in ops)
    info["op_ms_tail_percentile"], tail = _tail(ms)
    info["ops"] = len(ops)
    metrics.update({
        "ops_per_s": (len(ops) / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "fail_rate": (failed / len(ops), "share"),
    })
    if speed is not None:
        # rescaled to the calibration loop's reference speed
        metrics["ops_per_s_norm"] = (len(ops) / elapsed * speed, "1/s")
        metrics["op_ms_p50_norm"] = (statistics.median(ms) / speed, "ms")
    if "dev_sum" in extra:
        metrics["dev_sum"] = (extra["dev_sum"], "1")
    if trace:
        for key, value in layers.per_layer(tracer).items():
            metrics[key] = (value, None)
        metrics["trace.overhead"] = (traced_s / elapsed - 1.0, "share")
        metrics["conditions.verify.s"] = (extra.get("verify_s", 0.0), "s")
        metrics["conditions.dev_sum"] = (extra.get("dev_sum", 0.0), "1")

    record = {
        "workload": name, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed, wl.params),
        "metrics": {k: v[0] for k, v in metrics.items()},
        "info": info,
        "failures": [f"{op.key}: {op.reason}" for op in checked if op.failed][:50],
        "incorrect": [f"{op.key}: {op.reason}" for op in checked if op.incorrect][:50],
    }
    if tracer is not None:
        record["trace_dump"] = tracer.dump()
    return metrics, checked, record


def _emit(spec_metrics, metrics):
    out = {}
    for entry in spec_metrics:
        value = metrics.get(entry["name"], (None,))[0]
        if value is None:
            raise RuntimeError(f"metric {entry['name']} was not measured")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def _write_record(record, seed):
    directory = os.path.join(OUT_DIR, "records")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        f"{record['workload']}-seed{seed}-trace{record['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


def main(argv=None):
    args = _parse(argv)
    try:
        spec = _load_spec()
        mods = _import_package()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    section = "per_layer" if args.trace else "end_to_end"
    unit_of = {e["name"]: e["unit"] for key in ("end_to_end", "per_layer") for e in spec[key]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        metrics, ops, record = run_workload(name, args.seed, args.seconds, args.trace,
                                            mods, import_s)
        path = _write_record(record, args.seed)
        print(f"# workload {name}: {len(ops)} ops, record {os.path.relpath(path, ROOT)}")
        for key, (value, unit) in sorted(metrics.items()):
            if value is not None:
                print(f"{name} {key} {value:.6g} {unit_of.get(key, unit)}")
        print(f"{name} info {json.dumps(record['info'], default=str, sort_keys=True)}")
        results[name] = (metrics, ops)
    ops = [op for _, found in results.values() for op in found]
    if args.workload == "all":
        emitted = {f"{name}.{key}": value for name, (metrics, _) in results.items()
                   for key, value in _emit(spec[section], metrics).items()}
    else:
        emitted = _emit(spec[section], results[args.workload][0])
    print(json.dumps({"correct": not any(op.incorrect for op in ops),
                      "attempted": len(ops), "failed": sum(op.failed for op in ops),
                      "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
