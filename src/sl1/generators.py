"""Seed-driven generation of sensing matrices, signals, noise and
complete observation instances y = phi @ x + n with ||n||_1 <= epsilon.

Every generator is a pure function of its parameters and an RngSpec;
identical inputs reproduce identical outputs bit for bit.  Instances
record the achieved noise budget: sparse noise is rescaled to spend the
epsilon budget exactly (the worst admissible case), and the stored
epsilon always equals or exceeds the realized ||n||_1.
"""

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import core, matio
from .rng import SAMPLER_NAME, RngSpec, Stream

FORMAT_REVISION = "1"

_AMPLITUDE_KINDS = ("unit", "gaussian", "uniform")
SIGNAL_KINDS = ("sparse", "compressible")
NOISE_KINDS = ("none", "sparse", "laplacian")


def gen_gaussian_matrix(m: int, n: int, rng: RngSpec) -> np.ndarray:
    """M x N matrix of i.i.d. standard normal entries (variance 1,
    deliberately not scaled by 1/sqrt(M))."""
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m}x{n}")
    return Stream(rng).normal(m * n).reshape(m, n)


def _nonzero_normals(stream: Stream, k: int) -> np.ndarray:
    vals = stream.normal(k)
    while True:
        zero = vals == 0.0
        if not zero.any():
            return vals
        vals[zero] = stream.normal(int(zero.sum()))


def _amplitude_values(stream: Stream, k: int, amplitude):
    if amplitude == "unit":
        return stream.signs(k)
    if amplitude == "gaussian":
        return _nonzero_normals(stream, k)
    if isinstance(amplitude, (tuple, list)) and len(amplitude) == 3 and amplitude[0] == "uniform":
        lo, hi = float(amplitude[1]), float(amplitude[2])
        if not 0.0 < lo <= hi:
            raise ValueError(f"uniform amplitude range must satisfy 0 < a <= b, got ({lo}, {hi})")
        return stream.signs(k) * (lo + (hi - lo) * stream.uniform(k))
    raise ValueError(f"unknown amplitude law {amplitude!r}; choose one of {_AMPLITUDE_KINDS}")


def gen_sparse_signal(n: int, k: int, amplitude="unit", rng: RngSpec = None) -> np.ndarray:
    """Exactly k-sparse signal on a uniformly random support.

    amplitude is "unit" (+-1 entries), "gaussian" (standard normal,
    exact zeros redrawn) or ("uniform", a, b) with 0 < a <= b
    (magnitude uniform in [a, b], random sign).
    """
    n, k = int(n), int(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    stream = Stream(rng)
    support = stream.subset(n, k)
    x = np.zeros(n)
    x[support] = _amplitude_values(stream, k, amplitude)
    return x


def gen_compressible_signal(n: int, p: float, rng: RngSpec) -> np.ndarray:
    """Power-law compressible signal: sorted magnitudes are exactly
    i**(-p) for i = 1..n, with random signs and a random permutation."""
    n = int(n)
    p = float(p)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if p <= 0:
        raise ValueError(f"decay exponent must be positive, got {p}")
    stream = Stream(rng)
    mags = np.arange(1, n + 1, dtype=np.float64) ** (-p)
    values = stream.signs(n) * mags
    x = np.zeros(n)
    x[stream.permutation(n)] = values
    return x


def gen_sparse_noise(m: int, s: int, epsilon, rng: RngSpec) -> np.ndarray:
    """Exactly s-sparse noise rescaled so that ||n||_1 equals epsilon
    (the worst case within the budget); epsilon = 0 gives the zero
    vector and epsilon = None leaves the spikes at standard normal size."""
    m, s = int(m), int(s)
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    if epsilon is not None:
        epsilon = float(epsilon)
        if epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        if epsilon == 0.0:
            return np.zeros(m)
    stream = Stream(rng)
    support = stream.subset(m, s)
    spikes = np.zeros(m)
    spikes[support] = stream.signs(s) * np.abs(_nonzero_normals(stream, s))
    return spikes if epsilon is None else spikes * (epsilon / core.norm_lp(spikes, 1))


class LaplacianNoise(NamedTuple):
    noise: np.ndarray
    epsilon: float
    exceeded: bool


def gen_laplacian_noise(m: int, epsilon_quantile: float, rng: RngSpec) -> LaplacianNoise:
    """i.i.d. unit-scale Laplace noise together with the analytic bound
    epsilon such that P(||n||_1 <= epsilon) = epsilon_quantile.

    ||n||_1 is a sum of m unit exponentials, so epsilon is the
    Gamma(m, 1) quantile.  ``exceeded`` flags draws past the bound.
    """
    m = int(m)
    q = float(epsilon_quantile)
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"epsilon_quantile must lie in (0, 1), got {q}")
    # scipy is imported here, not at the top: it costs about 0.3 s, and
    # only Laplacian noise needs it
    from scipy.special import gammaincinv

    noise = Stream(rng).laplace(m)
    epsilon = float(gammaincinv(m, q))
    return LaplacianNoise(noise, epsilon, core.norm_lp(noise, 1) > epsilon)


@dataclass(frozen=True, eq=False)
class SparseInstance:
    """One trial's inputs: signal, sensing matrix, noise, measurements."""

    x: np.ndarray
    phi: np.ndarray
    noise: np.ndarray
    y: np.ndarray
    epsilon: float
    k: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.y.size

    def validate(self) -> None:
        x = core.as_vector(self.x, "x")
        phi = core.as_matrix(self.phi, "phi")
        noise = core.as_vector(self.noise, "noise")
        y = core.as_vector(self.y, "y")
        if phi.shape != (y.size, x.size) or noise.size != y.size:
            raise ValueError("instance dimensions are inconsistent")
        if not 1 <= self.k <= x.size:
            raise ValueError(f"k must be in [1, {x.size}], got {self.k}")
        if not self.epsilon >= 0:  # NaN fails this test too
            raise ValueError("epsilon must be nonnegative")
        if core.norm_lp(noise, 1) > self.epsilon:
            raise ValueError("noise l1 mass exceeds the stored epsilon")
        if not np.array_equal(core.mat_vec(phi, x) + noise, y):
            raise ValueError("measurements do not equal phi @ x + noise")


def _required(spec: dict, key: str, component: str):
    if spec.get(key) is None:
        raise ValueError(f"{spec['kind']} {component} spec needs {key}")
    return spec[key]


def _signal(n: int, k: int, spec: dict, rng: RngSpec):
    """x and the recorded signal spec, its kind's keys only."""
    if spec["kind"] == "sparse":
        spec = {"kind": "sparse", "amplitude": spec.get("amplitude", "unit")}
        return gen_sparse_signal(n, k, spec["amplitude"], rng), spec
    if spec["kind"] == "compressible":
        spec = {"kind": "compressible", "p": float(_required(spec, "p", "signal"))}
        return gen_compressible_signal(n, spec["p"], rng), spec
    raise ValueError(f"unknown signal kind {spec['kind']!r}; choose one of {SIGNAL_KINDS}")


def _noise(m: int, spec: dict, rng: RngSpec):
    """n, the epsilon it is stored with and the recorded noise spec."""
    if spec["kind"] == "none":
        return np.zeros(m), 0.0, {"kind": "none"}
    if spec["kind"] == "sparse":
        s = int(_required(spec, "s", "noise"))
        if spec.get("epsilon") is not None:
            recorded = {"kind": "sparse", "s": s, "epsilon": float(spec["epsilon"])}
            noise = gen_sparse_noise(m, s, recorded["epsilon"], rng)
        else:
            recorded = {"kind": "sparse", "s": s, "scale": float(spec.get("scale", 1.0))}
            noise = gen_sparse_noise(m, s, None, rng) * recorded["scale"]
        # store the realized l1 mass so ||n||_1 <= epsilon holds exactly
        recorded["epsilon_achieved"] = core.norm_lp(noise, 1)
        return noise, recorded["epsilon_achieved"], recorded
    if spec["kind"] == "laplacian":
        quantile = float(_required(spec, "quantile", "noise"))
        drawn = gen_laplacian_noise(m, quantile, rng)
        recorded = {"kind": "laplacian", "quantile": quantile,
                    "epsilon_quantile_value": drawn.epsilon,
                    "exceeded_quantile": drawn.exceeded}
        return drawn.noise, max(drawn.epsilon, core.norm_lp(drawn.noise, 1)), recorded
    raise ValueError(f"unknown noise kind {spec['kind']!r}; choose one of {NOISE_KINDS}")


def make_instance(n: int, m: int, k: int, noise_spec, signal_spec, rng: RngSpec) -> SparseInstance:
    """Assemble a complete instance: phi, x, n and y = phi @ x + n.

    Each spec is a dict with a "kind" (SIGNAL_KINDS, default "sparse";
    NOISE_KINDS, default "none") and that kind's keys: "amplitude"
    (default "unit") for a sparse signal, "p" for a compressible one;
    "s" with "epsilon" or "scale" (default 1.0) for sparse noise,
    "quantile" for Laplacian noise.  Other keys are ignored, and meta
    records the resolved specs.

    Sub-streams: rng.child(0) drives phi, child(1) the signal and
    child(2) the noise, so every component is individually replayable.
    """
    n, m, k = int(n), int(m), int(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    x, signal = _signal(n, k, {"kind": "sparse", **(signal_spec or {})}, rng.child(1))
    noise, epsilon, recorded_noise = _noise(m, {"kind": "none", **(noise_spec or {})},
                                            rng.child(2))
    phi = gen_gaussian_matrix(m, n, rng.child(0))
    y = core.mat_vec(phi, x) + noise
    meta = {
        "format_revision": FORMAT_REVISION,
        "sampler": SAMPLER_NAME,
        "rng": rng.as_dict(),
        "signal": signal,
        "noise": recorded_noise,
    }
    return SparseInstance(x=x, phi=phi, noise=noise, y=y, epsilon=float(epsilon), k=k, meta=meta)


# On-disk instance bundle: a directory holding phi.bin (SL1M binary),
# x.csv / n.csv / y.csv (vector CSVs) and meta.json.
def save_bundle(directory, instance: SparseInstance, extra_meta: dict = None) -> None:
    instance.validate()
    os.makedirs(directory, exist_ok=True)
    matio.write_matrix_bin(os.path.join(directory, "phi.bin"), instance.phi)
    matio.write_vector_csv(os.path.join(directory, "x.csv"), instance.x)
    matio.write_vector_csv(os.path.join(directory, "n.csv"), instance.noise)
    matio.write_vector_csv(os.path.join(directory, "y.csv"), instance.y)
    meta = {
        "format": "sl1-instance",
        "n": instance.n,
        "m": instance.m,
        "k": instance.k,
        "epsilon": instance.epsilon,
    }
    meta.update(instance.meta)
    if extra_meta:
        meta.update(extra_meta)
    matio.write_json(os.path.join(directory, "meta.json"), meta)


def load_bundle(directory) -> SparseInstance:
    meta = matio.read_json(os.path.join(directory, "meta.json"))
    phi = matio.read_matrix_bin(os.path.join(directory, "phi.bin"))
    x = matio.read_vector_csv(os.path.join(directory, "x.csv"))
    noise = matio.read_vector_csv(os.path.join(directory, "n.csv"))
    y = matio.read_vector_csv(os.path.join(directory, "y.csv"))
    try:
        k, epsilon = meta["k"], meta["epsilon"]
        integral = isinstance(k, int) or isinstance(k, float) and k.is_integer()
        if isinstance(k, bool) or not integral:
            raise ValueError(f"k must be an integer, got {k!r}")
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
            raise ValueError(f"epsilon must be a number, got {epsilon!r}")
        instance = SparseInstance(
            x=x, phi=phi, noise=noise, y=y, epsilon=float(epsilon), k=int(k), meta=meta)
        instance.validate()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise matio.FormatError(f"{directory}: inconsistent instance bundle ({exc})") from exc
    return instance
