"""Deterministic random streams keyed by (seed, stream).

Everything is derived from the raw 64-bit output of a keyed Philox
counter generator, and every distribution transform is fixed here:
53-bit uniforms, Box-Muller normals, inverse-CDF Laplace draws and
rejection-sampled bounded integers.  A given ``RngSpec`` therefore
reproduces the same values regardless of platform, thread schedule or
numpy version, which is what makes whole experiment runs replayable
from their recorded configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

# Recorded in output metadata so consumers know which transform
# produced the values they are looking at.
SAMPLER_NAME = "philox-u53-boxmuller-v1"

_CHILD_STRIDE = 1 << 16
_CHILD_TAGS = _CHILD_STRIDE - 1  # child() takes tags 0 .. _CHILD_TAGS - 1
_U64 = 1 << 64


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 mixer (a 64-bit bijection)."""
    z = (z + 0x9E3779B97F4A7C15) % _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _U64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSpec:
    """Key of a reproducible random stream."""

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def child(self, tag: int) -> "RngSpec":
        """Derived sub-stream under the same seed.

        (stream, tag) is folded through a 64-bit mixer, so distinct
        derivation paths land on distinct streams up to a ~2**-64
        birthday chance, even when user-chosen root streams interleave
        with derived ones.
        """
        if not isinstance(tag, int) or not 0 <= tag < _CHILD_TAGS:
            raise ValueError(f"child tag must be in [0, {_CHILD_TAGS - 1}], got {tag!r}")
        return RngSpec(self.seed,
                       _splitmix64((self.stream * _CHILD_STRIDE + tag + 1) % _U64))

    def as_dict(self) -> dict:
        return {"seed": self.seed, "stream": self.stream}


class Stream:
    """Stateful sampler over the raw Philox word stream of one RngSpec.

    Two Streams built from equal specs produce identical call-for-call
    output.  Parallel work must use distinct specs (see RngSpec.child),
    never a shared Stream.
    """

    def __init__(self, spec: RngSpec):
        self.spec = spec
        self._bg = np.random.Philox(key=np.array([spec.seed, spec.stream], dtype=np.uint64))

    def raw(self, n: int) -> np.ndarray:
        return np.atleast_1d(self._bg.random_raw(int(n)))

    def uniform(self, n: int) -> np.ndarray:
        """Uniforms in [0, 1) with 53-bit resolution."""
        return (self.raw(n) >> np.uint64(11)) * 2.0**-53

    def open_uniform(self, n: int) -> np.ndarray:
        """Uniforms in the open interval (0, 1); safe under log()."""
        return (self.raw(n) >> np.uint64(11)) * 2.0**-53 + 2.0**-54

    def normal(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller: for half = ceil(n/2), the
        first half uniforms give the radii and the next half the angles."""
        return self.normal_rows(1, n)[0]

    def normal_rows(self, rows: int, n: int) -> np.ndarray:
        """`rows` successive normal(n) draws as the rows of one (rows, n)
        array, from one uniform call: each row's first half of uniforms
        gives its radii and the next half its angles, so every value is
        the one the separate calls give."""
        rows, n = int(rows), int(n)
        half = (n + 1) // 2
        u = self.uniform(rows * 2 * half).reshape(rows, 2, half)
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1 - u lies in (0, 1]
        angle = (2.0 * math.pi) * u[:, 1]
        out = np.empty((rows, 2 * half))
        out[:, 0::2] = radius * np.cos(angle)
        out[:, 1::2] = radius * np.sin(angle)
        return out[:, :n]

    def laplace(self, n: int) -> np.ndarray:
        """Unit-scale Laplace draws (density exp(-|x|)/2) via inverse CDF."""
        u = self.open_uniform(n)
        return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))

    def signs(self, n: int) -> np.ndarray:
        """Independent +-1 values."""
        return (self.raw(n) & np.uint64(1)) * 2.0 - 1.0

    def integer_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by masked rejection."""
        bound = int(bound)
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = self._bg.random_raw() & mask
            if r < bound:
                return r

    def _shuffle_head(self, n: int, k: int) -> np.ndarray:
        """range(n) with a uniform draw of k items moved to its head
        (the first k steps of a Fisher-Yates shuffle)."""
        pool = np.arange(n, dtype=np.int64)
        for i in range(k):
            j = i + self.integer_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool

    def subset(self, n: int, k: int) -> np.ndarray:
        """Uniform k-subset of range(n), returned sorted ascending."""
        n, k = int(n), int(k)
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return np.sort(self._shuffle_head(n, k)[:k])

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) (Fisher-Yates)."""
        n = int(n)
        return self._shuffle_head(n, n - 1)

    def unit_vector(self, n: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^n."""
        while True:
            z = self.normal(n)
            norm = float(np.sqrt(np.sum(z * z)))
            if norm > 1e-12:
                return z / norm
