"""Dense vector/matrix primitives shared across the package.

Conventions used everywhere:

* all numeric data is float64 and finite; that is checked at the public
  entry points (the functions here without a leading underscore, the
  solvers, the tracer, the searches and SparseInstance.validate), while
  the underscore kernels below them trust arrays that the package built
  or checked already and check nothing,
* ``sign_vec`` maps 0 to -1 (the convention the sign-correlation
  deviation relies on); the solver's soft threshold instead uses the
  mathematical sign with sign(0) = 0,
* magnitude ties are broken toward the lower index, so hard
  thresholding and support partitioning are deterministic,
* ``mat_vec`` accumulates strictly left to right along each row, which
  keeps generated instances bit-reproducible across platforms.

Each checked function computes exactly what its kernel does, so a caller
that trusts its arrays may call either with the same bytes.
"""

import math
from dataclasses import dataclass

import numpy as np


def as_vector(v, name: str = "v") -> np.ndarray:
    """Validate and return a finite 1-d float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "a") -> np.ndarray:
    """Validate and return a finite 2-d float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_support(indices, dim: int, name: str = "support") -> np.ndarray:
    """Validate a support set: strictly increasing indices inside [0, dim)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= dim or np.any(np.diff(idx) <= 0):
            raise ValueError(f"{name} must be strictly increasing indices in [0, {dim})")
    return idx


def _check_k(k, dim: int, low: int) -> int:
    k = int(k)
    if not low <= k <= dim:
        raise ValueError(f"k must be in [{low}, {dim}], got {k}")
    return k


def _l1(v) -> float:
    return float(np.add.reduce(np.absolute(v)))


def _l2(v) -> float:
    return math.sqrt(np.add.reduce(v * v))


def norm_lp(v, p=2) -> float:
    """lp norm of a vector; p in {0, 1, 2, inf}; p=0 counts nonzeros."""
    v = as_vector(v)
    if p == 0:
        return float(np.count_nonzero(v))
    if p == 1:
        return _l1(v)
    if p == 2:
        return _l2(v)
    if p in ("inf", np.inf, math.inf):
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unsupported norm order {p!r}; choose 0, 1, 2 or inf")


def _top_support(v, k: int) -> np.ndarray:
    # lexsort: primary key -|v| (largest magnitude first), secondary the index
    order = np.lexsort((np.arange(v.size), -np.abs(v)))
    return np.sort(order[:k])


def top_support(v, k: int) -> np.ndarray:
    """Indices of the k strongest-amplitude entries, ties to the lower index."""
    v = as_vector(v)
    return _top_support(v, _check_k(k, v.size, 0))


def hard_threshold(v, k: int) -> np.ndarray:
    """Keep the k strongest-amplitude entries, zero the rest."""
    v = as_vector(v)
    return _restrict(v, _top_support(v, _check_k(k, v.size, 0)))


def _hard_support(v, k: int) -> np.ndarray:
    keep = _top_support(v, k)
    return keep[v[keep] != 0.0]


def hard_support(v, k: int) -> np.ndarray:
    """Support (nonzero positions) of hard_threshold(v, k)."""
    v = as_vector(v)
    return _hard_support(v, _check_k(k, v.size, 0))


def _sign_vec(v) -> np.ndarray:
    return (v > 0.0) * 2.0 - 1.0


def sign_vec(v) -> np.ndarray:
    """Componentwise sign with the convention sign(0) = -1."""
    return _sign_vec(as_vector(v))


def _compressibility_error(x, k: int) -> float:
    return _l1(x - _restrict(x, _top_support(x, k))) / math.sqrt(k)


def compressibility_error(x, k: int) -> float:
    """Scaled l1 distance to the best k-term approximation:
    ||x - hard_threshold(x, k)||_1 / sqrt(k)."""
    x = as_vector(x, "x")
    return _compressibility_error(x, _check_k(k, x.size, 1))


def _restrict(v, idx) -> np.ndarray:
    out = np.zeros_like(v)
    out[idx] = v[idx]
    return out


def restrict(v, support) -> np.ndarray:
    """Zero every entry outside the support (embedded restriction)."""
    v = as_vector(v)
    return _restrict(v, check_support(support, v.size))


def _complement(idx, dim: int) -> np.ndarray:
    mask = np.ones(dim, dtype=bool)
    mask[idx] = False
    return np.nonzero(mask)[0].astype(np.int64)


def complement_support(support, dim: int) -> np.ndarray:
    return _complement(check_support(support, dim), dim)


def support_union(a, b) -> np.ndarray:
    return np.union1d(np.asarray(a, np.int64), np.asarray(b, np.int64))


def _embed(values, idx, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[idx] = values
    return out


def embed(values, indices, dim: int) -> np.ndarray:
    """Place ``values`` at ``indices`` in a zero vector of length ``dim``."""
    values = as_vector(values, "values")
    idx = check_support(indices, dim)
    if values.size != idx.size:
        raise ValueError("values and indices must have equal length")
    return _embed(values, idx, dim)


@dataclass(frozen=True, eq=False)
class SupportPartition:
    """Top support t0 plus magnitude-ordered blocks covering its complement.

    blocks[0] holds the k strongest off-t0 indices of the vector the
    partition was built from, blocks[1] the next k, and so on; only the
    last block may be smaller than k.
    """

    t0: np.ndarray
    blocks: tuple

    @property
    def t01(self) -> np.ndarray:
        if not self.blocks:
            return self.t0
        return support_union(self.t0, self.blocks[0])

    def tail_blocks(self) -> tuple:
        """Blocks beyond the first (index 2 onward in the usual naming)."""
        return self.blocks[1:]


def _partition(h, t0, k: int) -> SupportPartition:
    rest = _complement(t0, h.size)
    order = np.lexsort((rest, -np.abs(h[rest])))
    ranked = rest[order]
    blocks = tuple(np.sort(ranked[i:i + k]) for i in range(0, ranked.size, k))
    return SupportPartition(t0=t0, blocks=blocks)


def partition_support(h, t0, k: int) -> SupportPartition:
    """Partition [0, dim) into t0 and k-sized blocks of decreasing |h|.

    Off-t0 indices are ordered by decreasing magnitude of h (ties to
    the lower index) and chunked into blocks of size k; only the last
    block may be smaller.
    """
    h = as_vector(h, "h")
    t0 = check_support(t0, h.size, "t0")
    k = _check_k(k, h.size, 1)
    if t0.size > k:
        raise ValueError(f"t0 has {t0.size} indices but must have at most k={k}")
    return _partition(h, t0, k)


def _mat_vec(a, v) -> np.ndarray:
    support = np.flatnonzero(v)
    if not support.size:
        return np.zeros(a.shape[0])
    work = a[:, support] * v[support]
    np.add.accumulate(work, axis=1, out=work)
    return work[:, -1] + 0.0


def mat_vec(a, v) -> np.ndarray:
    """Matrix-vector product with a fixed left-to-right accumulation
    order per row, for bit-reproducible results.

    Each row's products a_ij * v_j over the nonzero v_j are summed by
    ``np.add.accumulate``, which adds them one at a time in column order;
    the final ``+ 0.0`` turns a zero sum's sign positive, as a sum started
    at 0.0 would be.  The bytes are those of the sum over every column:
    the products skipped are +-0 and change no nonzero partial sum."""
    a = as_matrix(a)
    v = as_vector(v)
    m, n = a.shape
    if v.size != n:
        raise ValueError(f"dimension mismatch: matrix is {m}x{n}, vector has length {v.size}")
    return _mat_vec(a, v)
