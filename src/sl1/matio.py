"""File formats for matrices, vectors and JSON documents.

Binary matrices use the "SL1M" container: 4-byte magic, little-endian
u32 rows and cols, then rows*cols little-endian float64 values in
row-major order.  Vector CSV files carry one value per line as a
shortest round-trip decimal float, so a write/read cycle is bit-exact.
All writers go through a write-temp-then-rename step so partial files
are never observed.
"""

import json
import math
import os
import struct
import tempfile

import numpy as np

from . import core

MAGIC = b"SL1M"


class FormatError(Exception):
    """Raised when a file's content does not match its expected format."""


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sl1-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _null_non_finite(obj):
    """obj with every non-finite float (inf, nan) replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _null_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(value) for value in obj]
    return obj


def dump_json(obj) -> str:
    """Canonical JSON rendering (sorted keys) so outputs are byte-stable.

    JSON (RFC 8259) has no inf or nan, so non-finite floats are written
    as null; readers that need them back map null to their own value.
    """
    return json.dumps(_null_non_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def read_json(path) -> dict:
    """The JSON document at path, which must be strict JSON: NaN,
    Infinity and -Infinity, which no sl1 output holds, are refused, and
    so is a number that overflows a float, such as 1e400."""
    def refuse(constant):
        raise FormatError(f"{path}: {constant} is not a JSON number")

    def finite(number):
        value = float(number)
        if not math.isfinite(value):
            raise FormatError(f"{path}: {number} is beyond float range")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=refuse, parse_float=finite)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def write_matrix_bin(path, a) -> None:
    a = core.as_matrix(a)
    rows, cols = a.shape
    header = MAGIC + struct.pack("<II", rows, cols)
    atomic_write_bytes(path, header + a.astype("<f8").tobytes(order="C"))


def read_matrix_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not an SL1M matrix file")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * rows * cols
    if rows < 1 or cols < 1 or len(blob) != expected:
        raise FormatError(f"{path}: truncated or inconsistent SL1M payload")
    a = np.frombuffer(blob[12:], dtype="<f8").reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise FormatError(f"{path}: matrix contains non-finite entries")
    return a


def write_vector_csv(path, v) -> None:
    v = core.as_vector(v)
    atomic_write_text(path, "\n".join(repr(float(x)) for x in v) + "\n")


def read_vector_csv(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid float ({exc})") from exc
    if not values:
        raise FormatError(f"{path}: empty vector CSV")
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise FormatError(f"{path}: vector contains non-finite entries")
    return v
