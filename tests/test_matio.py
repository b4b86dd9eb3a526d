import json
import math

import numpy as np
import pytest

from sl1 import matio
from sl1.rng import RngSpec, Stream


@pytest.fixture
def rng_matrix():
    return Stream(RngSpec(55)).normal(12).reshape(3, 4)


def test_binary_round_trip(tmp_path, rng_matrix):
    path = tmp_path / "a.bin"
    matio.write_matrix_bin(path, rng_matrix)
    back = matio.read_matrix_bin(path)
    assert np.array_equal(back, rng_matrix)


def test_binary_layout(tmp_path):
    path = tmp_path / "m.bin"
    matio.write_matrix_bin(path, [[1.0, 2.0], [3.0, 4.0]])
    blob = path.read_bytes()
    assert blob[:4] == b"SL1M"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert np.frombuffer(blob[12:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_bad_magic_rejected(tmp_path, rng_matrix):
    path = tmp_path / "a.bin"
    matio.write_matrix_bin(path, rng_matrix)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(matio.FormatError):
        matio.read_matrix_bin(path)


def test_truncated_payload_rejected(tmp_path, rng_matrix):
    path = tmp_path / "a.bin"
    matio.write_matrix_bin(path, rng_matrix)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(matio.FormatError):
        matio.read_matrix_bin(path)


def test_csv_vector_round_trip_keeps_extreme_values(tmp_path):
    v = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 1 / 3])
    path = tmp_path / "v.csv"
    matio.write_vector_csv(path, v)
    assert matio.read_vector_csv(path).tobytes() == v.tobytes()


def test_csv_vector_round_trip_is_exact(tmp_path):
    v = Stream(RngSpec(56)).normal(17)
    path = tmp_path / "v.csv"
    matio.write_vector_csv(path, v)
    assert np.array_equal(matio.read_vector_csv(path), v)


def test_csv_vector_skips_blank_lines(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("\n1.5\n\n -2.0 \n")
    assert matio.read_vector_csv(path).tolist() == [1.5, -2.0]


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(matio.FormatError):
        matio.read_vector_csv(path)


def test_non_numeric_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nzzz\n")
    with pytest.raises(matio.FormatError, match=":2: invalid float"):
        matio.read_vector_csv(path)


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_empty_csv_rejected(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(matio.FormatError, match="empty"):
        matio.read_vector_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_csv_rejected(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0\n{token}\n")
    with pytest.raises(matio.FormatError, match="non-finite"):
        matio.read_vector_csv(path)


def test_json_round_trip_and_stable_bytes(tmp_path):
    doc = {"b": 1.5, "a": [1, 2, 3]}
    p1 = tmp_path / "x.json"
    p2 = tmp_path / "y.json"
    matio.write_json(p1, doc)
    matio.write_json(p2, {"a": [1, 2, 3], "b": 1.5})
    assert p1.read_bytes() == p2.read_bytes()
    assert matio.read_json(p1) == doc


def test_json_writes_non_finite_floats_as_null():
    text = matio.dump_json({"a": math.inf, "b": [math.nan, 1.5, -math.inf], "c": (2.0,)})
    assert json.loads(text, parse_constant=lambda token: pytest.fail(token)) \
        == {"a": None, "b": [None, 1.5, None], "c": [2.0]}
    finite = {"x": [0.1, -2.5e-300, 1e300], "y": {"z": 3, "w": "s"}}
    assert matio.dump_json(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_json_non_finite_constants_rejected(tmp_path, constant):
    # json accepts these by default (1e400 as inf), but no sl1 output holds them
    path = tmp_path / "x.json"
    path.write_text(f'{{"epsilon": {constant}}}')
    with pytest.raises(matio.FormatError, match=constant):
        matio.read_json(path)


def test_failed_write_leaves_no_temp_file_and_target_unchanged(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    with pytest.raises(TypeError):
        matio.atomic_write_bytes(target, "not bytes")
    # a directory in the target's place makes the final rename fail
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        matio.write_json(tmp_path / "taken", {"a": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "taken"]
    assert target.read_text() == "old\n"
    assert not any((tmp_path / "taken").iterdir())


def test_invalid_json_raises_format_error(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{not json")
    with pytest.raises(matio.FormatError):
        matio.read_json(path)
