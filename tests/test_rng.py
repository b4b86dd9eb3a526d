import math

import numpy as np
import pytest

from sl1.rng import RngSpec, Stream

from oracles import box_muller_normals


def test_identical_specs_reproduce():
    a = Stream(RngSpec(123, 5))
    b = Stream(RngSpec(123, 5))
    assert np.array_equal(a.normal(100), b.normal(100))
    assert np.array_equal(a.uniform(50), b.uniform(50))
    assert a.integer_below(17) == b.integer_below(17)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 17])
def test_normal_matches_two_call_box_muller_bit_for_bit(n):
    # two draws in a row also pin where the second one starts
    spec = RngSpec(2024, 3)
    stream = Stream(spec)
    bitgen = np.random.Philox(key=np.array([spec.seed, spec.stream], dtype=np.uint64))
    for _ in range(2):
        assert stream.normal(n).tobytes() == box_muller_normals(bitgen, n).tobytes()


@pytest.mark.parametrize("rows, n", [(5, 7), (4, 6), (3, 1), (0, 6)])
def test_normal_rows_match_successive_normal_calls(rows, n):
    batched, single = Stream(RngSpec(2024, 4)), Stream(RngSpec(2024, 4))
    out = batched.normal_rows(rows, n)
    assert out.shape == (rows, n)
    expected = [single.normal(n) for _ in range(rows)]
    assert out.tobytes() == np.array(expected).reshape(rows, n).tobytes()
    # both streams go on from the same word
    assert batched.raw(1)[0] == single.raw(1)[0]


def test_streams_differ():
    a = Stream(RngSpec(123, 0)).normal(64)
    b = Stream(RngSpec(123, 1)).normal(64)
    assert not np.array_equal(a, b)


def test_child_streams_never_collide():
    seen = set()
    for stream in (0, 1, 2):
        parent = RngSpec(9, stream)
        for tag in range(8):
            child = parent.child(tag)
            assert child.stream not in seen
            seen.add(child.stream)
            grandchild = child.child(0)
            assert grandchild.stream not in seen
            seen.add(grandchild.stream)


def test_spec_validation():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2**64)
    with pytest.raises(ValueError):
        RngSpec(0).child(-1)


def test_normal_moments():
    z = Stream(RngSpec(2024)).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    # Box-Muller pairs share uniforms but must stay uncorrelated
    assert abs(np.corrcoef(z[0::2], z[1::2])[0, 1]) < 0.01


def test_uniform_range_and_open_uniform():
    s = Stream(RngSpec(7))
    u = s.uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    v = s.open_uniform(10_000)
    assert v.min() > 0.0 and v.max() < 1.0


def test_laplace_moments():
    x = Stream(RngSpec(77)).laplace(200_000)
    # unit-scale Laplace: mean 0, E|x| = 1, var 2
    assert abs(x.mean()) < 0.02
    assert abs(np.abs(x).mean() - 1.0) < 0.02
    assert abs(x.var() - 2.0) < 0.06


def test_integer_below_uniformity():
    s = Stream(RngSpec(5))
    counts = np.zeros(7, dtype=int)
    for _ in range(7000):
        counts[s.integer_below(7)] += 1
    assert counts.min() > 800 and counts.max() < 1200


def test_subset_is_sorted_exact_size_and_uniformish():
    s = Stream(RngSpec(6))
    seen = np.zeros(10, dtype=int)
    for _ in range(2000):
        sub = s.subset(10, 3)
        assert sub.size == 3
        assert np.all(np.diff(sub) > 0)
        seen[sub] += 1
    # each index appears with probability 3/10
    assert abs(seen / 2000 - 0.3).max() < 0.06


def test_permutation_is_permutation():
    s = Stream(RngSpec(8))
    for _ in range(20):
        p = s.permutation(12)
        assert np.array_equal(np.sort(p), np.arange(12))


def test_unit_vector_norm():
    s = Stream(RngSpec(9))
    for _ in range(10):
        v = s.unit_vector(5)
        assert math.isclose(float(np.sqrt(v @ v)), 1.0, rel_tol=1e-12)
