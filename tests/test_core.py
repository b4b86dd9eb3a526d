import math

import numpy as np
import pytest

from sl1 import core
from sl1.rng import RngSpec, Stream

from oracles import best_sparse_l1_error, mat_vec_column_loop


class TestNormLp:
    def test_pythagorean(self):
        assert core.norm_lp([3, -4], 2) == 5.0

    def test_l1(self):
        assert core.norm_lp([3, -4], 1) == 7.0

    def test_l0_counts_nonzeros(self):
        assert core.norm_lp([0, 0, 2], 0) == 1.0

    def test_linf(self):
        assert core.norm_lp([1, -9, 3], "inf") == 9.0
        assert core.norm_lp([1, -9, 3], np.inf) == 9.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            core.norm_lp([1.0, math.nan], 1)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            core.norm_lp([1.0], 3)


class TestHardThreshold:
    def test_two_largest(self):
        assert np.array_equal(core.hard_threshold([3, -1, 0, 2], 2), [3, 0, 0, 2])

    def test_full_k_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(core.hard_threshold(v, 3), v)

    def test_tie_breaks_to_lower_index(self):
        assert np.array_equal(core.hard_threshold([1, -1, 0], 1), [1, 0, 0])

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            core.hard_threshold([1.0, 2.0], 3)

    def test_best_l1_approximation(self):
        # the kept support must minimize the l1 tail over all supports
        stream = Stream(RngSpec(3))
        for trial in range(20):
            dim = 3 + stream.integer_below(8)
            v = stream.normal(dim)
            for k in range(0, dim + 1):
                tail = core.norm_lp(v - core.hard_threshold(v, k), 1)
                assert tail == pytest.approx(best_sparse_l1_error(v, k), abs=1e-12)


class TestSignVec:
    def test_convention(self):
        assert np.array_equal(core.sign_vec([2.5, -3, 0]), [1, -1, -1])

    def test_zero_vector_all_minus_one(self):
        assert np.array_equal(core.sign_vec(np.zeros(4)), -np.ones(4))

    def test_positive_vector(self):
        assert np.array_equal(core.sign_vec([0.1, 7.0]), [1, 1])

    def test_never_zero_and_odd_off_zero(self):
        stream = Stream(RngSpec(4))
        for _ in range(10):
            v = stream.normal(6)
            s = core.sign_vec(v)
            assert np.all(np.abs(s) == 1.0)
            if np.all(v != 0):
                assert np.array_equal(core.sign_vec(-v), -s)


class TestCompressibilityError:
    def test_sparse_signal_has_zero_error(self):
        x = np.array([0.0, 5.0, 0.0, -2.0])
        assert core.compressibility_error(x, 2) == 0.0

    def test_flat_vector(self):
        assert core.compressibility_error([1, 1, 1, 1], 1) == 3.0

    def test_tail_mass(self):
        assert core.compressibility_error([2, 1, 1], 1) == 2.0

    def test_scaling_by_sqrt_k(self):
        x = np.array([4.0, 2.0, 1.0, 1.0])
        assert core.compressibility_error(x, 2) == pytest.approx(2.0 / math.sqrt(2))

    def test_zero_iff_k_sparse(self):
        stream = Stream(RngSpec(5))
        for _ in range(20):
            dim = 4 + stream.integer_below(6)
            k = 1 + stream.integer_below(dim)
            x = np.zeros(dim)
            sup = stream.subset(dim, k)
            x[sup] = stream.normal(k)
            is_k_sparse = core.norm_lp(x, 0) <= k
            assert (core.compressibility_error(x, k) == 0.0) == is_k_sparse

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            core.compressibility_error([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            core.compressibility_error([1.0, 2.0], 3)


class TestPartitionSupport:
    def test_hand_example(self):
        part = core.partition_support([5, -4, 3, 2, 1, 0.5], [0, 1], 2)
        assert np.array_equal(part.blocks[0], [2, 3])
        assert np.array_equal(part.blocks[1], [4, 5])
        assert np.array_equal(part.t01, [0, 1, 2, 3])

    def test_all_zero_ties_in_index_order(self):
        h = np.zeros(6)
        part = core.partition_support(h, [0, 1], 2)
        assert np.array_equal(part.blocks[0], [2, 3])
        assert np.array_equal(part.blocks[1], [4, 5])

    def test_block_sizes_n5_k2(self):
        # complement of a single index in [0,5) has 4 elements -> 2+2
        part = core.partition_support([9, 1, 2, 3, 4], [0], 2)
        assert [b.size for b in part.blocks] == [2, 2]

    def test_covers_everything_disjointly(self):
        stream = Stream(RngSpec(6))
        for _ in range(20):
            dim = 5 + stream.integer_below(10)
            k = 1 + stream.integer_below(3)
            t0_size = stream.integer_below(k + 1)
            h = stream.normal(dim)
            t0 = stream.subset(dim, t0_size)
            part = core.partition_support(h, t0, k)
            pieces = [part.t0] + list(part.blocks)
            merged = np.concatenate(pieces)
            assert merged.size == dim
            assert np.array_equal(np.sort(merged), np.arange(dim))

    def test_monotone_magnitudes_across_blocks(self):
        stream = Stream(RngSpec(7))
        for _ in range(20):
            dim = 6 + stream.integer_below(10)
            h = stream.normal(dim)
            part = core.partition_support(h, stream.subset(dim, 2), 2)
            mags = np.abs(h)
            for earlier, later in zip(part.blocks, part.blocks[1:]):
                assert mags[later].max(initial=-1.0) <= mags[earlier].min() + 1e-15

    def test_t0_larger_than_k_rejected(self):
        with pytest.raises(ValueError):
            core.partition_support([1.0, 2.0, 3.0], [0, 1], 1)

    def test_bad_t0_index_rejected(self):
        with pytest.raises(ValueError):
            core.partition_support([1.0, 2.0], [5], 1)


class TestRestrict:
    def test_single_index(self):
        assert np.array_equal(core.restrict([1, 2, 3], [1]), [0, 2, 0])

    def test_full_support_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(core.restrict(v, [0, 1, 2]), v)

    def test_empty_support(self):
        assert np.array_equal(core.restrict([1.0, 2.0], []), [0.0, 0.0])

    def test_idempotent_and_complement_splits(self):
        stream = Stream(RngSpec(8))
        v = stream.normal(9)
        s = stream.subset(9, 4)
        r = core.restrict(v, s)
        assert np.array_equal(core.restrict(r, s), r)
        comp = core.complement_support(s, 9)
        assert np.array_equal(r + core.restrict(v, comp), v)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            core.restrict([1.0], [2])


class TestMatVec:
    def test_identity(self):
        assert np.array_equal(core.mat_vec(np.eye(2), [3, 4]), [3, 4])

    def test_zero_matrix(self):
        assert np.array_equal(core.mat_vec(np.zeros((3, 2)), [1, 1]), np.zeros(3))

    def test_small_product(self):
        assert np.array_equal(core.mat_vec([[1, 2], [3, 4]], [1, 1]), [3, 7])

    def test_matches_blas_closely(self):
        stream = Stream(RngSpec(9))
        a = stream.normal(60).reshape(10, 6)
        v = stream.normal(6)
        assert core.mat_vec(a, v) == pytest.approx(a @ v, rel=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            core.mat_vec(np.eye(2), [1.0, 2.0, 3.0])

    def test_same_bytes_as_column_loop(self):
        # 100 seeded shapes, among them n = 1, Fortran-ordered matrices,
        # vectors holding -0.0 and exact zeros, and widths around and past
        # multiples of 256 columns
        stream = Stream(RngSpec(2718))
        widths = [1, 2, 7, 64, 255, 256, 257, 517]
        for case in range(100):
            m = 1 + stream.integer_below(40)
            n = widths[case % len(widths)] if case % 3 else 1 + stream.integer_below(300)
            a = stream.normal(m * n).reshape(m, n)
            v = stream.normal(n)
            if case % 4 == 1:
                a = np.asfortranarray(a)
            if case % 5 == 2:
                v[::2] = -0.0
                a[:, 1::3] = 0.0
            got, want = core.mat_vec(a, v), mat_vec_column_loop(a, v)
            assert got.tobytes() == want.tobytes(), (m, n, case)

    def test_support_only_sum_same_bytes_as_column_loop(self):
        # mat_vec skips the columns where v is zero; 3,000 seeded cases whose
        # entries are small dyadic values, so that running sums cancel to
        # exact zeros, with -0.0 and +0.0 in both a and v, and supports of v
        # empty, full and in between
        stream = Stream(RngSpec(1618))
        nonzero = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        entries = np.append(nonzero, [-0.0, 0.0])
        for case in range(3000):
            m = 1 + stream.integer_below(6)
            n = 1 + stream.integer_below(24)
            a = entries[(stream.uniform(m * n) * entries.size).astype(int)].reshape(m, n)
            if case % 7 == 3:
                a = np.asfortranarray(stream.normal(m * n).reshape(m, n))
            zeros = entries[6 + (stream.uniform(n) * 2).astype(int)]
            v = nonzero[(stream.uniform(n) * nonzero.size).astype(int)]
            support = {0: np.zeros(n, bool), 1: np.ones(n, bool)}.get(
                case % 4, stream.uniform(n) < 0.5)
            v = np.where(support, v, zeros)
            got, want = core.mat_vec(a, v), mat_vec_column_loop(a, v)
            assert got.tobytes() == want.tobytes(), (m, n, case)

    def test_negative_zero_products_sum_to_positive_zero(self):
        # the running sum starts at +0.0, so a row of -0.0 products gives +0.0
        got = core.mat_vec([[1.0, -2.0], [0.0, 0.0]], [-0.0, 0.0])
        assert got.tobytes() == mat_vec_column_loop([[1.0, -2.0], [0.0, 0.0]], [-0.0, 0.0]).tobytes()
        assert not np.signbit(got).any()
