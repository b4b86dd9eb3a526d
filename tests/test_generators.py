import math

import numpy as np
import pytest
from scipy.special import gammaincinv

from sl1 import core, generators
from sl1.rng import RngSpec


class TestGaussianMatrix:
    def test_deterministic(self):
        a = generators.gen_gaussian_matrix(20, 10, RngSpec(1, 2))
        b = generators.gen_gaussian_matrix(20, 10, RngSpec(1, 2))
        assert np.array_equal(a, b)

    def test_entry_moments(self):
        a = generators.gen_gaussian_matrix(200, 50, RngSpec(33))
        assert abs(a.mean()) < 0.05          # 4 sigma / sqrt(10^4) = 0.04
        assert 0.9 < a.var() < 1.1

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            generators.gen_gaussian_matrix(0, 3, RngSpec(0))


class TestSparseSignal:
    def test_full_support_unit(self):
        x = generators.gen_sparse_signal(10, 10, "unit", RngSpec(4))
        assert np.all(np.abs(x) == 1.0)

    def test_exact_sparsity_all_laws(self):
        for amplitude in ("unit", "gaussian", ("uniform", 0.5, 2.0)):
            for seed in range(5):
                x = generators.gen_sparse_signal(12, 4, amplitude, RngSpec(seed))
                assert core.norm_lp(x, 0) == 4

    def test_reproducible(self):
        a = generators.gen_sparse_signal(6, 2, "unit", RngSpec(9))
        b = generators.gen_sparse_signal(6, 2, "unit", RngSpec(9))
        assert np.array_equal(a, b)

    def test_uniform_range_respected(self):
        x = generators.gen_sparse_signal(30, 20, ("uniform", 0.5, 2.0), RngSpec(10))
        mags = np.abs(x[x != 0])
        assert mags.min() >= 0.5 and mags.max() <= 2.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            generators.gen_sparse_signal(3, 4, "unit", RngSpec(0))

    def test_degenerate_uniform_range_rejected(self):
        with pytest.raises(ValueError):
            generators.gen_sparse_signal(5, 2, ("uniform", 0.0, 1.0), RngSpec(0))


class TestCompressibleSignal:
    def test_magnitude_profile(self):
        x = generators.gen_compressible_signal(3, 1.0, RngSpec(5))
        assert sorted(np.abs(x), reverse=True) == pytest.approx([1.0, 0.5, 1.0 / 3.0])

    def test_tail_error_matches_formula(self):
        n, p, k = 12, 1.5, 3
        x = generators.gen_compressible_signal(n, p, RngSpec(6))
        expected = sum(i ** (-p) for i in range(k + 1, n + 1)) / math.sqrt(k)
        assert core.compressibility_error(x, k) == pytest.approx(expected, rel=1e-12)

    def test_steep_decay_concentrates_l1_mass(self):
        x = generators.gen_compressible_signal(16, 10.0, RngSpec(7))
        top1 = core.norm_lp(core.hard_threshold(x, 1), 1)
        assert top1 / core.norm_lp(x, 1) >= 0.999

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            generators.gen_compressible_signal(4, 0.0, RngSpec(0))


class TestSparseNoise:
    def test_zero_budget_gives_zero_vector(self):
        assert np.array_equal(generators.gen_sparse_noise(5, 2, 0.0, RngSpec(1)),
                              np.zeros(5))

    def test_budget_spent_exactly(self):
        for seed in range(10):
            eps = 0.75
            noise = generators.gen_sparse_noise(9, 3, eps, RngSpec(seed))
            assert abs(core.norm_lp(noise, 1) - eps) <= 2 * np.spacing(eps)
            assert core.norm_lp(noise, 0) == 3

    def test_dense_case(self):
        noise = generators.gen_sparse_noise(5, 5, 1.0, RngSpec(2))
        assert core.norm_lp(noise, 0) == 5
        assert core.norm_lp(noise, 1) == pytest.approx(1.0, abs=1e-15)

    def test_too_many_spikes_rejected(self):
        with pytest.raises(ValueError):
            generators.gen_sparse_noise(3, 4, 1.0, RngSpec(0))

    def test_without_budget_spikes_keep_their_draw(self):
        spikes = generators.gen_sparse_noise(9, 3, None, RngSpec(4))
        scaled = generators.gen_sparse_noise(9, 3, 0.75, RngSpec(4))
        assert core.norm_lp(spikes, 0) == 3
        assert np.array_equal(spikes * (0.75 / core.norm_lp(spikes, 1)), scaled)


class TestLaplacianNoise:
    def test_single_entry_quantile_closed_form(self):
        drawn = generators.gen_laplacian_noise(1, 0.99, RngSpec(3))
        assert drawn.epsilon == pytest.approx(-math.log(0.01), rel=1e-12)

    def test_reproducible(self):
        a = generators.gen_laplacian_noise(8, 0.9, RngSpec(4))
        b = generators.gen_laplacian_noise(8, 0.9, RngSpec(4))
        assert np.array_equal(a.noise, b.noise)
        assert a.epsilon == b.epsilon

    def test_quantile_coverage(self):
        # over many draws, P(||n||_1 <= eps) should match the level
        m, q, draws = 100, 0.99, 10_000
        eps = float(gammaincinv(m, q))
        covered = 0
        for i in range(draws):
            noise = generators.gen_laplacian_noise(m, q, RngSpec(1234, i)).noise
            covered += core.norm_lp(noise, 1) <= eps
        assert 0.985 <= covered / draws <= 0.995

    def test_exceeded_flag_consistent(self):
        for i in range(50):
            drawn = generators.gen_laplacian_noise(5, 0.5, RngSpec(77, i))
            assert drawn.exceeded == (core.norm_lp(drawn.noise, 1) > drawn.epsilon)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            generators.gen_laplacian_noise(5, 1.0, RngSpec(0))


class TestMakeInstance:
    def test_noiseless(self):
        inst = generators.make_instance(
            8, 6, 2, {"kind": "none"}, {"kind": "sparse", "amplitude": "unit"}, RngSpec(1))
        assert inst.epsilon == 0.0
        assert np.array_equal(inst.y, core.mat_vec(inst.phi, inst.x))
        inst.validate()

    def test_invariants_hold_across_seeds_and_noise_kinds(self):
        specs = [
            {"kind": "sparse", "s": 2, "epsilon": 0.5},
            {"kind": "sparse", "s": 3, "scale": 2.0},
            {"kind": "laplacian", "quantile": 0.9},
            {"kind": "none"},
        ]
        for seed in range(8):
            for noise_spec in specs:
                inst = generators.make_instance(
                    10, 7, 2, noise_spec, {"kind": "sparse", "amplitude": "gaussian"},
                    RngSpec(seed))
                inst.validate()
                residual = core.norm_lp(inst.y - core.mat_vec(inst.phi, inst.x), 1)
                noise_mass = core.norm_lp(inst.noise, 1)
                # y - phi x re-derives the noise up to rounding only
                assert residual == pytest.approx(noise_mass, rel=1e-12, abs=1e-13)
                assert noise_mass <= inst.epsilon

    def test_bit_identical_rebuild(self):
        kwargs = dict(n=9, m=5, k=2,
                      noise_spec={"kind": "sparse", "s": 2, "epsilon": 1.0},
                      signal_spec={"kind": "sparse", "amplitude": "unit"})
        a = generators.make_instance(rng=RngSpec(42, 7), **kwargs)
        b = generators.make_instance(rng=RngSpec(42, 7), **kwargs)
        for field in ("x", "phi", "noise", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.epsilon == b.epsilon

    def test_compressible_signal_instance(self):
        inst = generators.make_instance(
            12, 8, 3, {"kind": "none"}, {"kind": "compressible", "p": 2.0}, RngSpec(3))
        inst.validate()
        assert core.compressibility_error(inst.x, 3) > 0

    def test_laplacian_epsilon_covers_draw(self):
        # even when the draw exceeds the quantile, the stored epsilon
        # must still dominate ||n||_1 (flagged in the metadata)
        for i in range(200):
            inst = generators.make_instance(
                4, 3, 1, {"kind": "laplacian", "quantile": 0.5},
                {"kind": "sparse", "amplitude": "unit"}, RngSpec(5, i))
            assert core.norm_lp(inst.noise, 1) <= inst.epsilon
        flags = [generators.make_instance(
            4, 3, 1, {"kind": "laplacian", "quantile": 0.5},
            {"kind": "sparse", "amplitude": "unit"}, RngSpec(5, i)
        ).meta["noise"]["exceeded_quantile"] for i in range(50)]
        assert any(flags) and not all(flags)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            generators.make_instance(4, 3, 5, {"kind": "none"},
                                     {"kind": "sparse"}, RngSpec(0))

    def test_meta_records_only_the_kinds_keys(self):
        inst = generators.make_instance(
            6, 5, 1, {"kind": "sparse", "s": 2, "epsilon": None, "scale": 2, "quantile": 0.5},
            {"kind": "compressible", "amplitude": "unit", "p": 2}, RngSpec(8))
        assert inst.meta["signal"] == {"kind": "compressible", "p": 2.0}
        assert inst.meta["noise"] == {"kind": "sparse", "s": 2, "scale": 2.0,
                                      "epsilon_achieved": inst.epsilon}
        assert generators.make_instance(6, 5, 1, None, None, RngSpec(8)).meta["signal"] \
            == {"kind": "sparse", "amplitude": "unit"}

    @pytest.mark.parametrize("noise_spec, signal_spec", [
        ({"kind": "bogus"}, None),
        (None, {"kind": "bogus"}),
        ({"kind": "sparse"}, None),
        ({"kind": "laplacian"}, None),
        (None, {"kind": "compressible"}),
        ({"kind": "sparse", "s": 0, "epsilon": 1.0}, None),
        ({"kind": "sparse", "s": 0, "scale": 1.0}, None),
        ({"kind": "sparse", "s": 6, "epsilon": 1.0}, None),
        ({"kind": "sparse", "s": 6}, None),
    ])
    def test_invalid_spec_rejected(self, noise_spec, signal_spec):
        with pytest.raises(ValueError):
            generators.make_instance(8, 5, 1, noise_spec, signal_spec, RngSpec(0))


class TestBundleIo:
    def test_round_trip(self, tmp_path):
        inst = generators.make_instance(
            7, 5, 2, {"kind": "sparse", "s": 2, "epsilon": 0.7},
            {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(21))
        generators.save_bundle(tmp_path / "b", inst)
        back = generators.load_bundle(tmp_path / "b")
        for field in ("x", "phi", "noise", "y"):
            assert np.array_equal(getattr(back, field), getattr(inst, field))
        assert back.epsilon == inst.epsilon and back.k == inst.k
        assert back.meta["sampler"] == generators.SAMPLER_NAME

    def test_nan_epsilon_rejected(self):
        import dataclasses
        inst = generators.make_instance(
            6, 4, 1, {"kind": "none"}, {"kind": "sparse"}, RngSpec(2))
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            dataclasses.replace(inst, epsilon=math.nan).validate()

    def test_tampered_bundle_rejected(self, tmp_path):
        from sl1 import matio
        inst = generators.make_instance(
            6, 4, 1, {"kind": "none"}, {"kind": "sparse"}, RngSpec(2))
        generators.save_bundle(tmp_path / "b", inst)
        y = matio.read_vector_csv(tmp_path / "b" / "y.csv")
        y[0] += 1.0
        matio.write_vector_csv(tmp_path / "b" / "y.csv", y)
        with pytest.raises(matio.FormatError):
            generators.load_bundle(tmp_path / "b")
