import itertools
import math

import numpy as np
import pytest

from sl1 import analysis, conditions, core
from sl1.conditions import SearchBudget
from sl1.generators import gen_gaussian_matrix, make_instance
from sl1.rng import RngSpec, Stream

from oracles import (ascend_sphere_scalar, circle_arcs_one_support, cross_climb_scalar,
                     cross_deviation_disjoint_max_k1, k1_exact_cross_deviation,
                     k1_exact_norm_deviation, norm_deviation_on_angle_grid)

NU = math.sqrt(2.0 / math.pi)


class TestHalfNormalMean:
    def test_fifteen_significant_digits(self):
        assert f"{conditions.half_normal_mean():.15g}" == "0.797884560802865"

    def test_condition_threshold(self):
        assert f"{conditions.half_normal_mean() - 0.5:.15g}" == "0.297884560802865"

    def test_monte_carlo_half_normal(self):
        g = Stream(RngSpec(321)).normal(1_000_000)
        assert abs(np.abs(g).mean() - conditions.half_normal_mean()) < 0.002


class TestNormDeviation:
    def test_engineered_zero(self):
        phi = np.array([[NU]])
        assert conditions.l1_norm_deviation(phi, [1.0]) == pytest.approx(0.0, abs=1e-16)

    def test_scale_invariance(self):
        phi = gen_gaussian_matrix(6, 4, RngSpec(1))
        u = np.array([1.0, -2.0, 0.0, 0.5])
        assert conditions.l1_norm_deviation(phi, u) \
            == pytest.approx(conditions.l1_norm_deviation(phi, 2.0 * u), rel=1e-12)

    def test_unit_matrix_value(self):
        assert conditions.l1_norm_deviation(np.array([[1.0]]), [1.0]) \
            == pytest.approx(1.0 - NU, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            conditions.l1_norm_deviation(np.eye(2), [0.0, 0.0])


class TestCrossDeviation:
    def test_zero_when_phi_v_vanishes(self):
        phi = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert conditions.sign_cross_deviation(phi, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_invariant_under_positive_scaling_of_u(self):
        phi = gen_gaussian_matrix(7, 4, RngSpec(2))
        u = np.array([1.0, 0.0, -1.0, 0.0])
        v = np.array([0.0, 2.0, 0.0, 0.0])
        assert conditions.sign_cross_deviation(phi, u, v) \
            == conditions.sign_cross_deviation(phi, 5.0 * u, v)

    def test_hand_example_exercises_sign_zero_convention(self):
        # phi = I2, u = e0, v = e1: phi u = (1, 0), sign -> (1, -1),
        # phi v = (0, 1), inner product -1, |.|/M = 1/2
        value = conditions.sign_cross_deviation(np.eye(2), [1.0, 0.0], [0.0, 1.0])
        assert value == 0.5

    def test_non_orthogonal_pair_rejected(self):
        with pytest.raises(ValueError):
            conditions.sign_cross_deviation(np.eye(2), [1.0, 0.0], [1.0, 1.0])


class TestSearchBudget:
    @pytest.mark.parametrize("field, value", [
        ("supports", -5), ("pairs", -1), ("starts", -1), ("steps", -3),
        ("exhaustive_cap", -1), ("overlap_share", 1.5), ("overlap_share", -0.1)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            SearchBudget(**{field: value})

    def test_zero_and_share_bounds_accepted(self):
        budget = SearchBudget(supports=0, pairs=0, starts=0, steps=0,
                              exhaustive_cap=0, overlap_share=0.0)
        assert not budget.engaged()
        assert SearchBudget(overlap_share=1.0).overlap_share == 1.0


class TestNormSearch:
    def test_zero_budget_gives_zero_estimate(self):
        phi = gen_gaussian_matrix(10, 6, RngSpec(3))
        part = conditions.estimate_norm_deviation(
            phi, 1, SearchBudget(supports=0), RngSpec(4))
        assert part.value == 0.0 and part.samples == 0 and not part.exhaustive

    def test_monotone_in_budget(self):
        phi = gen_gaussian_matrix(30, 12, RngSpec(5))
        small = conditions.estimate_norm_deviation(
            phi, 2, SearchBudget(supports=5, exhaustive_cap=0), RngSpec(6))
        large = conditions.estimate_norm_deviation(
            phi, 2, SearchBudget(supports=20, exhaustive_cap=0), RngSpec(6))
        assert large.value >= small.value

    def test_witness_reevaluates_exactly(self):
        phi = gen_gaussian_matrix(25, 8, RngSpec(7))
        part = conditions.estimate_norm_deviation(phi, 2, SearchBudget(), RngSpec(8))
        w = part.witness
        assert abs(conditions.l1_norm_deviation(phi, w.u_vector(8)) - part.value) <= 1e-12

    def test_exhaustive_flag_and_counts(self):
        phi = gen_gaussian_matrix(15, 6, RngSpec(9))
        part = conditions.estimate_norm_deviation(phi, 1, SearchBudget(), RngSpec(10))
        assert part.exhaustive
        assert part.visited == part.total == math.comb(6, 2)

    def test_matches_dense_angle_grid_at_k1(self):
        # exhaustive ascent must reproduce a dense direction grid scan
        phi = gen_gaussian_matrix(60, 6, RngSpec(11))
        part = conditions.estimate_norm_deviation(
            phi, 1, SearchBudget(starts=8, steps=80), RngSpec(12))
        from itertools import combinations
        grid_best = max(norm_deviation_on_angle_grid(phi, sup, NU)
                        for sup in combinations(range(6), 2))
        assert part.value == pytest.approx(grid_best, abs=2e-4)
        assert part.value <= grid_best + 2e-4

    def test_sparsity_too_large_rejected(self):
        with pytest.raises(ValueError):
            conditions.estimate_norm_deviation(np.eye(3), 2, SearchBudget(), RngSpec(0))

    @pytest.mark.parametrize("m,width,starts,steps", [(60, 6, 6, 40), (30, 4, 5, 80),
                                                      (12, 2, 3, 60), (400, 2, 6, 0)])
    def test_lane_ascent_matches_scalar_reference(self, m, width, starts, steps):
        # The batched products round differently from one product per
        # lane.  Near a kink of the objective a step shorter than 1e-8 can
        # then be kept in one and rejected in the other, which moves that
        # lane's count by one and its z by less than the step.
        stream = Stream(RngSpec(m, width))
        bsub = stream.normal(m * width).reshape(m, width)
        z0 = np.repeat(stream.normal(width * starts).reshape(width, starts), 2, axis=1)
        directions = np.tile([1.0, -1.0], starts)
        z, vals, evals = conditions._norm_lanes(bsub[None], NU, z0[None], directions, steps)
        z, vals, evals = z[0], vals[0], evals[0]
        for lane in range(2 * starts):
            ref_z, ref_val, ref_evals = ascend_sphere_scalar(
                bsub, NU, z0[:, lane], directions[lane], steps)
            assert vals[lane] == pytest.approx(ref_val, rel=1e-12, abs=0)
            assert abs(int(evals[lane]) - ref_evals) <= 1
            np.testing.assert_allclose(z[:, lane], ref_z, rtol=0, atol=1e-7)
        if steps > 40:
            # some lanes stop early, on their own
            assert evals.min() <= steps and len(set(evals.tolist())) > 1

    def test_lanes_of_several_supports_climb_independently(self):
        # a stack of supports gives each support the lanes it gets alone
        stream = Stream(RngSpec(77))
        b = stream.normal(5 * 40 * 4).reshape(5, 40, 4)
        z0 = stream.normal(5 * 4 * 6).reshape(5, 4, 6)
        directions = np.tile([1.0, -1.0], 3)
        stacked = conditions._norm_lanes(b, NU, z0, directions, 30)
        for i in range(5):
            alone = conditions._norm_lanes(b[i:i + 1], NU, z0[i:i + 1], directions, 30)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[i], want[0])


class TestCrossSearch:
    def test_monotone_in_budget(self):
        phi = gen_gaussian_matrix(30, 10, RngSpec(13))
        small = conditions.estimate_cross_deviation(
            phi, 2, SearchBudget(pairs=5, exhaustive_cap=0), RngSpec(14))
        large = conditions.estimate_cross_deviation(
            phi, 2, SearchBudget(pairs=20, exhaustive_cap=0), RngSpec(14))
        assert large.value >= small.value

    def test_witness_is_orthogonal_and_reevaluates(self):
        phi = gen_gaussian_matrix(20, 9, RngSpec(15))
        part = conditions.estimate_cross_deviation(
            phi, 2, SearchBudget(pairs=30), RngSpec(16))
        w = part.witness
        u, v = w.u_vector(9), w.v_vector(9)
        assert abs(float(u @ v)) <= 1e-12 * core.norm_lp(u, 2) * core.norm_lp(v, 2)
        assert abs(conditions.sign_cross_deviation(phi, u, v) - part.value) <= 1e-12

    def test_exhaustive_matches_k1_grid_oracle(self):
        phi = gen_gaussian_matrix(40, 5, RngSpec(17))
        part = conditions.estimate_cross_deviation(
            phi, 1, SearchBudget(starts=8, steps=80), RngSpec(18))
        assert part.exhaustive
        from itertools import combinations
        best = 0.0
        for su in combinations(range(5), 2):
            comp = [j for j in range(5) if j not in su]
            for sv in comp:
                best = max(best, cross_deviation_disjoint_max_k1(phi, su, [sv]))
        assert part.value == pytest.approx(best, abs=2e-4)

    def test_families_recorded(self):
        phi = gen_gaussian_matrix(15, 8, RngSpec(19))
        part = conditions.estimate_cross_deviation(
            phi, 2, SearchBudget(pairs=40, exhaustive_cap=0, overlap_share=0.5),
            RngSpec(20))
        assert part.families["disjoint"] > 0
        assert part.families["overlap"] > 0
        assert part.families["disjoint"] + part.families["overlap"] == 40

    @pytest.mark.parametrize("m,n,k", [(10, 4, 2), (12, 6, 3), (12, 7, 3)])
    def test_overlap_only_when_3k_exceeds_n(self, m, n, k):
        # only n - 2k indices lie outside a 2k-support, so every sampled
        # pair must overlap in at least 3k - n of them
        phi = gen_gaussian_matrix(m, n, RngSpec(23))
        budget = SearchBudget()
        part = conditions.estimate_cross_deviation(phi, k, budget, RngSpec(24))
        assert part.families["overlap"] == budget.pairs
        w = part.witness
        u, v = w.u_vector(n), w.v_vector(n)
        assert abs(conditions.sign_cross_deviation(phi, u, v) - part.value) <= 1e-12

    @pytest.mark.parametrize("case", ["sampled", "exhaustive"])
    def test_golden_values(self, case):
        # pinned output, witness supports included: how an ascent step
        # (sampled, k = 2; starts and directions drawn in pair order on one
        # stream) or an arc (exhaustive, k = 1; one evaluation per arc and
        # pair) is evaluated must not change a byte of it
        if case == "sampled":
            phi = gen_gaussian_matrix(30, 12, RngSpec(5))
            part = conditions.estimate_cross_deviation(
                phi, 2, SearchBudget(pairs=30, exhaustive_cap=0), RngSpec(41))
            # re-pinned when the per-pair keyed streams gave way to one
            # stream in pair order (was 0.6724321842165266, 6170 samples)
            expected = (0.595559443991885, 6136, 30, {"disjoint": 18, "overlap": 12},
                        [1, 6, 7, 8], [0, 10])
        else:
            phi = gen_gaussian_matrix(40, 6, RngSpec(17))
            part = conditions.estimate_cross_deviation(phi, 1, SearchBudget(), RngSpec(18))
            expected = (0.49344643195405047, 4800, 60, {"disjoint": 60, "overlap": 0},
                        [2, 4], [0])
        w = part.witness
        assert (part.value, part.samples, part.visited, part.families,
                w.u_indices, w.v_indices) == expected
        assert part.exhaustive == (case == "exhaustive")

    @pytest.mark.parametrize("m,k,starts,steps,shared", [
        (40, 2, 6, 40, 0), (30, 3, 4, 60, 2), (12, 2, 3, 80, 1), (60, 3, 5, 0, 1)])
    def test_lane_climb_matches_scalar_reference(self, m, k, starts, steps, shared):
        # S_u = 0 .. 2k-1, S_v holds `shared` of them and k - shared more
        stream = Stream(RngSpec(m, 10 * k + shared))
        phi = stream.normal(m * 3 * k).reshape(m, 3 * k)
        su = np.arange(2 * k)
        sv = np.concatenate([su[2 * k - shared:], np.arange(2 * k, 3 * k - shared)])
        sel = (sv[:, None] == su[None, :]).astype(float)
        z0 = stream.normal(2 * k * starts).reshape(2 * k, starts)
        directions = stream.normal(steps * 2 * k * starts).reshape(steps, 2 * k, starts)
        z, vals, v, evals = (out[0] for out in conditions._cross_lanes(
            phi[:, su][None], phi[:, sv][None], sel[None], z0[None], directions[None]))
        for lane in range(starts):
            ref_z, ref_val, ref_v, ref_evals = cross_climb_scalar(
                phi[:, su], phi[:, sv], sel, z0[:, lane], directions[:, :, lane])
            assert vals[lane] == pytest.approx(ref_val, rel=1e-12, abs=0)
            assert int(evals[lane]) == ref_evals
            np.testing.assert_allclose(z[:, lane], ref_z, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v[:, lane], ref_v, rtol=0, atol=1e-12)
            # the witness pair is orthogonal and re-evaluates to the value
            u_full, v_full = core.embed(z[:, lane], su, 3 * k), core.embed(v[:, lane], sv, 3 * k)
            assert abs(float(u_full @ v_full)) <= 1e-12
            assert conditions.sign_cross_deviation(phi, u_full, v_full) \
                == pytest.approx(vals[lane], rel=1e-12)
        if steps > 40:
            assert evals.min() <= steps  # some lanes stop early, on their own

    def test_lane_without_witness_never_wins(self):
        # a zero S_v block leaves nothing to correlate with
        phi = gen_gaussian_matrix(20, 9, RngSpec(42))
        phi[:, 6:] = 0.0
        su, sv = np.arange(4), np.arange(6, 8)
        sel = np.zeros((1, 2, 4))
        stream = Stream(RngSpec(43))
        z, vals, v, evals = conditions._cross_lanes(
            phi[:, su][None], phi[:, sv][None], sel, stream.normal(12).reshape(1, 4, 3),
            stream.normal(60).reshape(1, 5, 4, 3))
        assert np.all(vals == -math.inf)
        ref = cross_climb_scalar(phi[:, su], phi[:, sv], sel[0], np.ones(4), np.ones((5, 4)))
        assert ref[1] == -math.inf and ref[2] is None

    def test_pair_draws_come_in_pair_order_from_one_stream(self, monkeypatch):
        # pair i's starts and step directions are the i-th normal call,
        # of one fixed size, on the stream rng.child(1)
        phi = gen_gaussian_matrix(30, 12, RngSpec(44))
        climbed = []
        lanes = conditions._cross_lanes

        def recording(*args):
            climbed.append(args[3:])
            return lanes(*args)

        monkeypatch.setattr(conditions, "BLOCK", 1)
        monkeypatch.setattr(conditions, "_cross_lanes", recording)
        starts, steps, width = 3, 5, 4
        spec = RngSpec(45)
        conditions.estimate_cross_deviation(
            phi, 2, SearchBudget(pairs=12, starts=starts, steps=steps, exhaustive_cap=0), spec)
        assert len(climbed) == 12
        stream = Stream(spec.child(1))
        for z0, directions in climbed:
            own = stream.normal((steps + 1) * starts * width)
            own = own.reshape(steps + 1, starts, width).transpose(0, 2, 1)
            assert np.array_equal(z0[0], own[0])
            assert np.array_equal(directions[0], own[1:])

    def test_larger_pair_budget_extends_smaller(self, monkeypatch):
        # every pair climbs the same lanes whatever the budget: the first
        # 10 pairs of a 25-pair search are the 10-pair search
        phi = gen_gaussian_matrix(30, 12, RngSpec(44))
        climbed = []
        lanes = conditions._cross_lanes

        def recording(*args):
            climbed.append(lanes(*args))
            return climbed[-1]

        monkeypatch.setattr(conditions, "BLOCK", 1)
        monkeypatch.setattr(conditions, "_cross_lanes", recording)
        for pairs in (10, 25):
            conditions.estimate_cross_deviation(
                phi, 2, SearchBudget(pairs=pairs, exhaustive_cap=0), RngSpec(45))
        assert len(climbed) == 35
        for small, large in zip(climbed[:10], climbed[10:20]):
            for a, b in zip(small, large):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,k,kw", [(8, 2, {}), (30, 2, {"exhaustive_cap": 0}),
                                        (12, 3, {"exhaustive_cap": 0, "supports": 9}),
                                        (8, 1, {}),
                                        (30, 1, {"exhaustive_cap": 0, "supports": 150,
                                                 "pairs": 150})])
    def test_block_size_changes_nothing(self, monkeypatch, n, k, kw):
        phi = gen_gaussian_matrix(25, n, RngSpec(46, n))
        budget = SearchBudget(**kw)
        full = conditions.estimate_conditions(phi, k, budget, RngSpec(47)).as_dict()
        monkeypatch.setattr(conditions, "BLOCK", 1)
        assert conditions.estimate_conditions(phi, k, budget, RngSpec(47)).as_dict() == full
        assert full["exhaustive"] == (n == 8)

    def test_no_family_available_rejected(self):
        phi = gen_gaussian_matrix(5, 4, RngSpec(21))
        with pytest.raises(ValueError):
            conditions.estimate_cross_deviation(
                phi, 2, SearchBudget(overlap_share=0.0), RngSpec(22))


def _toy_matrix(t):
    # the criterion-4 toy matrices
    return make_instance(8, 400, 1, {"kind": "sparse", "s": 40, "scale": 1.0},
                         {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(60221, t)).phi


def _grid_oracles(phi):
    """Dense-angle-grid maxima of both deviations at k = 1."""
    n = phi.shape[1]
    supports = list(itertools.combinations(range(n), 2))
    norm = max(norm_deviation_on_angle_grid(phi, su, NU) for su in supports)
    cross = max(cross_deviation_disjoint_max_k1(phi, su, [j])
                for su in supports for j in range(n) if j not in su)
    return norm, cross


class TestExactK1:
    # (norm, cross) that the multi-start ascent reported on the toy
    # matrices with SearchBudget(starts=6, steps=40) before the arc
    # enumeration replaced it at k = 1.  Its norm values on t = 0 and 5
    # sit about 1.4e-16 above the exact supremum (rounding in
    # l1_norm_deviation at its witness), so the bound allows 1e-15.
    ASCENT = [(0.06851778527103491, 0.17389378891054577),
              (0.08848477227967, 0.17342256330689204),
              (0.0965253361071664, 0.22629829328697426),
              (0.09002088729212687, 0.17583891555834408),
              (0.09989727530607662, 0.15889532423443403),
              (0.09648655101333992, 0.18774566647067648)]

    @pytest.mark.parametrize("t", range(6))
    def test_toy_matrices_match_arc_oracles(self, t):
        phi = _toy_matrix(t)
        budget = SearchBudget(starts=6, steps=40)
        norm = conditions.estimate_norm_deviation(phi, 1, budget, RngSpec(60222, t).child(1))
        cross = conditions.estimate_cross_deviation(phi, 1, budget, RngSpec(60222, t).child(2))
        assert abs(norm.value - k1_exact_norm_deviation(phi, NU)) <= 1e-12
        assert abs(cross.value - k1_exact_cross_deviation(phi)) <= 1e-12
        ascent_norm, ascent_cross = self.ASCENT[t]
        assert norm.value >= ascent_norm - 1e-15
        assert cross.value >= ascent_cross
        assert (norm.visited, norm.total, cross.visited, cross.total) == (28, 28, 168, 168)
        assert norm.exhaustive and cross.exhaustive

    @pytest.mark.parametrize("seed", range(4))
    def test_random_matrices_match_arc_oracles(self, seed):
        phi = gen_gaussian_matrix(40, 6, RngSpec(900, seed))
        est = conditions.estimate_conditions(phi, 1, SearchBudget(), RngSpec(seed))
        assert abs(est.norm_dev_lower - k1_exact_norm_deviation(phi, NU)) <= 1e-12
        assert abs(est.cross_dev_lower - k1_exact_cross_deviation(phi)) <= 1e-12
        assert est.refinement == "exact-arcs" and est.exhaustive
        assert est.verify(phi)

    def test_toy_verdicts(self):
        verdicts = []
        for t in range(6):
            est = conditions.estimate_conditions(_toy_matrix(t), 1,
                                                 SearchBudget(starts=6, steps=40),
                                                 RngSpec(60222, t))
            verdicts.append(conditions.condition_verdict(est))
        assert verdicts == ["satisfied"] * 2 + ["violated"] + ["satisfied"] * 3

    def test_sampled_mode_solves_each_drawn_support(self):
        # supports come off the stream as before, with no start vectors
        # between them, and each is solved exactly
        phi = gen_gaussian_matrix(40, 6, RngSpec(901))
        budget = SearchBudget(supports=7, exhaustive_cap=0)
        part = conditions.estimate_norm_deviation(phi, 1, budget, RngSpec(3))
        stream = Stream(RngSpec(3).child(0))
        drawn = [stream.subset(6, 2) for _ in range(budget.supports)]
        best = max(k1_exact_norm_deviation(phi[:, sup], NU) for sup in drawn)
        assert not part.exhaustive and part.visited == 7
        assert abs(part.value - best) <= 1e-12
        assert part.witness.u_indices in [sup.tolist() for sup in drawn]

    def test_sampled_cross_families_and_witness(self):
        phi = gen_gaussian_matrix(40, 6, RngSpec(902))
        part = conditions.estimate_cross_deviation(
            phi, 1, SearchBudget(pairs=50, exhaustive_cap=0), RngSpec(4))
        assert part.families["disjoint"] + part.families["overlap"] == 50
        assert part.families["overlap"] > 0
        assert part.value <= k1_exact_cross_deviation(phi) + 1e-12
        w = part.witness
        value = conditions.sign_cross_deviation(phi, w.u_vector(6), w.v_vector(6))
        assert value == part.value and w.v_coeffs == [1.0]

    def test_overlap_pair_closed_form(self):
        # S_v = {j} inside S_u forces u = +-e_i: |sign(+-phi_i) . phi_j| / M
        phi = gen_gaussian_matrix(30, 4, RngSpec(903))
        phi[:5, 0] = 0.0  # sign(0) = -1 tells u = e_0 from u = -e_0
        val, zu = conditions._cross_overlap_k1(phi, np.array([0, 2]), 2)
        plus = abs(core.sign_vec(phi[:, 0]) @ phi[:, 2]) / 30
        minus = abs(core.sign_vec(-phi[:, 0]) @ phi[:, 2]) / 30
        assert val == max(plus, minus)
        assert zu.tolist() == ([1.0, 0.0] if plus >= minus else [-1.0, 0.0])


def _degenerate(kind):
    phi = gen_gaussian_matrix(40, 5, RngSpec(904))
    if kind == "zero-row":
        phi[7] = 0.0
    elif kind == "zero-column":
        # u = e_2 sends every sign to sign(0) = -1, a pattern that lives
        # only at breakpoints of the supports holding column 2
        phi[:, 2] = 0.0
        phi[:, 3] = np.abs(phi[:, 3])
    elif kind == "duplicate-column":
        phi[:, 4] = phi[:, 1]
    else:
        phi = gen_gaussian_matrix(1, 5, RngSpec(904))
    return phi


def _tied_matrix():
    # small integers: zero rows, repeated and opposite rows, a zero
    # column (a support with one zero column puts rows of opposite signs
    # on one line) and a pair of zero columns (a support with no breakpoint)
    phi = np.round(2.0 * gen_gaussian_matrix(30, 9, RngSpec(905)))
    phi[:4] = 0.0
    phi[20:26] = -phi[4:10]
    phi[:, 3] = 0.0
    phi[:, 6] = phi[:, 7] = 0.0
    phi[:, 5] = -phi[:, 4]
    return phi


class TestArcSweep:
    @pytest.mark.parametrize("kind", ["gaussian", "tied"])
    def test_batched_sweep_matches_one_support_at_a_time(self, kind):
        # every support of a stack gets the bytes of its own sweep: the
        # arcs, their sums over every column, and the breakpoint patterns
        phi = gen_gaussian_matrix(40, 9, RngSpec(906)) if kind == "gaussian" else _tied_matrix()
        sups = np.array(list(itertools.combinations(range(9), 2)))
        b = conditions._stacked(phi, sups)
        lo, hi, arc, sums, points, point_z, point_sums = conditions._circle_arcs(
            b, np.broadcast_to(phi, (len(sups),) + phi.shape))
        patterns = 0
        for i, sup in enumerate(sups):
            want = circle_arcs_one_support(phi[:, sup], phi, conditions.ARC_MERGE)
            mine = points == i
            got = (lo[i][arc[i]], hi[i][arc[i]], sums[i][arc[i]], point_z[mine],
                   point_sums[mine])
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            patterns += int(mine.sum())
        assert patterns > 0 if kind == "tied" else patterns == 0


class TestDegenerateK1:
    @pytest.mark.parametrize("kind", ["zero-row", "zero-column", "duplicate-column", "m=1"])
    def test_finite_verified_and_not_below_grid(self, kind):
        phi = _degenerate(kind)
        est = conditions.estimate_conditions(phi, 1, SearchBudget(), RngSpec(5))
        assert math.isfinite(est.norm_dev_lower) and math.isfinite(est.cross_dev_lower)
        assert est.verify(phi)
        grid_norm, grid_cross = _grid_oracles(phi)
        assert est.norm_dev_lower >= grid_norm - 1e-12
        assert est.cross_dev_lower >= grid_cross - 1e-12

    def test_all_negative_pattern_found_at_a_breakpoint(self):
        phi = _degenerate("zero-column")
        part = conditions.estimate_cross_deviation(phi, 1, SearchBudget(), RngSpec(6))
        assert part.value == pytest.approx(float(np.sum(phi[:, 3])) / 40, abs=1e-15)
        assert part.witness.v_indices == [3]
        # the angle grid meets that pattern only where it samples the
        # breakpoint exactly, and the arc midpoints never do
        assert part.value > k1_exact_cross_deviation(phi) + 0.1

    def test_support_of_two_zero_columns(self):
        # phi z = 0 on the whole circle: no row has a breakpoint, and the
        # deviation |0 - nu| is nu everywhere
        phi = np.zeros((40, 2))
        est = conditions.estimate_conditions(phi, 1, SearchBudget(), RngSpec(5))
        assert est.norm_dev_lower == pytest.approx(NU, rel=1e-15)
        assert est.norm_part.witness.u_indices == [0, 1]
        assert est.verify(phi)
        assert conditions.condition_verdict(est) == "violated"


class TestVerdict:
    def _estimate(self, norm_dev, cross_dev, exhaustive):
        return conditions.ConditionEstimate(
            calibration=NU, norm_dev_lower=norm_dev, cross_dev_lower=cross_dev,
            k=1, samples=10, refinement="local-ascent", exhaustive=exhaustive)

    def test_within_threshold_exhaustive_is_satisfied(self):
        assert conditions.condition_verdict(self._estimate(0.1, 0.1, True)) == "satisfied"

    def test_within_threshold_sampled_is_inconclusive(self):
        assert conditions.condition_verdict(self._estimate(0.1, 0.1, False)) == "inconclusive"

    def test_violated_by_lower_bounds(self):
        assert conditions.condition_verdict(self._estimate(0.2, 0.15, False)) == "violated"
        assert conditions.condition_verdict(self._estimate(0.2, 0.15, True)) == "violated"

    def test_small_matrix_is_violated_large_m_is_not(self):
        budget = SearchBudget(supports=20, pairs=40)
        small_m = conditions.estimate_conditions(
            gen_gaussian_matrix(10, 6, RngSpec(23)), 1, budget, RngSpec(24))
        assert conditions.condition_verdict(small_m) == "violated"
        # N=6, M=500, pinned seed: dense-angle-grid enumeration puts the
        # true norm-deviation sup at 0.0942 and the cross sup at 0.1862
        # for this matrix; the searches must stay at or below those.
        big_m = conditions.estimate_conditions(
            gen_gaussian_matrix(500, 6, RngSpec(25)), 1, budget, RngSpec(26))
        assert small_m.norm_dev_lower > big_m.norm_dev_lower
        assert big_m.norm_dev_lower < 0.15
        assert big_m.norm_dev_lower == pytest.approx(0.0942291699579979, abs=1e-6)
        assert big_m.cross_dev_lower == pytest.approx(0.18617592754623366, abs=1e-6)

    def test_estimate_verify_and_serialization(self):
        phi = gen_gaussian_matrix(50, 7, RngSpec(27))
        est = conditions.estimate_conditions(phi, 1, SearchBudget(), RngSpec(28))
        assert est.verify(phi)
        doc = est.as_dict()
        assert doc["norm_search"]["witness"]["u_indices"] \
            == est.norm_part.witness.u_indices
        assert doc["exhaustive"] == est.exhaustive

    def test_sampled_stream_order_pinned(self):
        # Supports and their starts come in one fixed order from one
        # stream, pairs from another, and the pairs' starts and step
        # directions in pair order from a third; these exact values pin
        # that order.  Re-pinned when the per-pair keyed streams gave way
        # to that third stream (was 0.7078565538866062, 16180 samples).
        phi = gen_gaussian_matrix(30, 12, RngSpec(5))
        budget = SearchBudget(supports=20, pairs=30, exhaustive_cap=0)
        est = conditions.estimate_conditions(phi, 2, budget, RngSpec(7))
        assert est.norm_dev_lower == 0.3688902984807671
        assert est.cross_dev_lower == 0.603965963304128
        assert est.samples == 16186
        assert est.norm_part.visited == 20 and est.cross_part.visited == 30
        assert est.cross_part.families == {"disjoint": 13, "overlap": 17}
        assert est.verify(phi)


class TestLemmaFormulas:
    def test_sample_bound_examples(self):
        params = conditions.SampleBoundParams(c_sample=1, delta=1.0, k=2, n=16)
        assert conditions.sample_complexity_bound(params) == 6
        params = conditions.SampleBoundParams(c_sample=1, delta=0.5, k=2, n=16)
        assert conditions.sample_complexity_bound(params) == 355

    def test_sample_bound_linear_in_constant(self):
        lo = conditions.SampleBoundParams(c_sample=1, delta=0.8, k=3, n=20)
        hi = conditions.SampleBoundParams(c_sample=2, delta=0.8, k=3, n=20)
        ratio = conditions.sample_complexity_bound(hi) / conditions.sample_complexity_bound(lo)
        assert 1.9 <= ratio <= 2.1

    def test_sample_bound_validation(self):
        with pytest.raises(ValueError):
            conditions.SampleBoundParams(delta=0.0)
        with pytest.raises(ValueError):
            conditions.SampleBoundParams(k=5, n=3)

    def test_probability_bound_examples(self):
        assert conditions.concentration_probability(1.0, 1.0, 10) \
            == pytest.approx(1.0 - 8.0 * math.exp(-10.0), rel=1e-12)
        assert conditions.concentration_probability(1.0, 0.1, 1) == 0.0  # clamped

    @pytest.mark.parametrize("call", [
        lambda: conditions.concentration_check(8, 20, 1, math.nan, trials=1, rng=RngSpec(0),
                                               samples_per_trial=1),
        lambda: conditions.concentration_probability(math.nan, 0.5, 10),
        lambda: conditions.SampleBoundParams(c_sample=math.nan),
        lambda: analysis.recovery_error_bound(math.nan, 10, 0.0),
        lambda: analysis.recovery_error_bound(1.0, 10, math.nan),
        lambda: analysis.recovery_error_bound_sharp(1.0, 10, 0.0, NU, math.nan, 0.0),
    ], ids=["concentration_check", "concentration_probability", "sample_bound_params",
            "bound_epsilon", "bound_e0", "sharp_deviation"])
    def test_nan_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: conditions.concentration_probability(1.0, 0.5, math.nan),
        lambda: analysis.recovery_error_bound(1.0, math.nan, 0.0),
        lambda: analysis.recovery_error_bound_sharp(1.0, math.nan, 0.0, NU, 0.0, 0.0),
    ], ids=["concentration_probability", "bound", "sharp"])
    def test_nan_m_rejected(self, call):
        with pytest.raises(ValueError, match="m must be positive"):
            call()

    def test_probability_bound_monotone_in_m(self):
        values = [conditions.concentration_probability(1.0, 0.5, m)
                  for m in (1, 10, 50, 200)]
        assert values == sorted(values)
        assert all(0.0 <= v < 1.0 for v in values)


class TestConcentrationCheck:
    def test_small_sanity_run(self):
        report = conditions.concentration_check(12, 300, 2, 0.3, trials=3,
                                                rng=RngSpec(31), samples_per_trial=50)
        assert report.violation_rate_norm <= 0.05
        assert report.violation_rate_cross <= 0.05
        assert abs(report.mean_l1_ratio - NU) < 0.05

    def test_loose_delta_never_violated(self):
        report = conditions.concentration_check(10, 50, 1, 1.0, trials=3,
                                                rng=RngSpec(32), samples_per_trial=100)
        assert report.violation_rate_norm == 0.0

    def test_single_measurement_cannot_concentrate(self):
        report = conditions.concentration_check(6, 1, 1, 0.5, trials=3,
                                                rng=RngSpec(33), samples_per_trial=200)
        assert report.violation_rate_norm > 0.2

    def test_report_serializes(self):
        report = conditions.concentration_check(8, 40, 1, 0.5, trials=2,
                                                rng=RngSpec(34), samples_per_trial=20)
        doc = report.as_dict()
        assert len(doc["trials"]) == 2
        assert doc["params"]["m"] == 40
