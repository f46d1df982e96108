import math

import numpy as np
import pytest

import mfent as mf

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2
FAST = ((4, 4), (8, 8), (12, 12))
QG = np.arange(-3, 3.01, 0.25)


class TestPartition:
    def test_counting(self, fair):
        assert mf.log_partition(fair, 0.0, 10) == pytest.approx(10 * LOG2)

    def test_mass_normalization(self, biased):
        assert mf.log_partition(biased, 1.0, 8) == pytest.approx(0.0, abs=1e-12)

    def test_zero_mass_blowup(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        assert mf.log_partition(degenerate, -1.0, 4) == math.inf


class TestHCurve:
    def test_fair_coin_closed_form(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        expect = (1 - curve.q_grid) * LOG2
        np.testing.assert_allclose(curve.h_values, expect, atol=2e-2)
        assert curve.convexity_certificate

    def test_biased_exact_points(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        assert curve.value(0.0) == pytest.approx(LOG2, abs=1e-10)
        assert curve.value(1.0) == pytest.approx(0.0, abs=1e-10)
        assert curve.value(2.0) == pytest.approx(math.log(0.25**2 + 0.75**2), abs=1e-10)

    def test_convexity_certified(self, biased, parry):
        for model in (biased, parry):
            assert mf.h_curve(model, QG, schedule=FAST).convexity_certificate

    def test_duplicate_grid_points_collapsed(self, fair):
        curve = mf.h_curve(fair, [0.0, 1.0, 1.0, 2.0], schedule=FAST)
        assert len(curve.q_grid) == 3

    def test_reducible_space_rejected(self):
        sp = mf.make_shift(2, [[1, 1], [0, 1]])
        mk = mf.Markov(sp, [[0.5, 0.5], [0.0, 1.0]], pi=[0.0, 1.0])
        with pytest.raises(ValueError):
            mf.h_curve(mk, QG, schedule=FAST)

    def test_interpolation(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        assert curve.value(0.125) == pytest.approx((1 - 0.125) * LOG2, abs=2e-2)

    def test_one_word_length_cached_at_a_time(self, biased):
        # depths are the outer loop: one enumeration per schedule length
        mf.log_mass_array.cache_clear()
        mf.h_curve(biased, QG, schedule=FAST)
        info = mf.log_mass_array.cache_info()
        assert info.currsize <= 1
        assert info.misses == len(FAST)
        assert info.hits == len(FAST) * (len(QG) - 1)


class TestLegendre:
    def test_fair_coin_spectrum_is_a_point(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        h_star, in_domain = mf.legendre(curve, [LOG2])
        assert in_domain[0]
        assert h_star[0] == pytest.approx(LOG2, abs=2e-2)

    def test_out_of_domain_is_minus_inf(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        h_star, in_domain = mf.legendre(curve, [-1.0, 10.0])
        assert not in_domain.any()
        assert (h_star == -math.inf).all()

    def test_entropy_fixed_point(self, biased):
        # at beta = sum -p log p the conjugate touches the diagonal
        curve = mf.h_curve(biased, QG, schedule=FAST)
        beta = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        h_star, in_domain = mf.legendre(curve, [beta])
        assert in_domain[0]
        assert h_star[0] == pytest.approx(beta, abs=1e-6)

    def test_concavity(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        betas = np.linspace(0.3, 1.3, 21)
        h_star, in_domain = mf.legendre(curve, betas)
        vals = h_star[in_domain]
        d2 = np.diff(np.diff(vals))
        assert (d2 <= 1e-9).all()

    def test_never_exceeds_counting_entropy(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        betas = np.linspace(0.2, 1.5, 30)
        h_star, _ = mf.legendre(curve, betas)
        assert (h_star <= LOG2 + 2e-2).all()


class TestEndpoints:
    def test_biased_interval(self, biased):
        grid = np.concatenate([np.arange(-40, -3.0, 1.0), QG, np.arange(4, 40.1, 1.0)])
        curve = mf.h_curve(biased, grid, schedule=FAST)
        ep = mf.domain_endpoints(curve)
        assert ep.lower_extrapolated == pytest.approx(math.log(4 / 3), abs=1e-6)
        assert ep.upper_extrapolated == pytest.approx(math.log(4), abs=1e-6)
        assert ep.lower <= ep.upper

    def test_short_grid_rejected(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        with pytest.raises(ValueError):
            mf.domain_endpoints(curve)

    def test_one_point_tail_rejected(self):
        # one finite q > 0, far enough out: the tail has nothing to extrapolate
        curve = mf.SpectrumCurve(np.array([-20.0, -10.0, 0.0, 10.0]),
                                 np.array([20.0, 10.0, 0.7, -5.0]), False)
        with pytest.raises(ValueError, match="a tail needs 2 finite points"):
            mf.domain_endpoints(curve)


class TestDerivatives:
    def test_fair_coin_constant_slope(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        lo, hi = mf.one_sided_derivatives(curve, 0.0)
        assert lo == pytest.approx(-LOG2, abs=1e-6)
        assert hi == pytest.approx(-LOG2, abs=1e-6)

    def test_slopes_ordered_by_convexity(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        lo, hi = mf.one_sided_derivatives(curve, 0.0)
        assert lo <= hi + 1e-9

    def test_boundary_rejected(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        with pytest.raises(ValueError):
            mf.one_sided_derivatives(curve, -3.0)


class TestLevelSets:
    def test_fair_coin_single_bin(self, fair):
        bins = mf.level_set_spectrum_oracle(fair, 12, 0.05)
        assert len(bins) == 1
        assert bins[0].beta == pytest.approx(LOG2, abs=0.025)
        assert bins[0].entropy_estimate == pytest.approx(LOG2, abs=1e-12)

    def test_biased_bin_structure(self, biased):
        bins = mf.level_set_spectrum_oracle(biased, 14, 0.05)
        total = sum(b.count for b in bins)
        assert total == 2**14
        betas = [b.beta for b in bins]
        assert min(betas) >= -math.log(0.75) / 1.0 - 0.05
        assert max(betas) <= -math.log(0.25) - 0.05 + 0.1

    def test_window_count(self, biased):
        count, masses = mf.level_set_window(biased, 14, LOG2, 0.08)
        assert count > 0
        assert (np.abs(-masses / 14 - LOG2) <= 0.08).all()

    def test_tangency_at_zero_is_mean_level(self, biased):
        # q = 0 weights all words equally: mean of -log mass / n
        arr = mf.log_mass_array(biased, 14)
        assert mf.tangency_beta(biased, 0.0, 14) == pytest.approx(
            float(-arr.mean() / 14), abs=1e-12
        )

    def test_tangency_at_one_is_measure_entropy(self, biased):
        expect = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert mf.tangency_beta(biased, 1.0, 14) == pytest.approx(expect, abs=1e-12)

    def test_residual_small_for_moderate_q(self, biased):
        for q in (0.0, 1.0):
            assert mf.level_tangency_residual(biased, q, 14) < 2e-2

    def test_oracle_refuses_huge_enumerations(self, fair):
        with pytest.raises(mf.TooLargeError):
            mf.level_set_spectrum_oracle(fair, 40, 0.05)

    def test_oracle_refuses_huge_length_at_once(self, fair):
        with pytest.raises(mf.TooLargeError):
            mf.level_set_spectrum_oracle(fair, 10**308, 0.05)
