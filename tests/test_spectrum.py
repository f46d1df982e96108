import math
import tracemalloc

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


def old_log_partition(model, q, length):
    """One q at a time, each pass into fresh arrays: the reference that the
    reused-buffer loop of log_partition must match bit for bit."""
    arr = mf.log_mass_array(model, length)
    if q == 0:
        return math.log(arr.size)
    if q == 1:
        return 0.0
    return mf.logsumexp(mf.psi_log(q, arr[~np.isneginf(arr)] if q > 0 else arr))


FULL3 = np.ones((3, 3), dtype=int)
# the zero admissible transition 2 -> 2 gives zero-mass words
ZERO_STEP_P = [[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]
EDGE_Q = np.array([-40, -2.5, -1e-3, 0, 1e-3, 1, 2.5, 40])


class TestPartitionBuffer:
    @pytest.fixture(
        params=["bernoulli", "bernoulli-one-zero", "parry", "markov-zero-step", "gibbs3",
                "mixture"]
    )
    def model(self, request, full2, parry, gibbs3, bernoulli_gibbs):
        return {
            "bernoulli": lambda: mf.Bernoulli(full2, [0.3, 0.7]),
            "bernoulli-one-zero": lambda: mf.Bernoulli(full2, [1.0, 0.0]),
            "parry": lambda: parry,
            "markov-zero-step": lambda: mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P),
            "gibbs3": lambda: gibbs3,
            "mixture": lambda: bernoulli_gibbs,
        }[request.param]()

    def test_matches_old_expression_bitwise(self, model):
        for length in range(11):
            got = mf.log_partition(model, EDGE_Q, length)
            want = np.array([old_log_partition(model, q, length) for q in EDGE_Q])
            assert got.shape == EDGE_Q.shape
            assert np.array_equal(got, want), (length, got, want)
            for q, w in zip(EDGE_Q.tolist(), want.tolist()):
                one = mf.log_partition(model, q, length)
                assert type(one) is float
                assert np.array_equal(one, w), (length, q, one, w)

    def test_array_shape_kept(self, model):
        qs = EDGE_Q.reshape(2, 4)
        got = mf.log_partition(model, qs, 6)
        assert got.shape == (2, 4)
        assert np.array_equal(got.ravel(), mf.log_partition(model, EDGE_Q, 6))

    @pytest.mark.parametrize(
        "P", [np.full((3, 3), 1 / 3), ZERO_STEP_P], ids=["positive", "zero-step"]
    )
    def test_grid_peak_memory(self, P):
        """A 25-point grid on a cached 3^12 level allocates one q-buffer, plus
        the zero-filtered copy when the level has zero masses: never the
        fresh arrays per q of the one-q-at-a-time expression (about 3x)."""
        model = mf.Markov(mf.make_shift(3, FULL3), P)
        level = mf.log_mass_array(model, 12)
        tracemalloc.start()
        try:
            mf.log_partition(model, np.linspace(-3, 3, 25), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mf.log_mass_array.cache_info().currsize == 1
        assert peak <= 2 * level.nbytes + (1 << 20), (peak, level.nbytes)


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

    @pytest.mark.parametrize("schedule", [[], [(4, 4)], [(4, 4), (4, 8)]])
    def test_slope_needs_two_distinct_N(self, biased, schedule):
        # one distinct N leaves a least-squares slope undetermined
        with pytest.raises(ValueError, match="at least 2 distinct N"):
            mf.h_curve(biased, QG, schedule=schedule)

    def test_interpolation(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        assert curve.value(0.125) == pytest.approx((1 - 0.125) * LOG2, abs=2e-2)

    def test_one_word_length_cached_at_a_time(self, biased):
        # depths are the outer loop: one lookup per schedule length, whole grid at once
        mf.log_mass_array.cache_clear()
        mf.h_curve(biased, QG, schedule=FAST)
        info = mf.log_mass_array.cache_info()
        assert info.currsize <= 1
        assert info.misses == len(FAST)
        assert info.hits == 0


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
