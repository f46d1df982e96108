import math

import numpy as np
import pytest

import mfent as mf

LOG2 = math.log(2)


class TestLocalEntropy:
    def test_fair_coin_is_constant(self, fair):
        s = mf.local_entropy(fair, (0, 1, 1, 0, 1, 0, 0, 1))
        np.testing.assert_allclose(s.estimates, LOG2, atol=1e-12)
        assert s.lower == pytest.approx(LOG2)
        assert s.upper == pytest.approx(LOG2)
        assert not s.hit_zero_mass

    def test_homogeneous_word_hits_symbol_level(self, biased):
        s = mf.local_entropy(biased, (1,) * 25)
        assert s.lower == pytest.approx(-math.log(0.75), abs=1e-12)
        assert s.upper == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_estimates_sequence_values(self, biased):
        x = (0, 1, 1)
        s = mf.local_entropy(biased, x)
        expect = [-biased.log_mass(x[:n]) / n for n in (1, 2, 3)]
        np.testing.assert_allclose(s.estimates, expect, atol=1e-14)

    def test_radius_offset_changes_window(self, biased):
        x = (0, 1, 1, 0, 1)
        s = mf.local_entropy(biased, x, k=2)
        assert len(s.estimates) == 3
        assert s.estimates[0] == pytest.approx(-biased.log_mass(x[:3]) / 1)

    @pytest.mark.parametrize("fixture", ["parry", "gibbs3"])
    def test_long_word_matches_per_prefix_log_mass(self, fixture, request):
        model = request.getfixturevalue(fixture)
        x = model.sample_word(200, np.random.default_rng(5))
        s = mf.local_entropy(model, x)
        expect = [-model.log_mass(x[:n]) / n for n in range(1, 201)]
        np.testing.assert_array_equal(s.estimates, expect)

    def test_zero_mass_flag(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        s = mf.local_entropy(degenerate, (0, 0, 1, 0))
        assert s.hit_zero_mass
        assert s.upper == math.inf

    def test_word_too_short(self, fair):
        # a word of length <= k has no order n >= 1
        for k in (2, 5):
            with pytest.raises(ValueError, match="too short"):
                mf.local_entropy(fair, (0, 1), k=k)

    def test_lower_never_exceeds_upper(self, biased):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = biased.sample_word(30, rng)
            s = mf.local_entropy(biased, w)
            assert s.lower <= s.upper + 1e-15


class TestFiltration:
    def test_fair_coin_member(self, fair):
        # the order-n ball at radius index M is the (n+M)-cylinder, so the
        # estimate overshoots beta by (M/n) log 2; delta must absorb that
        assert mf.filtration_member(fair, (0, 1) * 10, LOG2, 0.5, M=2, N=3)
        assert mf.filtration_member(fair, (0, 1) * 10, LOG2, 0.01, M=0, N=3)

    def test_wrong_level_rejected(self, fair):
        assert not mf.filtration_member(fair, (0, 1) * 10, 0.3, 0.05, M=2, N=3)

    def test_nested_in_delta(self, biased):
        rng = np.random.default_rng(11)
        beta = 0.6
        for _ in range(30):
            w = biased.sample_word(24, rng)
            if mf.filtration_member(biased, w, beta, 0.05, M=2, N=4):
                assert mf.filtration_member(biased, w, beta, 0.1, M=2, N=4)

    def test_nested_in_start_index(self, biased):
        # membership from N onward implies membership from any later start
        rng = np.random.default_rng(12)
        beta = 0.6
        for _ in range(30):
            w = biased.sample_word(24, rng)
            if mf.filtration_member(biased, w, beta, 0.2, M=1, N=4):
                assert mf.filtration_member(biased, w, beta, 0.2, M=1, N=6)

    def test_argument_validation(self, fair):
        with pytest.raises(ValueError):
            mf.filtration_member(fair, (0, 1, 0), LOG2, 0.1, M=2, N=0)
        with pytest.raises(ValueError):
            mf.filtration_member(fair, (0, 1), LOG2, 0.1, M=4, N=1)


class TestSampleLevelSet:
    def test_target_level_attained(self, biased):
        beta = 0.6
        ws = mf.sample_level_set(biased, beta, 0.05, 24, 10, rng_seed=5)
        assert len(ws) == 10
        for w in ws:
            assert abs(-biased.log_mass(w) / 24 - beta) <= 0.05

    def test_extreme_level_forces_constant_word(self, biased):
        ws = mf.sample_level_set(biased, -math.log(0.25), 0.01, 12, 4, rng_seed=1)
        for w in ws:
            assert w == (0,) * 12

    def test_unreachable_level_raises(self, biased):
        with pytest.raises(mf.UnreachableBetaError):
            mf.sample_level_set(biased, 5.0, 0.05, 12, 3, rng_seed=0)
        with pytest.raises(mf.UnreachableBetaError):
            mf.sample_level_set(biased, 0.01, 0.05, 12, 3, rng_seed=0)

    def test_tolerance_too_tight_raises(self, biased):
        # n = 2 leaves levels spaced ~log3/2 apart; a tiny tol between
        # two adjacent types is unattainable
        with pytest.raises(ValueError):
            mf.sample_level_set(biased, 0.6, 1e-6, 2, 3, rng_seed=0)

    def test_zero_symbol_mass_raises(self, stuck):
        with pytest.raises(ValueError, match="strictly positive"):
            mf.sample_level_set(stuck, 0.0, 0.05, 12, 3, rng_seed=0)

    def test_deterministic_given_seed(self, biased):
        a = mf.sample_level_set(biased, 0.6, 0.05, 20, 5, rng_seed=9)
        b = mf.sample_level_set(biased, 0.6, 0.05, 20, 5, rng_seed=9)
        assert a == b

    def test_markov_not_supported(self, parry):
        with pytest.raises(ValueError):
            mf.sample_level_set(parry, 0.4, 0.05, 10, 2, rng_seed=0)
