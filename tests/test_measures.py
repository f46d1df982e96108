import math

import numpy as np
import pytest

import mfent as mf


def total_mass(model, n):
    arr = mf.log_mass_array(model, n)
    return float(np.exp(mf.logsumexp(arr)))


def additivity_gap(model, n):
    """max over length-n words of |mass(w) - sum of child masses|."""
    worst = 0.0
    for w in model.space.words_of_length(n):
        kids = sum(model.mass(c) for c in model.space.children(w))
        worst = max(worst, abs(model.mass(w) - kids))
    return worst


class TestBernoulli:
    def test_masses(self, biased):
        assert biased.mass(()) == 1.0
        assert biased.mass((0,)) == 0.25
        assert biased.mass((0, 1, 1)) == pytest.approx(0.25 * 0.75 * 0.75)

    def test_probability_vector_validated(self, full2):
        with pytest.raises(ValueError):
            mf.Bernoulli(full2, [0.5, 0.6])
        with pytest.raises(ValueError):
            mf.Bernoulli(full2, [0.5, -0.5, 1.0])

    def test_rejected_on_proper_subshift(self, golden):
        with pytest.raises(ValueError):
            mf.Bernoulli(golden, [0.5, 0.5])

    def test_zero_symbol_mass(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        assert degenerate.mass((1,)) == 0.0
        assert degenerate.log_mass((0, 1)) == -math.inf
        assert degenerate.one_step_log_bound() == math.inf

    def test_additive(self, biased):
        assert additivity_gap(biased, 4) < 1e-15
        assert total_mass(biased, 6) == pytest.approx(1.0, abs=1e-12)


class TestMarkov:
    def test_stationarity(self, parry):
        # stationary start: mass of [a] = pi_a and one-shift invariance
        pi = parry.pi
        for a in range(2):
            assert parry.mass((a,)) == pytest.approx(pi[a])
        shifted = sum(
            parry.mass((b, 1)) for b in range(2) if parry.space.is_admissible((b, 1))
        )
        assert shifted == pytest.approx(parry.mass((1,)), abs=1e-14)

    def test_additive_and_normalized(self, parry):
        assert additivity_gap(parry, 4) < 1e-14
        assert total_mass(parry, 6) == pytest.approx(1.0, abs=1e-12)

    def test_row_sum_validation(self, full2):
        with pytest.raises(ValueError, match="row 0"):
            mf.Markov(full2, [[0.5, 0.6], [0.5, 0.5]])

    def test_support_must_match_space(self, golden):
        # positive probability on the forbidden transition 1->1
        with pytest.raises(Exception):
            mf.Markov(golden, [[0.5, 0.5], [0.5, 0.5]])

    def test_explicit_pi_validated(self, full2):
        P = [[0.5, 0.5], [0.5, 0.5]]
        mk = mf.Markov(full2, P, pi=[0.5, 0.5])
        assert mk.mass((0,)) == 0.5
        with pytest.raises(ValueError):
            mf.Markov(full2, P, pi=[0.9, 0.1])  # not stationary

    def test_inadmissible_word_rejected(self, parry):
        with pytest.raises(mf.AdmissibilityError):
            parry.log_mass((1, 1))


class TestGibbs:
    def test_normalized_and_additive(self, gibbs2):
        assert total_mass(gibbs2, 6) == pytest.approx(1.0, abs=1e-12)
        assert additivity_gap(gibbs2, 4) < 1e-15

    def test_mass_comparison_with_potential_sums(self, gibbs2):
        # cylinder masses uniformly comparable to exp(sum of potential - n * pressure)
        pot = gibbs2.potential
        P = gibbs2.pressure_value
        ratios = []
        for w in gibbs2.space.words_of_length(6):
            s = sum(pot.table[w[i : i + 2]] for i in range(5))
            ratios.append(gibbs2.log_mass(w) - (s - 6 * P))
        spread = max(ratios) - min(ratios)
        assert math.isfinite(spread)
        assert spread < 5.0

    def test_higher_order_memory(self, full2):
        pot = mf.Potential(
            full2,
            3,
            {w: math.log(0.2 + 0.1 * sum(w)) for w in full2.words_of_length(3)},
        )
        g = mf.Gibbs(pot)
        assert total_mass(g, 5) == pytest.approx(1.0, abs=1e-12)
        assert additivity_gap(g, 4) < 1e-13

    def test_masses_are_block_chain_log_sums(self, gibbs3):
        # reference: mu on the first block, then one log Q per further symbol,
        # summed left to right; shorter words sum mu over the blocks they start
        index = {u: i for i, u in enumerate(gibbs3.states)}
        with np.errstate(divide="ignore"):  # Q is zero between non-overlapping blocks
            logmu, logQ = np.log(gibbs3.mu), np.log(gibbs3.Q)
        for n in range(1, 7):
            for w in gibbs3.space.words_of_length(n):
                if n < 2:
                    starts = [gibbs3.mu[i] for u, i in index.items() if u[:n] == w]
                    expect = math.log(float(np.sum(starts)))
                else:
                    expect = float(logmu[index[w[:2]]])
                    for j in range(2, n):
                        expect += float(logQ[index[w[j - 2 : j]], index[w[j - 1 : j + 1]]])
                assert gibbs3.log_mass(w) == expect

    def test_missing_word_in_table(self, full2):
        with pytest.raises(ValueError, match="0"):
            mf.Potential(full2, 2, {(0, 0): 0.0})


class TestMixture:
    def test_convex_combination(self, fair, biased):
        mx = mf.mixture(fair, biased, 0.3)
        w = (0, 1, 1)
        assert mx.mass(w) == pytest.approx(0.3 * fair.mass(w) + 0.7 * biased.mass(w))

    def test_weight_and_space_checks(self, fair, biased, parry):
        with pytest.raises(ValueError):
            mf.mixture(fair, biased, 1.5)
        with pytest.raises(mf.SpaceMismatchError):
            mf.mixture(fair, parry, 0.5)

    def test_bound_unknown(self, fair, biased):
        assert mf.mixture(fair, biased, 0.5).one_step_log_bound() is None


class TestLogMassArray:
    """The level-by-level extension must reproduce per-word log_mass
    bit for bit, in words_of_length order."""

    @pytest.mark.parametrize(
        "fixture", ["fair", "biased", "parry", "gibbs2", "gibbs3", "bernoulli_gibbs"]
    )
    def test_matches_per_word_evaluation(self, fixture, request):
        model = request.getfixturevalue(fixture)
        arr = mf.log_mass_array(model, 5)
        expected = [model.log_mass(w) for w in model.space.words_of_length(5)]
        np.testing.assert_array_equal(arr, expected)

    @pytest.mark.parametrize("length", [0, 1])
    def test_words_shorter_than_the_block(self, gibbs3, bernoulli_gibbs, length):
        # r = 3: these masses are marginals of mu, not chain steps
        for model in (gibbs3, bernoulli_gibbs):
            arr = mf.log_mass_array(model, length)
            expected = [model.log_mass(w) for w in model.space.words_of_length(length)]
            np.testing.assert_array_equal(arr, expected)

    def test_mixture_path(self, fair, biased):
        mx = mf.mixture(fair, biased, 0.4)
        arr = mf.log_mass_array(mx, 4)
        expected = [mx.log_mass(w) for w in mx.space.words_of_length(4)]
        np.testing.assert_array_equal(arr, expected)

    def test_prefix_walk_matches_per_word(self, gibbs3, bernoulli_gibbs):
        w = (1, 0, 0, 1, 1, 1, 0)
        for model in (gibbs3, bernoulli_gibbs):
            expected = [model.log_mass(w[:j]) for j in range(len(w) + 1)]
            np.testing.assert_array_equal(model.log_mass_prefixes(w), expected)


class TestDoubling:
    def test_fair_coin_exactly_two(self, fair):
        rep = mf.doubling_check(fair, 1, 6)
        assert rep.empirical_sup == 2.0
        assert rep.analytic_bound == 2.0
        assert not rep.unbounded

    def test_biased_exactly_four(self, biased):
        rep = mf.doubling_check(biased, 1, 6)
        assert rep.empirical_sup == 4.0
        assert rep.analytic_bound == 4.0

    def test_degenerate_unbounded(self, full2):
        rep = mf.doubling_check(mf.Bernoulli(full2, [1.0, 0.0]), 1, 6)
        assert rep.unbounded
        assert rep.empirical_sup == math.inf

    def test_markov_bound_is_reciprocal_min_entry(self, parry):
        rep = mf.doubling_check(parry, 1, 8)
        p_min = 1 - 1 / ((1 + math.sqrt(5)) / 2)
        assert rep.analytic_bound == pytest.approx(1 / p_min, rel=1e-12)
        assert rep.empirical_sup <= rep.analytic_bound + 1e-12

    def test_radius_offset_shifts_orders_not_ratio(self, biased):
        # k picks which radius pair is compared; the ratio stays one doubling
        rep = mf.doubling_check(biased, 2, 5)
        assert rep.empirical_sup == pytest.approx(4.0, rel=1e-12)

    def test_invalid_k(self, fair):
        with pytest.raises(ValueError):
            mf.doubling_check(fair, 0, 5)

    def test_oversized_level_refused(self, fair):
        # level n_max + k = 31 would hold 2^31 words
        with pytest.raises(mf.TooLargeError):
            mf.doubling_check(fair, 1, 30)


class TestSampling:
    def test_words_admissible_and_deterministic(self, parry):
        rng = np.random.default_rng(42)
        ws = [parry.sample_word(10, rng) for _ in range(20)]
        for w in ws:
            assert parry.space.is_admissible(w)
        rng2 = np.random.default_rng(42)
        ws2 = [parry.sample_word(10, rng2) for _ in range(20)]
        assert ws == ws2

    def test_bernoulli_frequencies(self, biased):
        rng = np.random.default_rng(0)
        w = biased.sample_word(20000, rng)
        assert sum(w) / len(w) == pytest.approx(0.75, abs=0.02)
