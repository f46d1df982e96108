import math

import numpy as np
import pytest

import mfent as mf
from conftest import random_irreducible_markov

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2


class TestPressure:
    def test_zero_potential_gives_topological_entropy(self, golden):
        pot = mf.Potential(golden, 2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0})
        assert mf.pressure(golden, pot) == pytest.approx(math.log(PHI), abs=1e-12)

    def test_full_shift_constant_potential(self, full2):
        c = -0.37
        pot = mf.Potential(full2, 2, {w: c for w in full2.words_of_length(2)})
        assert mf.pressure(full2, pot) == pytest.approx(LOG2 + c, abs=1e-12)

    def test_scale_argument(self, full2):
        pot = mf.Potential(full2, 2, {w: math.log(0.5) for w in full2.words_of_length(2)})
        assert mf.pressure(full2, pot, 2.0) == pytest.approx(LOG2 + 2 * math.log(0.5), abs=1e-12)


class TestClosedForm:
    def test_bernoulli(self, biased):
        for q in (-2.0, -0.5, 0.5, 1.0, 3.0):
            expect = math.log(0.25**q + 0.75**q)
            assert mf.closed_form_h(biased, q) == pytest.approx(expect, abs=1e-12)

    def test_bernoulli_counting_limit(self, biased):
        assert mf.closed_form_h(biased, 0.0) == pytest.approx(LOG2, abs=1e-14)

    def test_bernoulli_zero_mass_blows_up_at_negative_q(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        assert mf.closed_form_h(degenerate, -1.0) == math.inf
        assert mf.closed_form_h(degenerate, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_markov_counting_limit(self, parry, golden):
        assert mf.closed_form_h(parry, 0.0) == pytest.approx(math.log(PHI), abs=1e-12)

    def test_markov_matches_partition_growth(self, parry):
        for q in (-1.0, 0.5, 2.0):
            growth = mf.partition_growth_by_squaring(parry, q)
            assert mf.closed_form_h(parry, q) == pytest.approx(growth, abs=1e-9)

    @pytest.mark.parametrize("fixture", ["gibbs2", "gibbs3"])
    def test_gibbs_matches_partition_growth(self, fixture, request):
        model = request.getfixturevalue(fixture)
        for q in (-1.0, 0.5, 2.0):
            growth = mf.partition_growth_by_squaring(model, q)
            assert mf.closed_form_h(model, q) == pytest.approx(growth, abs=1e-9)

    def test_mixture_has_no_closed_form(self, fair, biased):
        with pytest.raises(ValueError):
            mf.closed_form_h(mf.mixture(fair, biased, 0.5), 1.0)


class TestSquaringOracle:
    """partition_growth_by_squaring is the independent cross-check: it never
    touches the Perron solver, only rescaled matrix squaring."""

    def test_fair_coin(self, fair):
        for q in (-2.0, 0.0, 1.0, 3.0):
            assert mf.partition_growth_by_squaring(fair, q) == pytest.approx(
                (1 - q) * LOG2, abs=1e-9
            )

    def test_random_chains_match_closed_form(self):
        rng = np.random.default_rng(1234)
        for _ in range(5):
            mk = random_irreducible_markov(rng)
            for q in (-1.5, 0.5, 2.0):
                growth = mf.partition_growth_by_squaring(mk, q)
                assert mf.closed_form_h(mk, q) == pytest.approx(growth, abs=1e-9)


class TestGibbsIdentity:
    """(1 - q) h(q) must equal P(q psi) - q P(psi) whenever the measure is
    the equilibrium state of its own log potential."""

    def test_bernoulli_exact(self, biased):
        for q in (-2.0, -1.0, 0.5, 2.0):
            assert mf.gibbs_identity_residual(biased, q) < 1e-12

    def test_random_markov_chains(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            mk = random_irreducible_markov(rng)
            for q in (-2.0, -1.0, 0.5, 2.0):
                assert mf.gibbs_identity_residual(mk, q) < 1e-10

    def test_gibbs_model(self, gibbs2):
        for q in (-1.0, 0.5, 2.0):
            assert mf.gibbs_identity_residual(gibbs2, q) < 1e-10

    def test_non_gibbs_mixture_fails_identity(self, fair, full2):
        # a mixture of two very different Bernoulli laws is not the
        # equilibrium state of any single-site potential
        other = mf.Bernoulli(full2, [0.05, 0.95])
        mx = mf.mixture(fair, other, 0.5)
        with pytest.raises(ValueError):
            mf.gibbs_identity_residual(mx, 2.0)


class TestLogPotential:
    def test_bernoulli_potential_reproduces_masses(self, biased, full2):
        pot = mf.log_potential_of(biased)
        g = mf.Gibbs(pot)
        for w in full2.words_of_length(4):
            assert g.mass(w) == pytest.approx(biased.mass(w), rel=1e-10)

    def test_markov_potential_reproduces_masses(self, parry, golden):
        pot = mf.log_potential_of(parry)
        g = mf.Gibbs(pot)
        for w in golden.words_of_length(4):
            assert g.mass(w) == pytest.approx(parry.mass(w), rel=1e-10)


class TestCorrelationEntropy:
    def test_fair_coin_q_independence(self, fair):
        vals = [mf.correlation_entropy(fair, q, 12) for q in (-3, -1, 0.5, 2, 3)]
        assert max(vals) - min(vals) < 1e-12
        assert vals[0] == pytest.approx(LOG2, abs=1e-12)

    def test_q_one_rejected(self, fair):
        with pytest.raises(ValueError):
            mf.correlation_entropy(fair, 1.0, 10)

    def test_biased_matches_renyi_form(self, biased):
        q = 2.0
        n = 12
        expect = math.log(0.25**q + 0.75**q) / (1 - q)
        assert mf.correlation_entropy(biased, q, n) == pytest.approx(expect, abs=1e-12)
