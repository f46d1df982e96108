import itertools
import math

import numpy as np
import pytest

import mfent as mf
from conftest import mass, random_irreducible_markov

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2


def random_matrices():
    """Nonnegative matrices of 2 to 9 states, entries spread over 16
    decades, about a fifth of them exact zeros."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        M = 10.0 ** rng.uniform(-8.0, 8.0, size=(n, n))
        M[rng.random((n, n)) < 0.2] = 0.0
        yield M


class TestPerron:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_refused_before_iterating(self, bad):
        from mfent.perron import perron_triple

        M = np.ones((2, 2))
        M[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            perron_triple(M)

    @staticmethod
    def reference_triple(M):
        """The plain loop the solver's buffered one must match bit for bit:
        a fresh A @ v per step, np.float64 sums, the step cap read at call
        time."""
        from mfent import perron

        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        shift = M.max()
        S = M + shift * np.eye(n)

        def iterate(A):
            v = np.full(n, 1.0 / n)
            lam = 0.0
            for _ in range(perron._MAX_ITER):
                w = A @ v
                lam_new = w.sum()
                if lam_new <= 0:
                    raise mf.ConvergenceError("power iteration collapsed to zero vector")
                w /= lam_new
                if abs(lam_new - lam) <= perron._TOL * max(1.0, abs(lam_new)) and np.max(
                    np.abs(w - v)
                ) <= perron._TOL:
                    return lam_new, w
                v, lam = w, lam_new
            raise mf.ConvergenceError(
                f"power iteration did not converge within {perron._MAX_ITER} iterations"
            )

        lam_r, right = iterate(S)
        lam_l, left = iterate(S.T)
        lam = 0.5 * (lam_r + lam_l) - shift
        left = left / float(left @ right)
        return float(lam), right, left

    @staticmethod
    def outcome(solve, M):
        """The bytes of (lam, right, left), or the message of the failure."""
        try:
            lam, right, left = solve(M)
        except mf.ConvergenceError as e:
            return str(e)
        return np.float64(lam).tobytes(), right.tobytes(), left.tobytes()

    @pytest.mark.parametrize("M", [
        *random_matrices(),
        np.array([[1.0, 1.0], [1.0, 0.0]]),  # golden-mean adjacency
        np.array([[0.0, 1.0], [1.0, 0.0]]),  # period 2: unshifted, it would not settle
    ])
    def test_bits_match_reference_loop(self, M, monkeypatch):
        from mfent import perron

        # a cap well below 200,000 keeps the few that do not converge cheap
        monkeypatch.setattr(perron, "_MAX_ITER", 20_000)
        assert self.outcome(perron.perron_triple, M) == self.outcome(self.reference_triple, M)

    def test_bits_match_reference_loop_with_structural_zero(self, full2):
        from mfent.perron import perron_triple

        table = dict(zip(full2.words_of_length(3), (-0.9, 0.3, -math.inf, 0.7, 0.1, -1.1, 0.4, -0.5)))
        M = mf.Gibbs(mf.Potential(full2, 3, table)).q_power(-2.5)[1]
        assert (M == 0).sum() == 9  # 8 inadmissible overlaps and the -inf word
        expect = self.outcome(self.reference_triple, M)
        assert not isinstance(expect, str)
        assert self.outcome(perron_triple, M) == expect

    @pytest.mark.parametrize("q", [-3, -2])
    def test_step_cap_failure_matches_reference_loop(self, full2, monkeypatch, q):
        # the sigma = 1.5 potential of the benchmark's verify-gibbs jobs, whose
        # q = -3 and -2 powers converge too slowly for the step cap
        from mfent import perron

        rng = np.random.default_rng([0, 3])
        psi = {w: float(rng.normal(0.0, 1.5)) for w in itertools.product((0, 1), repeat=3)}
        M = mf.Gibbs(mf.Potential(full2, 3, psi)).q_power(q)[1]
        monkeypatch.setattr(perron, "_MAX_ITER", 2_000)
        messages = [self.outcome(solve, M) for solve in (perron.perron_triple, self.reference_triple)]
        assert messages == ["power iteration did not converge within 2000 iterations"] * 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_short_sum_has_the_bits_of_add_reduce(self, n):
        # below numpy's 8-entry pairwise block both add left to right
        from mfent.perron import _PAIRWISE_BLOCK, _plain_sum

        assert n < _PAIRWISE_BLOCK
        rng = np.random.default_rng([7, n])
        for span in (1.0, 30.0, 300.0):
            for _ in range(1000):
                w = 10.0 ** rng.uniform(-span, span, n) * rng.uniform(1.0, 2.0, n)
                w[rng.random(n) < 0.2] = 0.0
                assert np.float64(_plain_sum(w)).tobytes() == np.add.reduce(w).tobytes()

    def test_eight_entries_sum_pairwise(self):
        # from 8 entries on numpy adds in pairs, so the solver keeps the ufunc:
        # left to right each 2^-53 rounds away against 1, in pairs they add up
        from mfent.perron import _PAIRWISE_BLOCK, _plain_sum

        w = np.array([1.0] + [2.0**-53] * 7)
        assert len(w) == _PAIRWISE_BLOCK
        assert _plain_sum(w) == 1.0
        assert float(np.add.reduce(w)) == 1.0 + 3 * 2.0**-52
        assert _plain_sum(w[:-1]) == float(np.add.reduce(w[:-1])) == 1.0

    @staticmethod
    def settling_steps(A):
        """The first steps at which the reference loop's root test and its
        vector test pass on A."""
        from mfent import perron

        n = A.shape[0]
        v, lam, root = np.full(n, 1.0 / n), 0.0, None
        for step in range(1, perron._MAX_ITER + 1):
            w = A @ v
            lam_new = w.sum()
            w /= lam_new
            if abs(lam_new - lam) <= perron._TOL * max(1.0, abs(lam_new)):
                root = step if root is None else root
                if np.max(np.abs(w - v)) <= perron._TOL:
                    return root, step
            v, lam = w, lam_new
        raise AssertionError("the reference loop did not settle")

    def test_vector_test_in_floats_matches_reference_loop(self):
        # equal column sums settle the root at the second step, while the right
        # vector takes 160 more; every step between runs the vector test
        from mfent.perron import perron_triple

        M = np.array([[0.8, 0.1, 0.05], [0.15, 0.85, 0.05], [0.05, 0.05, 0.9]])
        root, vector = self.settling_steps(M + M.max() * np.eye(3))
        assert vector - root >= 100
        expect = self.outcome(self.reference_triple, M)
        assert not isinstance(expect, str)
        assert self.outcome(perron_triple, M) == expect

    @pytest.mark.parametrize("M", [
        np.full((4, 4), math.exp(709)),  # finite shift, but a step's sum overflows
        np.array([[1e308, 1.0], [1.0, 1.0]]),  # the shifted diagonal overflows
    ], ids=["sum", "shift"])
    def test_overflow_is_named_without_a_warning(self, M):
        from mfent.perron import perron_triple

        with pytest.raises(mf.ConvergenceError, match="overflows"):
            perron_triple(M)

    def test_root_near_float_max_is_finite(self, full2):
        # every r = 3 log-weight 708: root 2 e^708 = 6.0e307, but the two
        # shifted roots, 3 e^708 each, sum past float max
        from mfent.perron import perron_triple

        table = dict.fromkeys(full2.words_of_length(3), 708.0)
        M, _ = mf.Potential(full2, 3, table).transfer_matrix()
        lam = perron_triple(M)[0]
        assert math.isfinite(lam)
        assert lam == pytest.approx(2 * math.exp(708), rel=1e-12, abs=0)


class TestPressure:
    def test_zero_potential_gives_topological_entropy(self, golden):
        pot = mf.Potential(golden, 2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0})
        assert mf.pressure(pot) == pytest.approx(math.log(PHI), abs=1e-12)

    def test_full_shift_constant_potential(self, full2):
        c = -0.37
        pot = mf.Potential(full2, 2, {w: c for w in full2.words_of_length(2)})
        assert mf.pressure(pot) == pytest.approx(LOG2 + c, abs=1e-12)

    def test_scale_argument(self, full2):
        pot = mf.Potential(full2, 2, {w: math.log(0.5) for w in full2.words_of_length(2)})
        assert mf.pressure(pot, 2.0) == pytest.approx(LOG2 + 2 * math.log(0.5), abs=1e-12)

    @pytest.mark.parametrize("value, scale", [(300.0, -3.0), (-800.0, 1.0)])
    def test_underflow_of_every_weight_is_a_convergence_error(self, full2, value, scale):
        pot = mf.Potential(full2, 3, dict.fromkeys(full2.words_of_length(3), value))
        with pytest.raises(mf.ConvergenceError, match="every weight .* underflows"):
            mf.pressure(pot, scale)

    def test_partial_underflow_and_structural_zeros_are_kept(self, full2):
        # as in q_power: some weights 0 is a matrix, only an all-zero one fails;
        # a table of structural zeros alone has no weight to underflow
        table = dict.fromkeys(full2.words_of_length(2), -800.0)
        M, _ = mf.Potential(full2, 2, {**table, (0, 1): 0.0}).transfer_matrix()
        assert M.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        M, _ = mf.Potential(full2, 2, dict.fromkeys(table, -math.inf)).transfer_matrix()
        assert not M.any()


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
            mf.closed_form_h(mf.Mixture(fair, biased, 0.5), 1.0)

    def test_chain_oracles_refuse_a_reducible_space(self):
        # words starting with 0 have mass 0, so log Z is +inf at q = -1, where
        # the Perron root gave log 2; at q = 0 the solve ran into the step cap
        space = mf.make_shift(2, [[1, 1], [0, 1]])
        chain = mf.Markov(space, [[0.5, 0.5], [0.0, 1.0]], pi=[0.0, 1.0])
        for oracle in (mf.closed_form_h, mf.gibbs_identity_residual,
                       mf.partition_growth_by_squaring):
            for q in (-1.0, 0.0, 2.0):
                with pytest.raises(ValueError, match="irreducible"):
                    oracle(chain, q)


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
        mx = mf.Mixture(fair, other, 0.5)
        with pytest.raises(ValueError):
            mf.gibbs_identity_residual(mx, 2.0)


class TestLogPotential:
    def test_bernoulli_potential_reproduces_masses(self, biased, full2):
        pot = biased.log_potential()
        g = mf.Gibbs(pot)
        for w in full2.words_of_length(4):
            assert mass(g, w) == pytest.approx(mass(biased, w), rel=1e-10)

    def test_markov_potential_reproduces_masses(self, parry, golden):
        pot = parry.log_potential()
        g = mf.Gibbs(pot)
        for w in golden.words_of_length(4):
            assert mass(g, w) == pytest.approx(mass(parry, w), rel=1e-10)


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
