import math
import re
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from conftest import count_words, mass, random_irreducible_markov, whole_level

import mfent as mf


def total_mass(model, n):
    arr = mf.log_mass_array(model, n)
    return float(np.exp(mf.logsumexp(arr)))


def additivity_gap(model, n):
    """max over length-n words of |mass(w) - sum of child masses|."""
    worst = 0.0
    for w in model.space.words_of_length(n):
        kids = sum(mass(model, c) for c in model.space.children(w))
        worst = max(worst, abs(mass(model, w) - kids))
    return worst


class TestBernoulli:
    def test_masses(self, biased):
        assert mass(biased, ()) == 1.0
        assert mass(biased, (0,)) == 0.25
        assert mass(biased, (0, 1, 1)) == pytest.approx(0.25 * 0.75 * 0.75)

    def test_probability_vector_validated(self, full2):
        with pytest.raises(ValueError):
            mf.Bernoulli(full2, [0.5, 0.6])
        with pytest.raises(ValueError):
            mf.Bernoulli(full2, [0.5, -0.5, 1.0])
        with pytest.raises(ValueError):
            mf.Bernoulli(full2, [math.nan, math.nan])

    def test_rejected_on_proper_subshift(self, golden):
        with pytest.raises(ValueError):
            mf.Bernoulli(golden, [0.5, 0.5])

    def test_zero_symbol_mass(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        assert mass(degenerate, (1,)) == 0.0
        assert degenerate.log_mass((0, 1)) == -math.inf
        assert degenerate.one_step_log_bound() == math.inf

    def test_additive(self, biased):
        assert additivity_gap(biased, 4) < 1e-15
        assert total_mass(biased, 6) == pytest.approx(1.0, abs=1e-12)


class TestMarkov:
    def test_stationarity(self, parry):
        # stationary start: mass of [a] = pi_a and one-shift invariance
        pi = parry.init
        for a in range(2):
            assert mass(parry, (a,)) == pytest.approx(pi[a])
        shifted = sum(
            mass(parry, (b, 1)) for b in range(2) if parry.space.is_admissible((b, 1))
        )
        assert shifted == pytest.approx(mass(parry, (1,)), abs=1e-14)

    def test_additive_and_normalized(self, parry):
        assert additivity_gap(parry, 4) < 1e-14
        assert total_mass(parry, 6) == pytest.approx(1.0, abs=1e-12)

    def test_row_sum_validation(self, full2):
        with pytest.raises(ValueError, match="row 0"):
            mf.Markov(full2, [[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError, match="nonnegative"):
            mf.Markov(full2, [[math.nan, math.nan], [0.5, 0.5]])

    def test_support_must_match_space(self, golden):
        # positive probability on the forbidden transition 1->1
        with pytest.raises(Exception):
            mf.Markov(golden, [[0.5, 0.5], [0.5, 0.5]])

    def test_explicit_pi_validated(self, full2):
        P = [[0.5, 0.5], [0.5, 0.5]]
        mk = mf.Markov(full2, P, pi=[0.5, 0.5])
        assert mass(mk, (0,)) == 0.5
        with pytest.raises(ValueError):
            mf.Markov(full2, P, pi=[0.9, 0.1])  # not stationary
        with pytest.raises(ValueError):
            mf.Markov(full2, P, pi=[math.nan, math.nan])

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
        P = mf.pressure(gibbs2.potential)
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
            logmu, logQ = np.log(gibbs3.init), np.log(gibbs3.T)
        for n in range(1, 7):
            for w in gibbs3.space.words_of_length(n):
                if n < 2:
                    starts = [gibbs3.init[i] for u, i in index.items() if u[:n] == w]
                    expect = math.log(float(np.sum(starts)))
                else:
                    expect = float(logmu[index[w[:2]]])
                    for j in range(2, n):
                        expect += float(logQ[index[w[j - 2 : j]], index[w[j - 1 : j + 1]]])
                assert gibbs3.log_mass(w) == expect

    @pytest.mark.parametrize("r", [3, 6])
    def test_prefix_steps_sum_blocks_in_block_order(self, full2, r):
        # a prefix's mass is np.sum of its blocks' init in block order; at
        # r = 6 a length-1 prefix has 16 blocks, past numpy's 8-way unroll
        # (seed 0: there a left-to-right sum rounds 3 prefixes' logs otherwise)
        rng = np.random.default_rng(0)
        table = {w: float(rng.normal()) for w in full2.words_of_length(r)}
        g = mf.Gibbs(mf.Potential(full2, r, table))
        d = len(g.states[0])
        index = {u: i for i, u in enumerate(g.states)}
        prefixes = sorted({u[:j] for u in g.states for j in range(d)})
        checked = 0
        for s, u in enumerate(prefixes):
            for c in full2.children(u):
                if len(c) < d:
                    starts = [g.init[i] for v, i in index.items() if v[: len(c)] == c]
                    assert g._step[s, c[-1]] == math.log(float(np.sum(starts))), (u, c)
                    checked += 1
        assert checked == 2 ** d - 2

    def test_missing_word_in_table(self, full2):
        with pytest.raises(ValueError, match="0"):
            mf.Potential(full2, 2, {(0, 0): 0.0})

    def test_missing_word_found_without_listing_all_words(self, full2):
        # 2^40 words of length 40; the lexicographically first missing one is named
        with pytest.raises(ValueError, match=r"missing admissible word \(0, (0, ){38}1\)"):
            mf.Potential(full2, 40, {(0,) * 40: 0.0})

    @pytest.mark.parametrize("r", [2, 3, 5])
    @pytest.mark.parametrize("name", ["full2", "golden"])
    def test_missing_word_is_lexicographically_first(self, request, name, r):
        # against the words in lexicographic order, for random partial tables
        space = request.getfixturevalue(name)
        rng = np.random.default_rng(r)
        words = list(space.words_of_length(r))
        for _ in range(20):
            table = {w: 0.0 for w in words if rng.random() < 0.8}
            missing = next((w for w in words if w not in table), None)
            if missing is None:
                mf.Potential(space, r, table)
                continue
            with pytest.raises(ValueError, match=re.escape(f"missing admissible word {missing}")):
                mf.Potential(space, r, table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_potential_refused_by_word(self, full2, bad):
        # refused at once, not after the power iteration's step cap
        table = dict.fromkeys(full2.words_of_length(2), 0.0)
        table[(1, 0)] = bad
        with pytest.raises(ValueError, match=r"on word \(1, 0\)"):
            mf.Potential(full2, 2, table)

    def test_minus_inf_potential_is_a_structural_zero(self, full2):
        table = dict.fromkeys(full2.words_of_length(2), 0.0)
        table[(1, 1)] = -math.inf
        g = mf.Gibbs(mf.Potential(full2, 2, table))
        assert mass(g, (1, 1)) == 0.0
        assert mass(g, (0, 1)) > 0.0


class TestMixture:
    def test_convex_combination(self, fair, biased):
        mx = mf.Mixture(fair, biased, 0.3)
        w = (0, 1, 1)
        assert mass(mx, w) == pytest.approx(0.3 * mass(fair, w) + 0.7 * mass(biased, w))

    def test_weight_and_space_checks(self, fair, biased, parry):
        with pytest.raises(ValueError):
            mf.Mixture(fair, biased, 1.5)
        with pytest.raises(mf.SpaceMismatchError):
            mf.Mixture(fair, parry, 0.5)

    def test_bound_unknown(self, fair, biased):
        assert mf.Mixture(fair, biased, 0.5).one_step_log_bound() is None


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
        mx = mf.Mixture(fair, biased, 0.4)
        arr = mf.log_mass_array(mx, 4)
        expected = [mx.log_mass(w) for w in mx.space.words_of_length(4)]
        np.testing.assert_array_equal(arr, expected)

    @pytest.mark.parametrize("shift, length, bound", [("full3", 10, 2.0), ("golden", 16, 4.0)])
    def test_level_built_in_few_times_its_bytes(self, shift, length, bound, parry):
        # the walk keeps per child only its log mass and, below the last
        # level, its chain state: on a full shift the peak is the level plus
        # the level before and its states (1.65x here), on the golden mean the
        # masked grid copies bring it to 3.6x; both levels are one block
        model = random_irreducible_markov(np.random.default_rng(0)) if shift == "full3" else parry
        mf.log_mass_array.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            arr = mf.log_mass_array(model, length)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert arr.size == count_words(model.space, length)
        assert peak <= bound * arr.nbytes

    def test_level_set_calls_in_few_times_the_level_bytes(self, full2):
        # with the level held, the oracle's first call reads it once (its
        # betas) and works in one scratch array of the level's size; the
        # later calls share that read and add one scratch array each
        model = mf.Bernoulli(full2, [0.3, 0.7])
        arr = mf.log_mass_array(model, 16)
        calls = {
            "oracle": lambda: mf.level_set_spectrum_oracle(model, 16, 0.05),
            "residual": lambda: mf.level_tangency_residual(model, 1.0, 16),
            "tangency": lambda: mf.tangency_beta(model, 1.0, 16),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * arr.nbytes, (name, peak / arr.nbytes)

    def test_prefix_walk_matches_per_word(self, gibbs3, bernoulli_gibbs):
        w = (1, 0, 0, 1, 1, 1, 0)
        for model in (gibbs3, bernoulli_gibbs):
            expected = [model.log_mass(w[:j]) for j in range(len(w) + 1)]
            np.testing.assert_array_equal(model.log_mass_prefixes(w), expected)


FULL3 = np.ones((3, 3), dtype=int)
ZERO_STEP_P = [[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]


class TestLogMassBlocks:
    @pytest.fixture(params=["full3", "golden", "gibbs3", "mixture", "zero-step"])
    def case(self, request, parry, gibbs3, bernoulli_gibbs):
        """(model, lengths): each list holds a multi-block length."""
        return {
            "full3": lambda: (random_irreducible_markov(np.random.default_rng(0)), [11, 13]),
            "golden": lambda: (parry, [18, 20]),
            # lengths 0 and 1 lie below the block length d = 2
            "gibbs3": lambda: (gibbs3, [0, 1, 2, 17]),
            "mixture": lambda: (bernoulli_gibbs, [1, 17]),
            "zero-step": lambda: (mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P), [12]),
        }[request.param]()

    def test_blocks_are_the_level_in_order(self, case):
        from mfent.measures import _BLOCK_WORDS, _log_mass_blocks

        model, lengths = case
        for length in lengths:
            blocks = list(_log_mass_blocks(model, length))
            assert all(b.size <= _BLOCK_WORDS for b in blocks)
            assert (len(blocks) > 1) == (model.space.alphabet_size**length > _BLOCK_WORDS)
            want = whole_level(model, length)
            np.testing.assert_array_equal(np.concatenate(blocks), want)
            mf.log_mass_array.cache_clear()
            if len(blocks) > 1:  # a held level is one block
                with pytest.raises(mf.TooLargeError, match="more than 65536 words"):
                    mf.log_mass_array(model, length)
                continue
            arr = mf.log_mass_array(model, length)
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, want)

    def test_refused_before_any_work(self, fair, monkeypatch):
        from mfent.measures import _log_mass_blocks

        monkeypatch.setattr(mf.Bernoulli, "root", None)
        with pytest.raises(mf.TooLargeError):
            _log_mass_blocks(fair, 25)


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

    @pytest.fixture(params=["stuck", "biased", "parry", "sticky", "zero-step", "gibbs3",
                            "gibbs3-forbidden", "mixture", "stuck-mixture", "absorbed"])
    def model(self, request, full2, stuck, biased, parry, sticky, gibbs3, bernoulli_gibbs):
        weights = dict(zip(full2.words_of_length(3), (-0.9, 0.3, -0.2, 0.7, 0.1, -1.1, 0.4)))
        return {
            "stuck": lambda: stuck,
            "biased": lambda: biased,
            "parry": lambda: parry,
            "sticky": lambda: sticky,
            "zero-step": lambda: mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P),
            "gibbs3": lambda: gibbs3,
            # r = 3 with the step 1 1 -> 1 weighted -inf
            "gibbs3-forbidden": lambda: mf.Gibbs(mf.Potential(
                full2, 3, {**weights, (1, 1, 1): -math.inf})),
            "mixture": lambda: bernoulli_gibbs,
            "stuck-mixture": lambda: mf.Mixture(stuck, sticky, 0.5),
            # the word 1 has mass zero and every word below it too, while the
            # words 0...0 keep mass 1: no zero-mass child of a positive parent
            "absorbed": lambda: mf.Markov(mf.make_shift(2, [[1, 0], [1, 1]]),
                                          [[1.0, 0.0], [0.5, 0.5]], pi=[1.0, 0.0]),
        }[request.param]()

    def test_matches_the_word_by_word_maximum(self, model):
        """Each length's largest log m(w[:-1]) - log m(w) over admissible w,
        word by word: +inf for a zero-mass w below a positive-mass parent,
        and w skipped below a zero-mass parent.  A zero-mass word before the
        range therefore adds nothing, and one inside it makes the sup inf."""
        worst = [-math.inf]
        for length in range(1, 10):
            drops = [model.log_mass(w[:-1]) - model.log_mass(w)
                     for w in model.space.words_of_length(length)
                     if model.log_mass(w[:-1]) > -math.inf]
            worst.append(max(drops, default=-math.inf))
        for k in (1, 2, 3):
            for n_max in (1, 2, 4, 6):
                want = math.exp(max(worst[k + 1 : k + n_max + 1]))
                rep = mf.doubling_check(model, k, n_max)
                # the report lowers a sup within 1e-9 above the bound to the bound
                assert rep.empirical_sup in (want, rep.analytic_bound), (k, n_max)
                assert rep.empirical_sup == pytest.approx(want, rel=1e-9)
        if isinstance(model, mf.Mixture):
            assert model.one_step_log_bound() is None
            return
        # below the block length d the worst word ratio, beyond it T's worst entry
        d = len(model.states[0])
        zero_step = (model.adjacency & (model.T == 0)).any()
        t_part = math.inf if zero_step else float(-np.log(model.T[model.T > 0].min()))
        assert model.one_step_log_bound() == max(0.0, *worst[1:d], t_part)

    def test_level_streams_in_blocks(self, fair):
        # 2^20 words of 8 bytes are 8 MiB; the walk holds one block of 2^16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert mf.doubling_check(fair, 1, 19).empirical_sup == 2.0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak


class TestRefuseLongWords:
    def test_matches_the_power_count(self):
        # the early exit on length refuses exactly what m^length > cap refuses
        from mfent.measures import _refuse_long_words

        for m in (2, 3, 5):
            space = mf.make_shift(m, np.ones((m, m), dtype=int).tolist())
            for cap in (1 << 16, 1 << 24):
                for length in range(0, 40):
                    if m**length > cap:
                        with pytest.raises(mf.TooLargeError):
                            _refuse_long_words(space, length, cap)
                    else:
                        _refuse_long_words(space, length, cap)

    def test_huge_length_refused_at_once(self, fair):
        # no bignum power: 2^(10^308) would never finish
        from mfent.measures import _refuse_long_words

        with pytest.raises(mf.TooLargeError):
            _refuse_long_words(fair.space, 10**308)
        with pytest.raises(mf.TooLargeError):
            mf.log_mass_array(fair, 10**308)


class TestQPower:
    @pytest.mark.parametrize("fixture", ["parry", "biased", "gibbs3"])
    def test_matches_entrywise_power_with_zeros_kept(self, fixture, request):
        chain = request.getfixturevalue(fixture)
        for q in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7):
            init_q, T_q = chain.q_power(q)
            for a, got in ((chain.init, init_q), (chain.T, T_q)):
                expected = np.zeros_like(a)
                expected[a > 0] = a[a > 0] ** q
                np.testing.assert_array_equal(got, expected)
                assert (got[a == 0] == 0).all()

    def test_inputs_untouched(self, parry):
        T = parry.T.copy()
        parry.q_power(-2.0)[1][:] = 7.0
        np.testing.assert_array_equal(parry.T, T)


def choice_walk(chain, n, rng):
    """The reference sampler: one ``Generator.choice`` per drawn block."""
    if n == 0:
        return ()
    i = int(rng.choice(len(chain.states), p=chain.init))
    word = list(chain.states[i])
    while len(word) < n:
        i = int(rng.choice(len(chain.states), p=chain.T[i]))
        word.append(chain.states[i][-1])
    return tuple(word[:n])


def dense_cdf_walk(chain, n, rng):
    """The sampler as it was with dense row CDFs: every draw bisects the
    CDF of init or of a whole row of T, over all B blocks."""
    if n == 0:
        return ()
    cdf = np.cumsum(np.vstack((chain.init, chain.T)), axis=1)
    cdf = (cdf / cdf[:, -1:]).tolist()
    u = rng.random(1 + max(0, n - len(chain.states[0]))).tolist()
    i = bisect_right(cdf[0], u[0])
    word = list(chain.states[i])
    for x in u[1:]:
        i = bisect_right(cdf[1 + i], x)
        word.append(chain.states[i][-1])
    return tuple(word[:n])


def random_gibbs(space, r, seed):
    weights = np.random.default_rng(seed).normal(0.0, 0.5, 2**r)
    return mf.Gibbs(mf.Potential(space, r, dict(zip(space.words_of_length(r), weights))))


class TestSampling:
    @pytest.mark.parametrize("name", ["biased", "stuck", "parry", "sticky", "gibbs3", "gibbs5",
                                      "golden-gibbs3"])
    def test_successor_cdfs_match_the_dense_rows(self, name, request, full2, golden):
        # the per-block m-entry CDFs give the dense rows' words and generator state
        chain = {"gibbs5": lambda: random_gibbs(full2, 5, 1),
                 "golden-gibbs3": lambda: random_gibbs(golden, 3, 2)}.get(
            name, lambda: request.getfixturevalue(name))()
        d = len(chain.states[0])
        for seed in range(20):
            for n in (0, 1, d, d + 1, 300):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert chain.sample_word(n, rng) == dense_cdf_walk(chain, n, ref), (seed, n)
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("fixture", ["parry", "gibbs3", "biased"])
    def test_matches_the_choice_walk(self, fixture, request):
        # same words, and the generator left in the same state
        chain = request.getfixturevalue(fixture)
        d = len(chain.states[0])
        for seed in range(10):
            for n in (0, 1, d, 200):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert chain.sample_word(n, rng) == choice_walk(chain, n, ref)
                assert rng.random() == ref.random()

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
