import itertools
import math

import numpy as np
import pytest

import mfent as mf
from conftest import count_words, random_irreducible_markov, restrict, union

LOG2 = math.log(2)


def cover(model, K, q, t, N, k=0, D=4):
    return mf.TreeEvaluator(model, K, k, D).covering_log(q, t, N)


def pack(model, K, q, t, N, k=0, D=4):
    return mf.TreeEvaluator(model, K, k, D).packing_log(q, t, N)


def outer(model, K, q, t, N, cover_depth, D=4):
    return mf.TreeEvaluator(model, K, 0, D).outer_log(q, t, N, cover_depth)


class TestGauge:
    def test_power_values(self):
        assert mf.psi_log(2.0, math.log(0.5)) == math.log(0.25)
        assert mf.psi_log(-1.0, math.log(0.5)) == LOG2

    def test_zero_exponent_is_constant_one(self):
        # x^0 = 1, also at x = 0, so its log is 0
        for log_x in (-math.inf, math.log(0.3), 0.0, math.log(7.0)):
            assert mf.psi_log(0.0, log_x) == 0.0
        got = mf.psi_log(0.0, np.array([-math.inf, -1.5, 0.0, 2.0]))
        assert got.dtype == float
        assert got.tobytes() == np.zeros(4).tobytes()

    def test_zero_mass_conventions(self):
        assert mf.psi_log(-2.0, -math.inf) == math.inf
        assert mf.psi_log(2.0, -math.inf) == -math.inf

    def test_log_domain_agrees(self):
        for s in (-1.5, 0.0, 0.5, 2.0):
            for x in (0.2, 1.0, 3.0):
                assert mf.psi_log(s, math.log(x)) == pytest.approx(math.log(x**s), abs=1e-14)

    @pytest.mark.parametrize("s", [-2.5, -1.0, 0.0, 0.5, 3.0])
    def test_log_gauge_on_arrays_matches_scalars_bitwise(self, s):
        log_x = np.array([-math.inf, -745.0, -1.5, -0.0, 0.0, 0.7, math.inf])
        want = [mf.psi_log(s, float(v)) for v in log_x]
        got = mf.psi_log(s, log_x)
        assert got.shape == log_x.shape
        assert got.tobytes() == np.array(want).tobytes()


class TestWindowValidation:
    """The order window 1 <= N <= D, k >= 0 is part of every pre-measure:
    the tree refuses k < 0 before building, each sweep and the oracle refuse
    N outside [1, D], and the schedule estimators inherit both."""

    @pytest.mark.parametrize("N", [0, 5])
    @pytest.mark.parametrize("sweep", ["covering_log", "packing_log"])
    def test_sweep_refuses_order_outside_window(self, fair, full2, sweep, N):
        ev = mf.TreeEvaluator(fair, mf.CylinderSet(full2, [()]), 0, 4)
        with pytest.raises(ValueError, match="minimum order|order cap"):
            getattr(ev, sweep)(1.0, 0.0, N)

    @pytest.mark.parametrize("N", [0, 5])
    def test_outer_sweep_refuses_order_outside_window(self, fair, full2, N):
        ev = mf.TreeEvaluator(fair, mf.CylinderSet(full2, [()]), 0, 4)
        with pytest.raises(ValueError, match="minimum order|order cap"):
            ev.outer_log(1.0, 0.0, N, 1)

    def test_outer_sweep_checks_window_before_cover_depth(self, fair, full2):
        ev = mf.TreeEvaluator(fair, mf.CylinderSet(full2, [()]), 0, 4)
        with pytest.raises(ValueError, match="minimum order"):
            ev.outer_log(1.0, 0.0, 0, 9)
        with pytest.raises(ValueError, match=r"cover depth -1 outside \[0, 3\]"):
            ev.outer_log(1.0, 0.0, 1, -1, 3)

    def test_negative_radius_offset(self, fair, full2):
        with pytest.raises(ValueError, match="depth offset k"):
            mf.TreeEvaluator(fair, mf.CylinderSet(full2, [()]), -1, 4)

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_oracle_refuses_order_outside_window(self, fair, full2, mode):
        Y = mf.CylinderSet(full2, [()])
        with pytest.raises(ValueError, match="order cap D=2 below N=3"):
            mf.antichain_oracle(fair, Y, 0, 0, 3, 0, 2, mode)
        with pytest.raises(ValueError, match="minimum order"):
            mf.antichain_oracle(fair, Y, 0, 0, 0, 0, 4, mode)
        with pytest.raises(ValueError, match="depth offset k"):
            mf.antichain_oracle(fair, Y, 0, 0, 1, -1, 4, mode)

    @pytest.mark.parametrize(
        "k, schedule, match",
        [
            (0, [(5, 3), (7, 4)], "order cap D=3 below N=5"),
            (0, [(0, 3), (0, 4)], "minimum order"),
            (-1, [(2, 2), (3, 3)], "depth offset k"),
        ],
    )
    @pytest.mark.parametrize(
        "estimator", [mf.bowen_entropy, mf.packing_entropy_delta]
    )
    def test_estimators_refuse_bad_window(self, biased, full2, estimator, k, schedule, match):
        Y = mf.CylinderSet(full2, [()])
        with pytest.raises(ValueError, match=match):
            estimator(mf.TreeEvaluator(biased, Y, k, max(D for _, D in schedule)), 0.0, schedule)


class TestClosedForms:
    """Whole-space values where the optimum is computable by hand."""

    def test_counting_at_log2_is_one(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        assert math.exp(cover(fair, Y, 0, LOG2, 1)) == pytest.approx(1.0, abs=1e-12)
        assert math.exp(pack(fair, Y, 0, LOG2, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_counting_discount_above_growth(self, fair, full2):
        # at t = log2 + s every level-n cover costs 2^n e^{-n(log2+s)} = e^{-ns}
        Y = mf.CylinderSet(full2, [()])
        s = 0.1
        v = cover(fair, Y, 0, LOG2 + s, 1, D=8)
        assert math.exp(v) == pytest.approx(math.exp(-8 * s), rel=1e-10)

    def test_mass_gauge_normalizes(self, biased, full2):
        # q=1, t=0: every cover and packing sums cylinder masses, total 1
        Y = mf.CylinderSet(full2, [()])
        assert math.exp(cover(biased, Y, 1, 0, 1)) == pytest.approx(1.0)
        assert math.exp(pack(biased, Y, 1, 0, 1)) == pytest.approx(1.0)

    def test_single_cylinder_value(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,)])
        # q=2, t=0: subdividing shrinks the sum of squares, so the best
        # cover sits at the truncation depth D=4
        v = cover(biased, K, 2, 0, 1)
        assert math.exp(v) == pytest.approx(0.25**2 * (0.25**2 + 0.75**2) ** 3, rel=1e-12)
        # and the same sum is the best packing at order exactly 1
        vp = pack(biased, K, 2, 0, 1, D=1)
        assert math.exp(vp) == pytest.approx(0.25**2, rel=1e-12)

    def test_negative_gauge_blows_up_on_zero_mass(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        K = mf.CylinderSet(full2, [(1,)])
        assert cover(degenerate, K, -1, 0, 1) == math.inf


class TestMonotonicity:
    def test_nonincreasing_in_t(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 0)])
        for q in (-1.0, 0.0, 2.0):
            vals = [cover(biased, K, q, t, 2, D=6) for t in (-0.5, 0.0, 0.5, 1.0)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_covering_nonincreasing_in_D(self, biased, full2):
        K = mf.CylinderSet(full2, [()])
        vals = [cover(biased, K, 2, 0.3, 1, D=D) for D in (2, 4, 6, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_packing_nondecreasing_in_D(self, biased, full2):
        K = mf.CylinderSet(full2, [()])
        vals = [pack(biased, K, 2, -0.3, 1, D=D) for D in (2, 4, 6, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_set(self, biased, full2):
        small = mf.CylinderSet(full2, [(0, 0)])
        big = mf.CylinderSet(full2, [(0,)])
        for q, t in itertools.product((-1, 0, 2), (0.0, 0.4)):
            lo = cover(biased, small, q, t, 1)
            hi = cover(biased, big, q, t, 1)
            assert lo <= hi + 1e-12

    def test_covering_below_packing(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        for q, t in itertools.product((-1, 0, 1, 2), (0.0, 0.5)):
            c = cover(biased, K, q, t, 1)
            p = pack(biased, K, q, t, 1)
            assert c <= p + 1e-12


class TestOracleEquivalence:
    """The level-sweep DP must match explicit antichain enumeration."""

    def sets(self, full2):
        yield mf.CylinderSet(full2, [()])
        yield mf.CylinderSet(full2, [(0,)])
        yield mf.CylinderSet(full2, [(0, 0), (1,)])
        yield mf.CylinderSet(full2, [(0, 1, 0), (1, 0)])
        yield mf.CylinderSet(full2, [(0, 0, 0), (0, 1, 1), (1, 1, 0)])

    @pytest.mark.parametrize("q", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, LOG2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_covering(self, biased, full2, q, t, N):
        for K in self.sets(full2):
            dp = cover(biased, K, q, t, N)
            oracle = mf.antichain_oracle(biased, K, q, t, N, 0, 4, "min")
            assert dp == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("q", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, LOG2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_packing(self, biased, full2, q, t, N):
        for K in self.sets(full2):
            dp = pack(biased, K, q, t, N)
            oracle = mf.antichain_oracle(biased, K, q, t, N, 0, 4, "max")
            assert dp == pytest.approx(oracle, abs=1e-12)

    def test_golden_mean_subshift(self, parry, golden):
        K = mf.CylinderSet(golden, [(0,)])
        for q, t, N in itertools.product((-1, 0, 2), (0.0, 0.3), (1, 2)):
            oracle_min = mf.antichain_oracle(parry, K, q, t, N, 0, 4, "min")
            assert cover(parry, K, q, t, N) == pytest.approx(oracle_min, abs=1e-12)
            oracle_max = mf.antichain_oracle(parry, K, q, t, N, 0, 4, "max")
            assert pack(parry, K, q, t, N) == pytest.approx(oracle_max, abs=1e-12)

    def test_radius_offset(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,)])
        for k in (1, 2):
            oracle = mf.antichain_oracle(biased, K, 2, 0.2, 1, k, 3, "min")
            assert cover(biased, K, 2, 0.2, 1, k=k, D=3) == pytest.approx(oracle, abs=1e-12)


class TestOuter:
    def test_depth_zero_equals_packing(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        ev = mf.TreeEvaluator(biased, K, 0, 5)
        assert ev.outer_log(2, 0.1, 1, 0) == pytest.approx(ev.packing_log(2, 0.1, 1), abs=1e-12)

    def test_whole_space_counting_is_one_at_any_depth(self, fair, biased, full2):
        Y = mf.CylinderSet(full2, [()])
        for model in (fair, mf.Mixture(fair, biased, 0.5)):
            for depth in range(6):
                assert math.exp(outer(model, Y, 0, LOG2, 1, depth, D=5)) == pytest.approx(1.0)

    def test_outer_below_packing(self, biased, bernoulli_gibbs, full2):
        # depth 4 is above N + k = 1, and the refined value is still the packing's
        K = mf.CylinderSet(full2, [(0,), (1, 0, 1)])
        for model in (biased, bernoulli_gibbs):
            ev = mf.TreeEvaluator(model, K, 0, 6)
            for q, t in itertools.product((-1, 0, 2), (0.0, 0.4)):
                refined = ev.outer_log(q, t, 1, 4)
                assert ev.covering_log(q, t, 1) <= refined + 1e-12
                assert refined == ev.packing_log(q, t, 1)

    def test_subadditive_over_pieces(self, biased, full2):
        A = mf.CylinderSet(full2, [(0, 0)])
        B = mf.CylinderSet(full2, [(0, 1), (1, 0)])
        u = outer(biased, union(A, B), 2, 0.1, 1, 4, D=6)
        ua = outer(biased, A, 2, 0.1, 1, 4, D=6)
        ub = outer(biased, B, 2, 0.1, 1, 4, D=6)
        assert u <= np.logaddexp(ua, ub) + 1e-12

    @pytest.mark.parametrize("name", ["biased", "parry", "bernoulli_gibbs"])
    def test_cylinder_partition_never_lowers_packing(self, request, name):
        # why a cover-refined packing is the packing itself: every ball of a
        # packing of K has its centre in one piece of a cylinder partition,
        # so the pieces' packing values sum to at least K's
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(model.space, [(0, 0), (1, 0, 1)])
        for k, depth in itertools.product((0, 1), (1, 2, 3)):
            pieces = [mf.TreeEvaluator(model, restrict(K, w), k, 5)
                      for w in model.space.words_of_length(depth) if K.intersects(w)]
            whole = mf.TreeEvaluator(model, K, k, 5)
            for q, t, (N, D) in itertools.product((-2.0, 0.0, 1.5), (-0.3, 0.5),
                                                  ((1, 5), (2, 4), (3, 3))):
                split = np.logaddexp.reduce([ev.packing_log(q, t, N, D) for ev in pieces])
                assert split >= whole.packing_log(q, t, N, D) - 1e-12, (k, depth, q, t, N, D)

    def test_cover_depth_validation(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,)])
        with pytest.raises(ValueError):
            outer(biased, K, 0, 0, 1, 5, D=3)


class TestEvaluatorGuards:
    def test_empty_set_rejected(self, fair, full2):
        with pytest.raises(ValueError):
            mf.TreeEvaluator(fair, mf.CylinderSet(full2, []), 0, 4)

    def test_space_mismatch(self, parry, full2):
        K = mf.CylinderSet(full2, [(0,)])
        with pytest.raises(ValueError):
            mf.TreeEvaluator(parry, K, 0, 4)

    def test_oracle_refuses_huge_trees(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        with pytest.raises(mf.TooLargeError):
            mf.antichain_oracle(fair, Y, 0, 0, 1, 0, 30, "min")

    def test_oracle_refuses_huge_depth_at_once(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        with pytest.raises(mf.TooLargeError):
            mf.antichain_oracle(fair, Y, 0, 0, 1, 0, 10**308, "min")

    @pytest.mark.parametrize("q", [1e308, -1e308])
    def test_overflowing_gauge_refused_per_q(self, parry, golden, q):
        # q times the least log mass at depth D + k = 7 is not finite; a
        # refused q leaves the cached tables of the q before it intact
        ev = mf.TreeEvaluator(parry, mf.CylinderSet(golden, [(0,)]), 1, 6)
        before = ev.packing_log(0.5, 0.4, 2)
        for sweep in (ev.covering_log, ev.packing_log):
            with pytest.raises(mf.ConvergenceError, match="overflows at q = .*, length 7"):
                sweep(q, 0.4, 2)
        assert ev.packing_log(0.5, 0.4, 2) == before
        assert math.isfinite(ev.packing_log(q / 100, 0.4, 2))

    def test_deep_tree_refused_before_building(self):
        # one word per level and first symbol: only the depth is too large
        cycle = mf.make_shift(2, [[0, 1], [1, 0]])
        flip = mf.Markov(cycle, [[0, 1], [1, 0]], [0.5, 0.5])
        with pytest.raises(mf.TooLargeError):
            mf.TreeEvaluator(flip, mf.CylinderSet(cycle, [()]), 0, 10**12)


class TestLeast:
    """``least``, the smallest finite log mass at depth D + k, computed once
    when the evaluator is built from the edge tables it holds."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("K_words", [[()], [(0, 1), (1, 0, 0)]], ids=["whole", "two"])
    @pytest.mark.parametrize("fixture", ["biased", "sticky", "gibbs3", "bernoulli_gibbs"])
    def test_is_the_least_enumerated_finite_log_mass(self, request, fixture, K_words, k):
        model = request.getfixturevalue(fixture)
        K = mf.CylinderSet(model.space, K_words)
        for D in range(1, 7):
            ev = mf.TreeEvaluator(model, K, k, D)
            masses = [model.log_mass(w) for w in model.space.words_of_length(D + k)
                      if K.intersects(w)]
            assert ev.least == min((m for m in masses if math.isfinite(m)), default=0.0), D

    def test_evaluator_builds_one_trie_and_has_no_census(self, monkeypatch, parry, golden):
        calls = []
        trie = mf.CylinderSet.trie
        monkeypatch.setattr(mf.CylinderSet, "trie", lambda K: calls.append(K) or trie(K))
        ev = mf.TreeEvaluator(parry, mf.CylinderSet(golden, [(0,), (1, 0, 1)]), 1, 5)
        assert len(calls) == 1
        assert not hasattr(ev, "census") and not hasattr(ev, "_census")

    def test_three_shift_sweeps_past_a_float_word_count(self):
        # 3^647 words at depth 647 overflow a float count; the sweep reads
        # only the least log mass, 647 log 0.2
        full3 = mf.make_shift(3, np.ones((3, 3), dtype=int))
        p = [0.2, 0.3, 0.5]
        ev = mf.TreeEvaluator(mf.Bernoulli(full3, p), mf.CylinderSet(full3, [()]), 0, 647)
        assert ev.least == pytest.approx(647 * math.log(0.2), rel=1e-12)
        # at N = D and t = 0 the packing is the whole level's sum of m^q
        expected = 647 * math.log(sum(x**0.5 for x in p))
        assert ev.packing_log(0.5, 0.0, 647) == pytest.approx(expected, rel=1e-10)
        assert math.isfinite(ev.covering_log(0.5, 0.4, 2))


# K for the tree build: "" is two members at depths 2 and 3; on the golden
# mean each "forced" member ends in 1, so only 0 may follow it
TREE_KS = {
    "": [(0, 1), (1, 0, 0)],
    "whole": [()],
    "deep": [(0, 1, 0, 0, 1, 0)],
    "mixed": [(1,), (0, 0, 1, 0), (0, 1, 0, 1, 0, 0)],
    "forced": [(0, 1), (1, 0, 1)],
}


class TestTreeMasses:
    @pytest.mark.parametrize(
        "fixture, K_words, mixture",
        [
            pytest.param(f, ws, True, id="-".join(filter(None, (f, name))))
            for f in ("biased", "parry", "gibbs2", "gibbs3", "bernoulli_gibbs")
            for name, ws in TREE_KS.items()
        ] + [
            pytest.param("gibbs3", ws, False, id="-".join(filter(None, ("gibbs3-chain", name))))
            for name, ws in TREE_KS.items()
        ],
    )
    def test_levels_match_per_word_log_mass(self, fixture, K_words, mixture, request):
        # the trie keeps exactly the words whose cylinder meets K, in order;
        # Mixture(model, model, 1) has the model's masses and builds all its
        # levels, where a chain builds only those below its block length:
        # for gibbs3 (2-blocks) the root and the length-1 words
        # (TestChainTables checks the merged chain levels against this tree)
        model = request.getfixturevalue(fixture)
        if mixture:
            model = mf.Mixture(model, model, 1.0)
        K = mf.CylinderSet(model.space, K_words)
        ev = mf.TreeEvaluator(model, K, 1, 6)
        assert len(ev.level_words) == (8 if mixture else 2)
        for n, (words, lm) in enumerate(zip(ev.level_words, ev._lm)):
            expected = [w for w in model.space.words_of_length(n) if K.intersects(w)]
            assert [tuple(w) for w in words.tolist()] == expected
            np.testing.assert_array_equal(lm, [model.log_mass(w) for w in words])

    @pytest.mark.parametrize("K_words", TREE_KS.values(), ids=list(TREE_KS))
    def test_tree_cap_counts_nodes_exactly(self, monkeypatch, parry, K_words):
        # a Mixture folds over the explicit tree: the cap counts its nodes
        # exactly before building it
        model = mf.Mixture(parry, parry, 0.5)
        K = mf.CylinderSet(model.space, K_words)
        nodes = sum(len(w) for w in mf.TreeEvaluator(model, K, 1, 6).level_words)
        monkeypatch.setattr(mf.premeasure, "_MAX_TREE_NODES", nodes)
        mf.TreeEvaluator(model, K, 1, 6)
        monkeypatch.setattr(mf.premeasure, "_MAX_TREE_NODES", nodes - 1)
        monkeypatch.setattr(mf.Mixture, "extend", None)  # nothing may be built
        with pytest.raises(mf.TooLargeError):
            mf.TreeEvaluator(model, K, 1, 6)


@pytest.fixture(scope="module")
def gibbs4(full2):
    # r = 4: a 3-block chain, so levels 0..2 hold absolute values
    weights = (0.2, -0.7, 0.5, -0.1, -1.3, 0.8, 0.0, -0.4,
               0.6, -0.9, 0.3, 0.1, -0.6, 1.0, -0.2, 0.4)
    return mf.Gibbs(mf.Potential(full2, 4, dict(zip(full2.words_of_length(4), weights))))


class TestChainTables:
    """A chain folds over (chain node, trie state) tables instead of its tree.
    ``Mixture(chain, chain, 1)`` has the chain's own masses and folds over the
    explicit tree, so it is the reference, as is the antichain oracle."""

    CASES = [([()], 0, 2), ([()], 1, 5), ([(0, 1), (1, 0, 0)], 0, 5), ([(1,), (0, 0, 1)], 2, 4)]

    @staticmethod
    def sweeps(ev, q, outer_first, D=None):
        D = ev.D if D is None else D
        out = []
        for t, N in itertools.product((-0.3, 0.5), (1, 2)):
            calls = [("packing", lambda: ev.packing_log(q, t, N, D)),
                     ("outer", lambda: ev.outer_log(q, t, N, D, D)),
                     ("covering", lambda: ev.covering_log(q, t, N, D))]
            if outer_first:
                calls.reverse()
            out += sorted((name, call()) for name, call in calls)
        return out

    @pytest.mark.parametrize("name", ["stuck", "sticky", "gibbs4"])
    @pytest.mark.parametrize("q", [-2.0, 0.0, 1.5])
    def test_matches_tree_fold_in_either_call_order(self, request, name, q):
        model = request.getfixturevalue(name)
        for K_words, k, D in self.CASES:
            K = mf.CylinderSet(model.space, K_words)
            tree = self.sweeps(mf.TreeEvaluator(mf.Mixture(model, model, 1.0), K, k, D), q, False)
            first = self.sweeps(mf.TreeEvaluator(model, K, k, D), q, False)
            # bit for bit, whichever sweep ran first
            assert self.sweeps(mf.TreeEvaluator(model, K, k, D), q, True) == first
            for (sweep, got), (_, want) in zip(first, tree):
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13), (sweep, K_words, k, D)

    @pytest.mark.parametrize("name", ["stuck", "sticky", "gibbs4"])
    @pytest.mark.parametrize("q", [-2.0, 0.0, 1.5])
    def test_matches_oracle(self, request, name, q):
        model = request.getfixturevalue(name)
        for (K_words, k, D), t, N in itertools.product(self.CASES[:3], (-0.3, 0.5), (1, 2)):
            if N > D:
                continue
            K = mf.CylinderSet(model.space, K_words)
            ev = mf.TreeEvaluator(model, K, k, min(D, 3))
            for mode, sweep in (("min", ev.covering_log), ("max", ev.packing_log)):
                oracle = mf.antichain_oracle(model, K, q, t, N, k, ev.D, mode)
                assert sweep(q, t, N) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_repeating_levels_share_one_table(self, parry):
        # Parry's pairs are the same from level 1 on, so levels 2..D + k
        # repeat level 2's tables: one read-only array each
        Y = mf.CylinderSet(parry.space, [()])
        ev = mf.TreeEvaluator(parry, Y, 1, 18)
        assert [len(lm) for lm in ev._lm] == [1] + [2] * 19
        for levels, first in ((ev._lm, 2), (ev._child, 1), (ev._steps, 1), (ev._starts, 1),
                              (ev._par, 1)):
            assert len(levels) == len(ev._lm) - (first == 1)
            assert all(table is levels[first] for table in levels[first:])
            assert not levels[first].flags.writeable
        tree = mf.TreeEvaluator(mf.Mixture(parry, parry, 1.0), Y, 1, 18)
        for q, D in itertools.product((-2.0, 0.0, 1.5), (12, 18)):
            for (sweep, got), (_, want) in zip(self.sweeps(ev, q, False, D),
                                               self.sweeps(tree, q, False, D)):
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13), (sweep, D)

    @pytest.mark.parametrize("K_words", [[()], [(0,), (1, 2)]])
    def test_forward_weights_sum_in_edges_in_edge_order(self, markov3, K_words):
        # a merged unit's forward weight sums its in-edges in edge order, as
        # one reduceat over the edges grouped stably by child pair would, bit
        # for bit; on 3 symbols a unit has up to 3 in-edges, so the order shows
        ev = mf.TreeEvaluator(markov3, mf.CylinderSet(markov3.space, K_words), 0, 8)
        for q in (-2.0, 0.7, 1.5, 3.1):
            ev.packing_log(q, 0.3, 8)  # builds the forward weights down to level 8
            for level in range(8):  # markov3 is a 1-block chain: every level is merged
                child, par = ev._child[level], ev._par[level]
                into = np.argsort(child, kind="stable")
                edges = ev._forward(q, level)[par] + mf.psi_log(q, ev._steps[level])
                starts = np.flatnonzero(np.diff(child[into], prepend=-1))
                want = np.logaddexp.reduceat(edges[into], starts) + 0.0
                assert ev._forward(q, level + 1).tobytes() == want.tobytes(), (q, level)

    def test_chain_depth_needs_no_tree(self, parry):
        # 5.7M nodes to depth 30, past the tree cap; the tables hold 31 x 2 pairs
        ev = mf.TreeEvaluator(parry, mf.CylinderSet(parry.space, [()]), 0, 30)
        assert len(ev.level_words) == 1
        # q = 0 and N = D: each of the depth-30 words weighs e^{-30 t}
        words = count_words(parry.space, 30)
        assert ev.packing_log(0.0, 0.5, 30) == pytest.approx(math.log(words) - 15, rel=1e-13)

    def test_chain_cap_is_stated_in_table_entries(self, parry):
        # (D + k + 1) levels x 3 chain nodes x 1 trie state x 2 symbols
        Y = mf.CylinderSet(parry.space, [()])
        with pytest.raises(mf.TooLargeError, match="chain table"):
            mf.TreeEvaluator(parry, Y, 0, (1 << 22) // 6)
        # the deepest cover builds nothing: it is the packing sweep
        ev = mf.TreeEvaluator(parry, Y, 0, 30)
        assert ev.outer_log(0.0, 0.5, 1, 30) == ev.packing_log(0.0, 0.5, 1)
        assert len(ev.level_words) == 1


@pytest.fixture(scope="module")
def markov3():
    return random_irreducible_markov(np.random.default_rng(7), 3)


@pytest.fixture(scope="module")
def schedule_mixture(full2, gibbs3):
    # the entropy-schedule workload's mixture: Bernoulli(0.3, 0.7) and an r = 3 Gibbs
    return mf.Mixture(mf.Bernoulli(full2, [0.3, 0.7]), gibbs3, 0.5)


class TestSharedDepth:
    """One evaluator built at depth D + k serves every shallower D: a sweep
    folds from its own D, and its values are a fresh depth-D evaluator's bit
    for bit."""

    CASES = [("parry", [()]), ("markov3", [(0,), (1, 2)]),
             ("schedule_mixture", [(0, 1), (1, 1, 0)])]

    @staticmethod
    def values(ev, N, D):
        out = []
        for q, t in itertools.product((-2.0, 0.0, 1.5), (-0.3, 0.5)):
            out += [ev.covering_log(q, t, N, D), ev.packing_log(q, t, N, D)]
            out += [ev.outer_log(q, t, N, depth, D) for depth in range(D + 1)]
        return np.array(out).tobytes()

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("name, K_words", CASES, ids=[name for name, _ in CASES])
    def test_deep_evaluator_matches_fresh_ones(self, request, name, K_words, k):
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(model.space, K_words)
        deep = mf.TreeEvaluator(model, K, k, 7)
        for D in range(1, deep.D):
            fresh = mf.TreeEvaluator(model, K, k, D)
            for N in range(1, D + 1):
                assert self.values(deep, N, D) == self.values(fresh, N, D), (N, D)

    def test_refuses_depth_above_its_own_and_cover_depth_above_d(self, biased, full2):
        ev = mf.TreeEvaluator(biased, mf.CylinderSet(full2, [(0,)]), 1, 5)
        for sweep in (ev.covering_log, ev.packing_log):
            with pytest.raises(ValueError, match="D=6 above the evaluator's depth D=5"):
                sweep(0.0, 0.1, 1, 6)
        with pytest.raises(ValueError, match="D=6 above the evaluator's depth D=5"):
            ev.outer_log(0.0, 0.1, 1, 2, 6)
        with pytest.raises(ValueError, match=r"cover depth 4 outside \[0, 3\]"):
            ev.outer_log(0.0, 0.1, 1, 4, 3)


QS = (-2.0, -0.5, 0.0, 1.0, 2.5)


def word_fold(model, K, t, N, k, D, best):
    """The pre-measure for every q in QS from its definition, word by word
    over the cylinders meeting K: a word of order n = len(w) - k in [N, D]
    weighs psi(q, mass) e^{-t n}, and its value is ``best`` of that and its
    children's sum; below order N it is the sum, at order D the weight."""
    masses = {}

    def value(w):
        n = len(w) - k
        if n < D:
            acc = np.logaddexp.reduce([value(c) for c in model.space.children(w) if K.intersects(c)])
        if n < N:
            return acc
        if w not in masses:
            masses[w] = model.log_mass(w)
        own = np.array([mf.psi_log(q, masses[w]) for q in QS]) - t * n
        return own if n == D else best(own, acc)

    return value(())


class TestOrderedLevels:
    """A sweep folds the ordered levels D + k ... N + k and closes with one
    log-sum-exp against per-unit forward weights, cached for the last q."""

    CASES = [("parry", [()]), ("markov3", [(0,), (1, 2)]), ("gibbs3", [(0, 1), (1, 0, 0)]),
             ("bernoulli_gibbs", [(0, 1), (1, 0, 0)]), ("stuck", [(0, 1), (1, 0, 0)]),
             ("stuck", [(0, 0, 0)]), ("sticky", [(0, 1), (1, 0, 0)])]

    @pytest.mark.parametrize("name, K_words", CASES,
                             ids=[f"{name}-{len(K_words)}" for name, K_words in CASES])
    def test_matches_independent_values(self, request, name, K_words):
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(model.space, K_words)
        for k in (0, 1, 2):
            ev = mf.TreeEvaluator(model, K, k, 6)
            for D in range(1, 7):
                for N in range(1, D + 1):
                    t = (0.0, 0.4, -0.3)[(N + D + k) % 3]
                    for mode, best, sweep in (("min", np.minimum, ev.covering_log),
                                              ("max", np.maximum, ev.packing_log)):
                        want = word_fold(model, K, t, N, k, D, best)
                        got = [sweep(q, t, N, D) for q in QS]
                        assert got == pytest.approx(want.tolist(), rel=1e-12, abs=1e-12)
                        assert all(v != 0 or math.copysign(1.0, v) > 0 for v in got), got
                        # the brute force where its enumeration fits under its cap
                        i = (N + D + k) % len(QS)
                        try:
                            oracle = mf.antichain_oracle(model, K, QS[i], t, N, k, D, mode)
                        except mf.TooLargeError:
                            continue
                        assert got[i] == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_unit_mass_sums_to_positive_zero(self, stuck, full2):
        # the one word 0^n weighs 1 at every level: log 0.0, never -0.0,
        # for the chain and for the tree fold of a mixture
        K = mf.CylinderSet(full2, [(0, 0, 0, 0, 0, 0)])
        for model in (stuck, mf.Mixture(stuck, stuck, 1.0)):
            ev = mf.TreeEvaluator(model, K, 0, 6)
            for q, N in itertools.product(QS, range(1, 7)):
                for sweep in (ev.covering_log, ev.packing_log):
                    assert math.copysign(1.0, sweep(q, 0.0, N)) == 1.0

    @pytest.mark.parametrize("name", ["parry", "bernoulli_gibbs"])
    def test_outer_log_is_packing_log_bitwise(self, request, name):
        # a cylinder partition of K never lowers the packing value, so the
        # refined sweep is the packing one at every cover depth, above N + k
        # too, and a chain builds no explicit level for it
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(model.space, [(0, 0), (1, 0, 1)])
        for k in (0, 1, 2):
            ev = mf.TreeEvaluator(model, K, k, 6)
            for q, t, (N, D) in itertools.product((-2.0, 0.0, 1.5), (-0.3, 0.5),
                                                  ((1, 6), (3, 5), (2, 2))):
                for depth in range(D + 1):
                    assert ev.outer_log(q, t, N, depth, D) == ev.packing_log(q, t, N, D)
            if name == "parry":
                assert len(ev.level_words) == 1

    @pytest.mark.parametrize("name", ["gibbs3", "bernoulli_gibbs"])
    def test_interleaved_q_match_fresh_evaluators(self, request, name):
        # q1, q2, q1 on one evaluator, each value against a new evaluator's;
        # the (N, D) order builds the forward weights in steps and reuses them
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(model.space, [(0, 1), (1, 0, 0)])
        shared = mf.TreeEvaluator(model, K, 1, 6)

        def values(evaluator, q):
            out = []
            for t, (N, D) in itertools.product((-0.3, 0.5), ((1, 6), (4, 6), (2, 3), (5, 5))):
                out += [evaluator().covering_log(q, t, N, D), evaluator().packing_log(q, t, N, D),
                        evaluator().outer_log(q, t, N, D, D)]
            return np.array(out).tobytes()

        for q in (1.5, -2.0, 1.5):
            assert values(lambda: shared, q) == values(lambda: mf.TreeEvaluator(model, K, 1, 6), q)
