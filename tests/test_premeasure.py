import itertools
import math

import numpy as np
import pytest

import mfent as mf

LOG2 = math.log(2)


def cover(model, K, q, t, N, k=0, D=4):
    return mf.TreeEvaluator(model, K, k, D).covering_log(q, t, N)


def pack(model, K, q, t, N, k=0, D=4):
    return mf.TreeEvaluator(model, K, k, D).packing_log(q, t, N)


def outer(model, K, q, t, N, cover_depth, D=4):
    return mf.TreeEvaluator(model, K, 0, D).outer_log(q, t, N, cover_depth)


class TestGauge:
    def test_power_values(self):
        assert mf.psi(2.0, 0.5) == 0.25
        assert mf.psi(-1.0, 0.5) == 2.0

    def test_zero_exponent_is_constant_one(self):
        for x in (0.0, 0.3, 1.0, 7.0):
            assert mf.psi(0.0, x) == 1.0

    def test_zero_mass_conventions(self):
        assert mf.psi(-2.0, 0.0) == math.inf
        assert mf.psi(2.0, 0.0) == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            mf.psi(1.0, -0.1)

    def test_log_domain_agrees(self):
        for s in (-1.5, 0.0, 0.5, 2.0):
            for x in (0.2, 1.0, 3.0):
                assert mf.psi_log(s, math.log(x)) == pytest.approx(
                    math.log(mf.psi(s, x)), abs=1e-14
                )
        assert mf.psi_log(-1.0, -math.inf) == math.inf
        assert mf.psi_log(1.0, -math.inf) == -math.inf
        assert mf.psi_log(0.0, -math.inf) == 0.0

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
        "estimator", [mf.bowen_entropy, mf.packing_entropy_delta, mf.packing_entropy]
    )
    def test_estimators_refuse_bad_window(self, biased, full2, estimator, k, schedule, match):
        with pytest.raises(ValueError, match=match):
            estimator(biased, mf.CylinderSet(full2, [()]), 0.0, k, schedule)


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

    def test_whole_space_counting_is_one_at_any_depth(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        for depth in range(4):
            assert math.exp(outer(fair, Y, 0, LOG2, 1, depth, D=5)) == pytest.approx(1.0)

    def test_outer_below_packing(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 0, 1)])
        for q, t in itertools.product((-1, 0, 2), (0.0, 0.4)):
            ev = mf.TreeEvaluator(biased, K, 0, 6)
            assert ev.outer_log(q, t, 1, 4) <= ev.packing_log(q, t, 1) + 1e-12

    def test_subadditive_over_pieces(self, biased, full2):
        A = mf.CylinderSet(full2, [(0, 0)])
        B = mf.CylinderSet(full2, [(0, 1), (1, 0)])
        u = outer(biased, A.union(B), 2, 0.1, 1, 4, D=6)
        ua = outer(biased, A, 2, 0.1, 1, 4, D=6)
        ub = outer(biased, B, 2, 0.1, 1, 4, D=6)
        assert u <= np.logaddexp(ua, ub) + 1e-12

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

    def test_deep_tree_refused_before_building(self):
        # one word per level and first symbol: only the depth is too large
        cycle = mf.make_shift(2, [[0, 1], [1, 0]])
        flip = mf.Markov(cycle, [[0, 1], [1, 0]], [0.5, 0.5])
        with pytest.raises(mf.TooLargeError):
            mf.TreeEvaluator(flip, mf.CylinderSet(cycle, [()]), 0, 10**12)


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
        "fixture, K_words",
        [
            pytest.param(f, ws, id="-".join(filter(None, (f, name))))
            for f in ("biased", "parry", "gibbs2", "gibbs3", "bernoulli_gibbs")
            for name, ws in TREE_KS.items()
        ],
    )
    def test_levels_match_per_word_log_mass(self, fixture, K_words, request):
        # the trie keeps exactly the words whose cylinder meets K, in order
        model = request.getfixturevalue(fixture)
        K = mf.CylinderSet(model.space, K_words)
        ev = mf.TreeEvaluator(model, K, 1, 6)
        assert len(ev.level_words) == 8
        for n, (words, lm) in enumerate(zip(ev.level_words, ev.log_masses)):
            expected = [w for w in model.space.words_of_length(n) if K.intersects(w)]
            assert [tuple(w) for w in words.tolist()] == expected
            np.testing.assert_array_equal(lm, [model.log_mass(w) for w in words])
