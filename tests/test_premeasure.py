import itertools
import math

import numpy as np
import pytest

import mfent as mf

LOG2 = math.log(2)


def P(q, t, N, k=0, D=4):
    return mf.PremeasureParams(q=q, t=t, N=N, k=k, D=D)


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


class TestParamsValidation:
    def test_order_window(self):
        with pytest.raises(ValueError):
            mf.PremeasureParams(q=0, t=0, N=3, k=0, D=2)
        with pytest.raises(ValueError):
            mf.PremeasureParams(q=0, t=0, N=0, k=0, D=4)

    def test_negative_radius_offset(self):
        with pytest.raises(ValueError):
            mf.PremeasureParams(q=0, t=0, N=1, k=-1, D=4)


class TestClosedForms:
    """Whole-space values where the optimum is computable by hand."""

    def test_counting_at_log2_is_one(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        v = mf.covering_premeasure(fair, Y, P(0, LOG2, 1))
        assert v.value == pytest.approx(1.0, abs=1e-12)
        vp = mf.packing_premeasure(fair, Y, P(0, LOG2, 1))
        assert vp.value == pytest.approx(1.0, abs=1e-12)

    def test_counting_discount_above_growth(self, fair, full2):
        # at t = log2 + s every level-n cover costs 2^n e^{-n(log2+s)} = e^{-ns}
        Y = mf.CylinderSet(full2, [()])
        s = 0.1
        v = mf.covering_premeasure(fair, Y, P(0, LOG2 + s, 1, D=8))
        assert v.value == pytest.approx(math.exp(-8 * s), rel=1e-10)

    def test_mass_gauge_normalizes(self, biased, full2):
        # q=1, t=0: every cover and packing sums cylinder masses, total 1
        Y = mf.CylinderSet(full2, [()])
        assert mf.covering_premeasure(biased, Y, P(1, 0, 1)).value == pytest.approx(1.0)
        assert mf.packing_premeasure(biased, Y, P(1, 0, 1)).value == pytest.approx(1.0)

    def test_single_cylinder_value(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,)])
        # q=2, t=0: subdividing shrinks the sum of squares, so the best
        # cover sits at the truncation depth D=4
        v = mf.covering_premeasure(biased, K, P(2, 0, 1))
        assert v.value == pytest.approx(0.25**2 * (0.25**2 + 0.75**2) ** 3, rel=1e-12)
        # and the same sum is the best packing at order exactly 1
        vp = mf.packing_premeasure(biased, K, P(2, 0, 1, D=1))
        assert vp.value == pytest.approx(0.25**2, rel=1e-12)

    def test_negative_gauge_blows_up_on_zero_mass(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        K = mf.CylinderSet(full2, [(1,)])
        v = mf.covering_premeasure(degenerate, K, P(-1, 0, 1))
        assert v.log_value == math.inf


class TestMonotonicity:
    def test_nonincreasing_in_t(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 0)])
        for q in (-1.0, 0.0, 2.0):
            vals = [
                mf.covering_premeasure(biased, K, P(q, t, 2, D=6)).log_value
                for t in (-0.5, 0.0, 0.5, 1.0)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_covering_nonincreasing_in_D(self, biased, full2):
        K = mf.CylinderSet(full2, [()])
        vals = [
            mf.covering_premeasure(biased, K, P(2, 0.3, 1, D=D)).log_value
            for D in (2, 4, 6, 8)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_packing_nondecreasing_in_D(self, biased, full2):
        K = mf.CylinderSet(full2, [()])
        vals = [
            mf.packing_premeasure(biased, K, P(2, -0.3, 1, D=D)).log_value
            for D in (2, 4, 6, 8)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_set(self, biased, full2):
        small = mf.CylinderSet(full2, [(0, 0)])
        big = mf.CylinderSet(full2, [(0,)])
        for q, t in itertools.product((-1, 0, 2), (0.0, 0.4)):
            lo = mf.covering_premeasure(biased, small, P(q, t, 1)).log_value
            hi = mf.covering_premeasure(biased, big, P(q, t, 1)).log_value
            assert lo <= hi + 1e-12

    def test_covering_below_packing(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        for q, t in itertools.product((-1, 0, 1, 2), (0.0, 0.5)):
            c = mf.covering_premeasure(biased, K, P(q, t, 1)).log_value
            p = mf.packing_premeasure(biased, K, P(q, t, 1)).log_value
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
            p = P(q, t, N, D=4)
            dp = mf.covering_premeasure(biased, K, p).log_value
            oracle = mf.antichain_oracle(biased, K, p, "min")
            assert dp == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("q", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, LOG2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_packing(self, biased, full2, q, t, N):
        for K in self.sets(full2):
            p = P(q, t, N, D=4)
            dp = mf.packing_premeasure(biased, K, p).log_value
            oracle = mf.antichain_oracle(biased, K, p, "max")
            assert dp == pytest.approx(oracle, abs=1e-12)

    def test_golden_mean_subshift(self, parry, golden):
        K = mf.CylinderSet(golden, [(0,)])
        for q, t, N in itertools.product((-1, 0, 2), (0.0, 0.3), (1, 2)):
            p = P(q, t, N, D=4)
            dp = mf.covering_premeasure(parry, K, p).log_value
            assert dp == pytest.approx(mf.antichain_oracle(parry, K, p, "min"), abs=1e-12)
            dpp = mf.packing_premeasure(parry, K, p).log_value
            assert dpp == pytest.approx(mf.antichain_oracle(parry, K, p, "max"), abs=1e-12)

    def test_radius_offset(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,)])
        for k in (1, 2):
            p = P(2, 0.2, 1, k=k, D=3)
            dp = mf.covering_premeasure(biased, K, p).log_value
            assert dp == pytest.approx(mf.antichain_oracle(biased, K, p, "min"), abs=1e-12)


class TestOuter:
    def test_depth_zero_equals_packing(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        p = P(2, 0.1, 1, D=5)
        outer0 = mf.packing_outer(biased, K, p, 0).log_value
        pack = mf.packing_premeasure(biased, K, p).log_value
        assert outer0 == pytest.approx(pack, abs=1e-12)

    def test_whole_space_counting_is_one_at_any_depth(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        p = P(0, LOG2, 1, D=5)
        for depth in range(4):
            assert mf.packing_outer(fair, Y, p, depth).value == pytest.approx(1.0)

    def test_outer_below_packing(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 0, 1)])
        for q, t in itertools.product((-1, 0, 2), (0.0, 0.4)):
            p = P(q, t, 1, D=6)
            outer = mf.packing_outer(biased, K, p, 4).log_value
            pack = mf.packing_premeasure(biased, K, p).log_value
            assert outer <= pack + 1e-12

    def test_subadditive_over_pieces(self, biased, full2):
        A = mf.CylinderSet(full2, [(0, 0)])
        B = mf.CylinderSet(full2, [(0, 1), (1, 0)])
        p = P(2, 0.1, 1, D=6)
        u = mf.packing_outer(biased, A.union(B), p, 4).log_value
        ua = mf.packing_outer(biased, A, p, 4).log_value
        ub = mf.packing_outer(biased, B, p, 4).log_value
        assert u <= np.logaddexp(ua, ub) + 1e-12

    def test_cover_depth_validation(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,)])
        with pytest.raises(ValueError):
            mf.packing_outer(biased, K, P(0, 0, 1, D=3), 5)


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
            mf.antichain_oracle(fair, Y, P(0, 0, 1, D=30), "min")


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
