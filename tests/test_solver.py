import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfent as mf
from conftest import random_irreducible_markov
from mfent.solver import default_cover_depth, outer_is_packing

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2
FAST = ((4, 4), (8, 8), (10, 10))


def reference_root(f, lo: float, hi: float) -> float:
    """Plain bisection down to adjacent floats: the sign change of a
    nonincreasing f with f(lo) > 0 > f(hi)."""
    assert f(lo) > 0.0 > f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid > 0.0:
            lo = mid
        elif f_mid < 0.0:
            hi = mid
        else:
            return mid


def sweep_shaped(a, n, plus_inf_below, minus_inf_above):
    """log sum_i exp(a_i - t n_i), the shape of a pre-measure sweep whose
    antichain words have lengths n_i, with optional infinite tails."""
    a, n = np.asarray(a), np.asarray(n, dtype=float)

    def f(t: float) -> float:
        if plus_inf_below is not None and t < plus_inf_below:
            return math.inf
        if minus_inf_above is not None and t > minus_inf_above:
            return -math.inf
        return float(np.logaddexp.reduce(a - t * n))

    return f


def counted(f):
    """f and a list whose length counts the calls made to it."""
    calls = []

    def wrapped(t):
        calls.append(t)
        return f(t)

    return wrapped, calls


class TestCriticalExponent:
    def test_linear_function(self):
        # log value = 2 - t crosses zero at t = 2
        root = mf.critical_exponent(lambda t: 2.0 - t, (0.0, 1.0))
        assert root == pytest.approx(2.0, abs=1e-8)

    def test_bracket_expansion_both_sides(self):
        root = mf.critical_exponent(lambda t: -5.0 - t, (0.0, 1.0))
        assert root == pytest.approx(-5.0, abs=1e-8)

    def test_identically_zero_value(self):
        assert mf.critical_exponent(lambda t: -math.inf, (0.0, 1.0)) == -math.inf

    def test_blown_up_value(self):
        assert mf.critical_exponent(lambda t: math.inf, (0.0, 1.0)) == math.inf

    def test_steep_transition(self):
        root = mf.critical_exponent(lambda t: -1e6 * (t - 0.3), (0.0, 1.0), tol=1e-10)
        assert root == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize(
        "f, bracket, tol",
        [
            (lambda t: 0.2 - t * t, (0.0, 1.0), 0.0),
            (lambda t: 0.2 - t * t, (0.0, 1.0), -1e-9),
            (lambda t: 0.2 - t * t, (0.0, 1.0), math.nan),
            (lambda t: 0.3 - t, (-math.inf, 1.0), 1e-9),
            (lambda t: 0.3 - t, (0.0, math.inf), 1e-9),
            (lambda t: 0.3 - t, (math.nan, 1.0), 1e-9),
            (lambda t: 0.3 - t, (1.0, 0.0), 1e-9),
        ],
    )
    def test_bad_arguments_raise_before_evaluating(self, f, bracket, tol):
        wrapped, calls = counted(f)
        with pytest.raises(ValueError):
            mf.critical_exponent(wrapped, bracket, tol=tol)
        assert calls == []

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 1.0)), min_size=1, max_size=12
        ),
        N=st.integers(1, 12),
        extra=st.integers(0, 12),
        plus_inf_below=st.none() | st.floats(-10.0, 10.0),
        minus_inf_above=st.none() | st.floats(-10.0, 10.0),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-3, 5.0),
    )
    def test_root_within_half_tol_of_sign_change(
        self, terms, N, extra, plus_inf_below, minus_inf_above, tol, lo, width
    ):
        # word lengths n_i span [N, D], with both ends present as in a sweep
        D = N + extra
        a = [x for x, _ in terms] + [terms[0][0], terms[-1][0]]
        n = [N + u * (D - N) for _, u in terms] + [N, D]
        if plus_inf_below is not None and minus_inf_above is not None:
            minus_inf_above = max(minus_inf_above, plus_inf_below)
        f = sweep_shaped(a, n, plus_inf_below, minus_inf_above)
        root = mf.critical_exponent(f, (lo, lo + width), tol=tol)
        want = reference_root(f, -100.0, 100.0)
        assert abs(root - want) <= 0.5 * tol + 4 * math.ulp(want)


class TestSweepRoots:
    """critical_exponent on real tree sweeps, against plain bisection."""

    QS = (-3.0, -1.0, 0.0, 1.5, 3.0)

    @pytest.fixture(
        scope="class",
        params=["parry", "markov3", "bernoulli_gibbs"],
    )
    def tree(self, request, golden):
        if request.param == "parry":
            model = request.getfixturevalue("parry")
        elif request.param == "markov3":
            model = random_irreducible_markov(np.random.default_rng(7))
        else:
            model = request.getfixturevalue("bernoulli_gibbs")
        K = mf.CylinderSet(model.space, [()])
        return mf.TreeEvaluator(model, K, 1, 8)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("sweep", ["covering", "packing", "outer"])
    def test_matches_reference_bisection(self, tree, q, sweep):
        N = 6
        f = {
            "covering": lambda t: tree.covering_log(q, t, N),
            "packing": lambda t: tree.packing_log(q, t, N),
            "outer": lambda t: tree.outer_log(q, t, N, 3),
        }[sweep]
        root = mf.critical_exponent(f, (-1.0, 1.0))
        assert abs(root - reference_root(f, -100.0, 100.0)) <= 1e-8

    def test_sweeps_per_root_on_parry_tree(self, parry, golden):
        # the tree and exponents of the exponent-scan benchmark; bisection
        # to tol=1e-9 took about 35 sweeps per root
        N, D = 12, 18
        ev = mf.TreeEvaluator(parry, mf.CylinderSet(golden, [()]), 0, D)
        sweeps = {
            "covering": lambda q, t: ev.covering_log(q, t, N),
            "packing": lambda q, t: ev.packing_log(q, t, N),
            "outer": lambda q, t: ev.outer_log(q, t, N, 6),
        }
        for q in np.linspace(-3.2, 3.2, 17):
            span = LOG2 * (2.0 + abs(q)) + 1.0
            for sweep in sweeps.values():
                f, calls = counted(lambda t: sweep(q, t))
                root = mf.critical_exponent(f, (-span, span))
                assert abs(root - (1 - q) * math.log(PHI)) < 0.04 + 0.05 * abs(q)
                assert len(calls) <= 12, (q, len(calls))


class TestFullShiftEntropy:
    def test_fair_coin_counting(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        est = mf.bowen_entropy(fair, Y, 0.0, schedule=FAST)
        assert est.value == pytest.approx(LOG2, abs=1e-2)
        assert est.N_used == 10

    def test_mass_exponent_vanishes(self, biased, full2):
        # q=1 discounts by exactly the mass, so the exponent is 0
        Y = mf.CylinderSet(full2, [()])
        est = mf.bowen_entropy(biased, Y, 1.0, schedule=FAST)
        assert est.value == pytest.approx(0.0, abs=1e-2)

    def test_gauge_scaling_on_fair_coin(self, fair, full2):
        # all masses 2^{-n}: exponent is (1 - q) log 2 for every q
        Y = mf.CylinderSet(full2, [()])
        for q in (-1.0, 0.5, 2.0):
            est = mf.bowen_entropy(fair, Y, q, schedule=FAST)
            assert est.value == pytest.approx((1 - q) * LOG2, abs=2e-2)

    def test_error_bar_reflects_schedule_spread(self, fair, full2):
        Y = mf.CylinderSet(full2, [()])
        est = mf.bowen_entropy(fair, Y, 0.0, schedule=FAST)
        assert est.error_bar < 0.05


@pytest.mark.parametrize(
    "estimator", [mf.bowen_entropy, mf.packing_entropy_delta, mf.packing_entropy]
)
def test_empty_schedule_refused(fair, full2, estimator):
    with pytest.raises(ValueError, match="schedule is empty"):
        estimator(fair, mf.CylinderSet(full2, [()]), 0.0, schedule=[])


class TestSubshift:
    def test_golden_mean_growth(self, parry, golden):
        Y = mf.CylinderSet(golden, [()])
        est = mf.bowen_entropy(parry, Y, 0.0, schedule=FAST)
        assert est.value == pytest.approx(math.log(PHI), abs=2e-2)

    def test_packing_variants_agree_on_whole_space(self, parry, golden):
        Y = mf.CylinderSet(golden, [()])
        delta = mf.packing_entropy_delta(parry, Y, 0.0, schedule=FAST)
        refined = mf.packing_entropy(parry, Y, 0.0, schedule=FAST)
        assert refined.value == pytest.approx(delta.value, abs=1e-9)


class TestCoverDepthDefault:
    def test_packing_default_is_min_6_smallest_N(self, biased, full2):
        # the smallest N is 4, so every entry covers at depth 4, the 8 and 10 ones too
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        assert default_cover_depth(FAST) == 4
        default = mf.packing_entropy(biased, K, 0.5, schedule=FAST)
        explicit = mf.packing_entropy(biased, K, 0.5, schedule=FAST, cover_depth=4)
        assert default == explicit
        assert default_cover_depth(((8, 8), (12, 12))) == 6


WIDE = ((4, 8), (8, 8))


class TestOuterIsPacking:
    """Covering at a depth <= N + k leaves no usable ancestor ball and a
    plain-sum packing fold above the cover: the cover-refined packing is
    the raw packing bit for bit, so `mfent entropy` may reuse that estimate."""

    @pytest.mark.parametrize("name", ["biased", "gibbs3", "bernoulli_gibbs"])
    def test_outer_log_is_packing_log_bitwise(self, request, full2, name):
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        for k in (0, 2):
            ev = mf.TreeEvaluator(model, K, k, 8)
            for N in (1, 4, 8):
                for depth in range(min(N + k, 8) + 1):
                    assert outer_is_packing([(N, 8)], k, depth)
                    for q, t in ((-2.0, 0.3), (0.0, 0.7), (0.5, -0.1), (3.0, 1.2)):
                        assert ev.outer_log(q, t, N, depth) == ev.packing_log(q, t, N)

    def test_condition(self):
        assert outer_is_packing(FAST, 0, default_cover_depth(FAST))
        assert outer_is_packing(WIDE, 1, 5)
        assert not outer_is_packing(WIDE, 0, 5)  # above N + k of the (4, 8) entry
        assert not outer_is_packing(((4, 4),), 2, 5)  # below N + k, above D
        assert not outer_is_packing(FAST, 0, -1)

    def test_outer_sweep_gives_delta_estimate(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 1)])
        delta = mf.packing_entropy_delta(biased, K, 0.5, k=1, schedule=WIDE)
        assert mf.packing_entropy(biased, K, 0.5, k=1, schedule=WIDE) == delta
        assert mf.packing_entropy(biased, K, 0.5, k=1, schedule=WIDE, cover_depth=5) == delta
        with pytest.raises(ValueError):
            mf.packing_entropy(biased, K, 0.5, schedule=((4, 4),), cover_depth=5)

    @pytest.mark.parametrize("name", ["biased", "gibbs3", "bernoulli_gibbs"])
    def test_refined_below_raw_above_n_plus_k(self, request, full2, name):
        # depth 5 is above N + k = 4 of the (4, 8) entry: the outer sweep runs
        model = request.getfixturevalue(name)
        K = mf.CylinderSet(full2, [(0,), (1, 0, 1)])
        assert not outer_is_packing(WIDE, 0, 5)
        for q in (-1.0, 0.0, 2.0):
            raw = mf.packing_entropy_delta(model, K, q, schedule=WIDE)
            refined = mf.packing_entropy(model, K, q, schedule=WIDE, cover_depth=5)
            assert refined.value <= raw.value + 1e-9
            assert refined.error_bar < math.inf


class TestRestrictedSets:
    def test_single_cylinder_same_exponent(self, fair, full2):
        # a cylinder pins one symbol: 2^{N-1} words at order N, so the
        # exponent at N = D = 10 is exactly (9/10) log 2, approaching log 2
        K = mf.CylinderSet(full2, [(0,)])
        est = mf.bowen_entropy(fair, K, 0.0, schedule=FAST)
        assert est.value == pytest.approx(0.9 * LOG2, abs=1e-6)

    def test_covering_below_packing_exponent(self, biased, full2):
        K = mf.CylinderSet(full2, [(0, 0), (1, 0)])
        for q in (0.0, 2.0):
            b = mf.bowen_entropy(biased, K, q, schedule=FAST)
            p = mf.packing_entropy_delta(biased, K, q, schedule=FAST)
            assert b.value <= p.value + 1e-6

    def test_refined_packing_below_raw(self, biased, full2):
        K = mf.CylinderSet(full2, [(0,), (1, 0, 1)])
        for q in (0.0, 2.0):
            raw = mf.packing_entropy_delta(biased, K, q, schedule=FAST)
            refined = mf.packing_entropy(biased, K, q, schedule=FAST)
            assert refined.value <= raw.value + 1e-9


class TestDoublingGate:
    def test_unbounded_model_rejected_for_positive_q(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        Y = mf.CylinderSet(full2, [()])
        with pytest.raises(mf.BracketError):
            mf.bowen_entropy(degenerate, Y, 2.0, schedule=FAST)

    def test_unbounded_model_fine_at_zero_q(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        Y = mf.CylinderSet(full2, [()])
        est = mf.bowen_entropy(degenerate, Y, 0.0, schedule=FAST)
        assert est.value == pytest.approx(LOG2, abs=1e-2)

    def test_mixture_uses_empirical_probe(self, fair, biased, full2):
        mx = mf.Mixture(fair, biased, 0.5)
        Y = mf.CylinderSet(full2, [()])
        est = mf.bowen_entropy(mx, Y, 2.0, schedule=FAST)
        assert math.isfinite(est.value)


class TestDegenerateFlag:
    def test_flat_value_flags_degenerate(self, full2):
        # the pre-measure of a zero-mass cylinder under q=2 is identically 0
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        K = mf.CylinderSet(full2, [(1,)])
        est = mf.packing_entropy_delta(degenerate, K, 2.0, schedule=FAST)
        assert est.value == -math.inf or est.degenerate
