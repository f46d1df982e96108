"""Randomized invariant suites.

Aggregate example counts across these suites exceed 1000 runs; each case
is small (depth <= 4 cylinder trees on the full 2-shift) so the whole
module stays fast.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfent as mf
from conftest import union

FULL2 = mf.make_shift(2, [[1, 1], [1, 1]])
FAST = ((4, 4), (6, 6), (8, 8))

words = st.lists(st.integers(0, 1), min_size=0, max_size=4).map(tuple)
nonempty_word_sets = st.lists(words, min_size=1, max_size=4)
qs = st.floats(-2.0, 2.0)
ts = st.floats(-1.0, 1.0)
probs = st.floats(0.05, 0.95)


def bern(a: float) -> mf.Bernoulli:
    return mf.Bernoulli(FULL2, [a, 1.0 - a])


def cover(model, K, q, t, N, D=4):
    return mf.TreeEvaluator(model, K, 0, D).covering_log(q, t, N)


class TestGaugeIdentities:
    @settings(max_examples=150, deadline=None)
    @given(
        s=st.floats(-3.0, 3.0),
        x=st.floats(1e-6, 10.0),
        y=st.floats(1e-6, 10.0),
    )
    def test_multiplicative(self, s, x, y):
        a, b = math.log(x), math.log(y)
        lhs = mf.psi_log(s, a + b)
        rhs = mf.psi_log(s, a) + mf.psi_log(s, b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(-3.0, 3.0), x=st.floats(1e-6, 10.0))
    def test_log_domain_consistent(self, s, x):
        assert mf.psi_log(s, math.log(x)) == pytest.approx(math.log(x**s), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(0.0, 10.0))
    def test_zero_exponent_constant(self, x):
        assert mf.psi_log(0.0, math.log(x) if x > 0 else -math.inf) == 0.0


class TestPremeasureOrder:
    @settings(max_examples=150, deadline=None)
    @given(ws=nonempty_word_sets, q=qs, t=ts, N=st.integers(1, 3), a=probs)
    def test_covering_at_most_packing(self, ws, q, t, N, a):
        model = bern(a)
        K = mf.CylinderSet(FULL2, ws)
        ev = mf.TreeEvaluator(model, K, 0, 4)
        assert ev.covering_log(q, t, N) <= ev.packing_log(q, t, N) + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(ws=nonempty_word_sets, extra=words, q=qs, t=ts, N=st.integers(1, 3), a=probs)
    def test_monotone_in_set(self, ws, extra, q, t, N, a):
        model = bern(a)
        K = mf.CylinderSet(FULL2, ws)
        L = union(K, mf.CylinderSet(FULL2, [extra]))
        small = cover(model, K, q, t, N)
        big = cover(model, L, q, t, N)
        assert small <= big + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(ws=nonempty_word_sets, q=qs, N=st.integers(1, 3), a=probs,
           t=ts, dt=st.floats(0.0, 1.0))
    def test_nonincreasing_in_t(self, ws, q, N, a, t, dt):
        model = bern(a)
        K = mf.CylinderSet(FULL2, ws)
        lo = cover(model, K, q, t + dt, N)
        hi = cover(model, K, q, t, N)
        assert lo <= hi + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(ws=nonempty_word_sets, q=qs, t=ts, a=probs, N=st.integers(1, 3))
    def test_covering_monotone_in_N(self, ws, q, t, a, N):
        # raising the minimum order shrinks the family of covers
        model = bern(a)
        K = mf.CylinderSet(FULL2, ws)
        ev = mf.TreeEvaluator(model, K, 0, 5)
        assert ev.covering_log(q, t, N) <= ev.covering_log(q, t, N + 1) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(wsa=nonempty_word_sets, wsb=nonempty_word_sets, q=qs, t=ts, a=probs)
    def test_outer_subadditive(self, wsa, wsb, q, t, a):
        model = bern(a)
        A = mf.CylinderSet(FULL2, wsa)
        B = mf.CylinderSet(FULL2, wsb)
        u, ua, ub = (
            mf.TreeEvaluator(model, S, 0, 4).outer_log(q, t, 1, 3) for S in (union(A, B), A, B)
        )
        assert u <= np.logaddexp(ua, ub) + 1e-9


class TestCurveShape:
    @settings(max_examples=40, deadline=None)
    @given(a=probs)
    def test_h_convex(self, a):
        curve = mf.h_curve(bern(a), np.arange(-2, 2.01, 0.5), schedule=FAST)
        slopes = np.diff(curve.h_values) / np.diff(curve.q_grid)
        assert (np.diff(slopes) >= -1e-9).all()

    @settings(max_examples=40, deadline=None)
    @given(a=probs)
    def test_conjugate_concave(self, a):
        curve = mf.h_curve(bern(a), np.arange(-3, 3.01, 0.5), schedule=FAST)
        betas = np.linspace(0.15, 2.5, 25)
        h_star, in_domain = mf.legendre(curve, betas)
        vals = h_star[in_domain]
        if len(vals) >= 3:
            slopes = np.diff(vals)
            assert (np.diff(slopes) <= 1e-9).all()

    @settings(max_examples=30, deadline=None)
    @given(a=probs, q=st.floats(-1.5, 1.5))
    def test_conjugate_below_tangent(self, a, q):
        # h*(beta) <= q beta + h(q) for every grid q: Fenchel's inequality
        curve = mf.h_curve(bern(a), np.arange(-2, 2.01, 0.5), schedule=FAST)
        betas = np.linspace(0.2, 2.0, 15)
        h_star, _ = mf.legendre(curve, betas)
        bound = q * betas + curve.value(q)
        assert (h_star <= bound + 1e-9).all()


class TestFiltrationNesting:
    @settings(max_examples=100, deadline=None)
    @given(
        a=probs,
        seed=st.integers(0, 10_000),
        beta=st.floats(0.2, 2.0),
        delta=st.floats(0.01, 0.5),
        widen=st.floats(0.0, 0.5),
    )
    def test_delta_monotone(self, a, seed, beta, delta, widen):
        model = bern(a)
        w = model.sample_word(16, np.random.default_rng(seed))
        if mf.filtration_member(model, w, beta, delta, M=1, N=3):
            assert mf.filtration_member(model, w, beta, delta + widen, M=1, N=3)

    @settings(max_examples=100, deadline=None)
    @given(a=probs, seed=st.integers(0, 10_000), beta=st.floats(0.2, 2.0))
    def test_start_index_monotone(self, a, seed, beta):
        model = bern(a)
        w = model.sample_word(16, np.random.default_rng(seed))
        if mf.filtration_member(model, w, beta, 0.3, M=1, N=3):
            assert mf.filtration_member(model, w, beta, 0.3, M=1, N=5)


class TestSemicontinuityProbes:
    """Directional checks: shrinking a perturbation of the input shrinks
    the perturbation of the covering value."""

    @settings(max_examples=60, deadline=None)
    @given(ws=nonempty_word_sets, q=qs, t=ts, a=probs, depth=st.integers(2, 4))
    def test_set_perturbation_vanishes_with_depth(self, ws, q, t, a, depth):
        # K_m = K plus one cylinder of depth m: the value increment is
        # bounded by the small set's own value, which shrinks as m grows
        model = bern(a)
        K = mf.CylinderSet(FULL2, ws)
        extra = mf.CylinderSet(FULL2, [(0,) * depth])
        base = cover(model, K, q, t, 1)
        bumped = cover(model, union(K, extra), q, t, 1)
        bump_cost = cover(model, extra, q, t, 1)
        assert bumped <= np.logaddexp(base, bump_cost) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(ws=nonempty_word_sets, q=st.floats(0.0, 2.0), t=ts, a=probs,
           lam=st.floats(1e-9, 1e-4))
    def test_measure_perturbation_small(self, ws, q, t, a, lam):
        # tiny mixture weight barely moves the value (weak-* convergence probe)
        model = bern(a)
        other = bern(1.0 - a)
        mixed = mf.Mixture(other, model, lam)
        K = mf.CylinderSet(FULL2, ws)
        v0 = cover(model, K, q, t, 1)
        v1 = cover(mixed, K, q, t, 1)
        # each log mass moves by at most log(1 + lam * worst ratio)
        ratio = max(
            float(np.max(mf.log_mass_array(other, n) - mf.log_mass_array(model, n)))
            for n in range(1, 5)
        )
        slack = abs(q) * math.log1p(lam * math.exp(max(ratio, 0.0)))
        assert abs(v1 - v0) <= slack + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(ws=nonempty_word_sets, q=qs, t=ts, a=probs)
    def test_gauge_exponent_continuity(self, ws, q, t, a):
        model = bern(a)
        K = mf.CylinderSet(FULL2, ws)
        v0 = cover(model, K, q, t, 1)
        v1 = cover(model, K, q + 1e-9, t, 1)
        assert v1 == pytest.approx(v0, abs=1e-6)


class TestSampleLevelSetProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.1, 0.45), beta_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 1000))
    def test_samples_hit_window(self, a, beta_frac, seed):
        model = bern(a)
        lo = -math.log(max(a, 1 - a))
        hi = -math.log(min(a, 1 - a))
        beta = lo + beta_frac * (hi - lo)
        tol = (hi - lo) / 10 + 1e-6
        ws = mf.sample_level_set(model, beta, tol, 20, 3, rng_seed=seed)
        for w in ws:
            assert abs(-model.log_mass(w) / 20 - beta) <= tol
