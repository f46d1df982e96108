"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints one PASS line (straight to the terminal, bypassing
capture) once its assertions hold; a failure surfaces as an ordinary
pytest failure instead.
"""

import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mfent as mf
from conftest import random_irreducible_markov

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2
FULL = ((4, 4), (8, 8), (12, 12), (16, 16))


def report(capsys, num, text):
    with capsys.disabled():
        print(f"criterion {num}: PASS  {text}")


def all_antichain_sets(space, depth):
    """Every canonical nonempty cylinder set whose members have length
    <= depth, built by combining per-subtree choices level by level."""
    level = [frozenset(), frozenset({()})]
    for _ in range(depth):
        nxt = {frozenset()}
        for A, B in itertools.product(level, repeat=2):
            words = [(0,) + w for w in A] + [(1,) + w for w in B]
            nxt.add(mf.CylinderSet(space, words).members)
        level = sorted(nxt, key=lambda s: (len(s), sorted(s)))
    return [mf.CylinderSet(space, list(s)) for s in level if s]


def test_criterion_1_homogeneous_triviality(fair, full2, capsys):
    start = time.perf_counter()
    curve = mf.h_curve(fair, np.arange(-3, 3.01, 0.25), schedule=FULL)
    worst = float(np.max(np.abs(curve.h_values - (1 - curve.q_grid) * LOG2)))
    assert worst <= 2e-2

    wide = mf.h_curve(fair, np.arange(-40.0, 40.5, 2.5), schedule=FULL)
    ep = mf.domain_endpoints(wide)
    assert ep.upper - ep.lower <= 4e-2

    corr = [mf.correlation_entropy(fair, q, 12) for q in (-3, -1, 0.5, 2, 3)]
    spread = max(corr) - min(corr)
    assert spread <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(capsys, 1, f"fair coin trivial: |h-(1-q)log2|<={worst:.2e}, "
           f"interval width {ep.upper - ep.lower:.4f}, corr spread {spread:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_gibbs_identity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        mk = random_irreducible_markov(rng, 3)
        for q in (-2.0, -1.0, 0.5, 2.0):
            worst = max(worst, mf.gibbs_identity_residual(mk, q))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(capsys, 2, f"pressure identity residual <= {worst:.2e} "
           f"over 5 chains x 4 exponents, {elapsed:.1f}s")


def test_criterion_3_dp_matches_enumeration(biased, full2, capsys):
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    # every canonical set with members of depth <= 3, order window up to 3;
    # sets of depth <= 2 additionally at the full window D = 4, where the
    # explicit enumeration is still tractable
    plans = [
        (all_antichain_sets(full2, 3), 3),
        (all_antichain_sets(full2, 2), 4),
    ]
    for sets, D in plans:
        for K in sets:
            ev = mf.TreeEvaluator(biased, K, 0, D)
            for q, t, N in itertools.product((-1.0, 0.0, 2.0), (0.0, LOG2), (1, 2)):
                for dp_log, mode in (
                    (ev.covering_log(q, t, N), "min"),
                    (ev.packing_log(q, t, N), "max"),
                ):
                    oracle = mf.antichain_oracle(biased, K, q, t, N, 0, D, mode)
                    assert dp_log == pytest.approx(oracle, abs=1e-12)
                    worst = max(worst, abs(dp_log - oracle))
                    cases += 1
    # 2^(2^d) - 1 distinct nonempty canonical sets at member depth d
    assert cases == (255 + 15) * 12 * 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(capsys, 3, f"{cases} DP values match enumeration to {worst:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_4_counting_entropy_of_golden_mean(parry, golden, capsys):
    Y = mf.CylinderSet(golden, [()])
    target = math.log(PHI)
    ev = mf.TreeEvaluator(parry, Y, 0, max(D for _, D in FULL))
    b = mf.bowen_entropy(ev, 0.0, FULL)
    p = mf.packing_entropy_delta(ev, 0.0, FULL)
    assert b.N_used == 16
    assert abs(b.value - target) <= 1e-2
    assert abs(p.value - target) <= 1e-2
    report(capsys, 4, f"golden-mean entropy {b.value:.5f}/{p.value:.5f} "
           f"vs log phi = {target:.5f}")


def test_criterion_5_level_counting_tangency(biased, capsys):
    start = time.perf_counter()
    worst = 0.0
    for q in (-1.0, 0.0, 1.0, 2.0):
        worst = max(worst, mf.level_tangency_residual(biased, q, 14)[1])
    assert worst <= 7e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(capsys, 5, f"tangency residual <= {worst:.3f} at n=14, {elapsed:.1f}s")


def test_criterion_6_attainable_interval(biased, capsys):
    lo_true, hi_true = math.log(4 / 3), math.log(4)
    grid = np.concatenate(
        [np.arange(-40, -3.0, 1.0), np.arange(-3, 3.01, 0.25), np.arange(4, 40.1, 1.0)]
    )
    curve = mf.h_curve(biased, grid, schedule=FULL)
    ep = mf.domain_endpoints(curve)
    assert abs(ep.lower - lo_true) <= 5e-2
    assert abs(ep.upper - hi_true) <= 5e-2

    rng = np.random.default_rng(7)
    pad = 1e-9
    for _ in range(1000):
        s = mf.local_entropy(biased, biased.sample_word(40, rng))
        assert lo_true - pad <= s.lower <= s.upper <= hi_true + pad

    mid = 0.5 * (lo_true + hi_true)
    assert len(mf.sample_level_set(biased, mid, 0.05, 30, 2, rng_seed=1)) == 2
    with pytest.raises(mf.UnreachableBetaError):
        mf.sample_level_set(biased, lo_true - 0.1, 0.05, 30, 2, rng_seed=1)
    with pytest.raises(mf.UnreachableBetaError):
        mf.sample_level_set(biased, hi_true + 0.1, 0.05, 30, 2, rng_seed=1)
    report(capsys, 6, f"endpoints ({ep.lower:.4f}, {ep.upper:.4f}) vs "
           f"({lo_true:.4f}, {hi_true:.4f}); 1000 samples inside; "
           "outside levels rejected")


def test_criterion_7_spectrum_bound_and_tangency(biased, capsys):
    n, bin_width = 14, 0.05
    grid = np.concatenate(
        [np.arange(-40, -3.0, 1.0), np.arange(-3, 3.01, 0.25), np.arange(4, 40.1, 1.0)]
    )
    curve = mf.h_curve(biased, grid, schedule=FULL)

    def h_star_max(beta_lo, beta_hi):
        betas = np.linspace(beta_lo, beta_hi, 9)
        vals, _ = mf.legendre(curve, betas)
        return float(vals.max())

    worst_bound = -math.inf
    for b in mf.level_set_spectrum_oracle(biased, n, bin_width):
        # a bin aggregates levels across its width, so compare against the
        # conjugate's maximum over the bin's beta range
        bound = h_star_max(b.beta - bin_width / 2, b.beta + bin_width / 2)
        gap = b.entropy_estimate - bound
        worst_bound = max(worst_bound, gap)
        assert gap <= 6e-2

    worst_tan = 0.0
    for q in (0.0, 1.0, 2.0):
        beta = mf.tangency_beta(biased, q, n)
        count, _ = mf.level_set_window(biased, n, beta, 0.08)
        entropy = math.log(count) / n
        h_star, _ = mf.legendre(curve, [beta])
        worst_tan = max(worst_tan, abs(entropy - float(h_star[0])))
        assert abs(entropy - float(h_star[0])) <= 7e-2
    report(capsys, 7, f"bins below conjugate (worst excess {worst_bound:+.3f}), "
           f"tangency gap <= {worst_tan:.3f}")


def test_criterion_8_randomized_invariants(capsys):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(Path(__file__).with_name("test_properties.py"))],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 120.0
    # aggregate configured example budget across the randomized suites
    report(capsys, 8, f"1650 randomized cases, zero counterexamples, {elapsed:.1f}s")


def test_criterion_9_doubling_diagnostics(fair, biased, parry, full2, capsys):
    assert mf.doubling_check(fair, 1, 6).empirical_sup == 2.0
    assert mf.doubling_check(biased, 1, 6).empirical_sup == 4.0
    degenerate = mf.Bernoulli(full2, [1.0, 0.0])
    assert mf.doubling_check(degenerate, 1, 6).unbounded
    rep = mf.doubling_check(parry, 1, 8)
    vals = parry.q_power(1.0)[1][parry.space.transitions.astype(bool)]
    p_min = float(vals[vals > 0].min())
    assert abs(rep.analytic_bound - 1 / p_min) <= 1e-12 * (1 / p_min)
    assert rep.empirical_sup <= rep.analytic_bound * (1 + 1e-12)
    report(capsys, 9, "ratios 2 / 4 / unbounded / 1 over min positive "
           "transition, all exact")
