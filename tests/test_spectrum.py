import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import whole_level

import mfent as mf
from mfent import spectrum

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2
FAST = ((4, 4), (8, 8), (12, 12))
QG = np.arange(-3, 3.01, 0.25)


class TestPartition:
    def test_counting(self, fair):
        assert mf.log_partition(fair, 0.0, 10) == pytest.approx(10 * LOG2)

    def test_mass_normalization(self, biased):
        assert mf.log_partition(biased, 1.0, 8) == pytest.approx(0.0, abs=1e-12)

    def test_zero_mass_blowup(self, full2):
        degenerate = mf.Bernoulli(full2, [1.0, 0.0])
        assert mf.log_partition(degenerate, -1.0, 4) == math.inf

    @pytest.mark.parametrize("N", [1, 4, 9, 16, 17, 20])
    def test_mixture_matches_type_class_sum(self, full2, N):
        # 17 and 20 are multi-block levels; q = 1 returns exactly 0
        a, b = mf.Bernoulli(full2, [0.25, 0.75]), mf.Bernoulli(full2, [0.6, 0.4])
        mixture = mf.Mixture(a, b, 0.3)
        qs = np.array([-3, -1, -0.5, 0, 0.5, 1, 1.5, 3])
        want = [type_class_log_partition(mixture, q, N) for q in qs]
        np.testing.assert_allclose(mf.log_partition(mixture, qs, N), want, rtol=1e-12, atol=1e-12)


def type_class_log_partition(mixture, q, N):
    """log Z_N(q) of a mixture of two Bernoulli measures on the full 2-shift,
    summed over type classes: a word's mass depends only on its count k of
    symbol 0, so Z_N(q) = sum_k C(N, k) (lam a_0^k a_1^(N-k)
    + (1 - lam) b_0^k b_1^(N-k))^q."""
    la, lb = np.log(mixture.a.init), np.log(mixture.b.init)
    terms = []
    for k in range(N + 1):
        lm = np.logaddexp(math.log(mixture.lam) + k * la[0] + (N - k) * la[1],
                          math.log1p(-mixture.lam) + k * lb[0] + (N - k) * lb[1])
        terms.append(math.log(math.comb(N, k)) + q * lm)
    return mf.logsumexp(np.array(terms))


def old_log_partition(model, q, length):
    """One q at a time, each pass into fresh arrays, on the level walked
    whole: the reference that the reused-buffer block loop of log_partition
    must match (bit for bit on a one-block level)."""
    arr = whole_level(model, length)
    if q == 0:
        return math.log(arr.size)
    if q == 1:
        return 0.0
    return mf.logsumexp(mf.psi_log(q, arr[~np.isneginf(arr)] if q > 0 else arr))


def old_h_values(model, q_grid, schedule):
    """h per q by one least-squares fit per q: the reference that h_curve's
    one fit over all finite columns must match bit for bit.  That holds on
    designs of up to 7 depths; from 8 on, OpenBLAS 0.3.31's multi-column
    kernel moves the last bit of about one slope in ten, and no shipped
    schedule is that long."""
    q_grid = np.unique(np.asarray(q_grid, dtype=float))
    Ns = np.asarray([N for N, _ in schedule], dtype=float)
    logZ = np.array([mf.log_partition(model, q_grid, int(N)) for N in Ns])
    h = np.empty_like(q_grid)
    for iq in range(len(q_grid)):
        if np.isinf(logZ[:, iq]).any():
            h[iq] = math.inf
        else:
            h[iq] = np.polyfit(Ns, logZ[:, iq], 1)[0]
    return h


FULL3 = np.ones((3, 3), dtype=int)
# the zero admissible transition 2 -> 2 gives zero-mass words
ZERO_STEP_P = [[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.5, 0.5, 0.0]]
EDGE_Q = np.array([-40, -2.5, -1e-3, 0, 1e-3, 1, 2.5, 40])


# The level-set formulas as they were before the shared read of a level:
# each call filters the level walked whole and works in fresh arrays.  The
# library's cached read and in-place work must match them bit for bit.
def old_finite(model, n, k):
    arr = whole_level(model, n + k)
    return arr, arr[~np.isneginf(arr)]


def old_logsumexp(a):
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    hi = float(a.max())
    if math.isinf(hi):
        return hi
    return hi + math.log(float(np.exp(a - hi).sum()))


def old_level_set_spectrum_oracle(model, n, bin_width, k=0):
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    betas = -old_finite(model, n, k)[1] / n
    with np.errstate(over="ignore"):
        idx = np.round(betas / bin_width) + 0.0
    if not np.isfinite(idx).all():
        raise OverflowError(f"bin width {bin_width} is too small: a bin index overflows")
    js, counts = np.unique(idx, return_counts=True)
    return [
        mf.LevelSetBin(beta=j * bin_width, count=c, word_length=n, entropy_estimate=math.log(c) / n)
        for j, c in zip(js.tolist(), counts.tolist())
    ]


def old_level_set_window(model, n, beta, half_width, k=0):
    arr = old_finite(model, n, k)[1]
    sel = np.abs(-arr / n - beta) <= half_width
    return int(sel.sum()), arr[sel]


def old_tangency_beta(model, q, n, k=0):
    arr, finite = old_finite(model, n, k)
    if q < 0 and finite.size != arr.size:
        raise ValueError("partition derivative undefined: zero-mass word at q < 0")
    with np.errstate(over="ignore"):
        w = mf.psi_log(q, finite)
    top = float(w.max())
    if not math.isfinite(top):
        raise mf.ConvergenceError(f"the gauge q log m overflows at q = {q}, length {n + k}")
    w = np.exp(w - top)
    return float(-(w @ finite) / (w.sum() * n))


def old_level_tangency_residual(model, q, n, k=0, half_width=0.08):
    beta = old_tangency_beta(model, q, n, k)
    count, masses = old_level_set_window(model, n, beta, half_width, k)
    if count == 0:
        raise ValueError(f"no admissible word has local entropy within {half_width} of {beta}")
    t_star = old_logsumexp(mf.psi_log(q, masses)) / n
    return beta, abs(math.log(count) / n - (q * beta + t_star))


def level_outcome(read, *args):
    """The bytes of every float a level-set call returns, or its error's type and message."""
    def bits(x):
        if isinstance(x, (list, tuple)):
            return tuple(bits(v) for v in x)
        if isinstance(x, mf.LevelSetBin):
            return bits((x.beta, x.count, x.word_length, x.entropy_estimate))
        if isinstance(x, (float, np.ndarray)):
            return type(x).__name__, np.asarray(x, dtype=float).tobytes()
        return x

    try:
        return bits(read(*args))
    except (ValueError, OverflowError, mf.ConvergenceError) as e:
        return type(e), str(e)


class TestPartitionBuffer:
    @pytest.fixture(
        params=["bernoulli", "bernoulli-one-zero", "parry", "markov-zero-step", "gibbs3",
                "mixture"]
    )
    def model(self, request, full2, parry, gibbs3, bernoulli_gibbs):
        return {
            "bernoulli": lambda: mf.Bernoulli(full2, [0.3, 0.7]),
            "bernoulli-one-zero": lambda: mf.Bernoulli(full2, [1.0, 0.0]),
            "parry": lambda: parry,
            "markov-zero-step": lambda: mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P),
            "gibbs3": lambda: gibbs3,
            "mixture": lambda: bernoulli_gibbs,
        }[request.param]()

    def test_matches_old_expression_bitwise(self, model):
        # every level here is one block: 2^16 words on the full 2-shift
        lengths = [*range(11), 16] if model.space.alphabet_size == 2 else range(11)
        for length in lengths:
            got = mf.log_partition(model, EDGE_Q, length)
            want = np.array([old_log_partition(model, q, length) for q in EDGE_Q])
            assert got.shape == EDGE_Q.shape
            assert np.array_equal(got, want), (length, got, want)
            for q, w in zip(EDGE_Q.tolist(), want.tolist()):
                one = mf.log_partition(model, q, length)
                assert type(one) is float
                assert np.array_equal(one, w), (length, q, one, w)

    def test_multi_block_level_matches_old_expression(self, model):
        # blocks mixing zero and positive masses (markov-zero-step, whose
        # 2 -> 2 step has probability 0; Bernoulli(1, 0)'s first block) and
        # blocks of zero masses only (markov-zero-step's prefix 22; every
        # other block of Bernoulli(1, 0)), walked directly: log_partition folds
        # a chain's level of this size and walks only the mixture's
        length = 12 if model.space.alphabet_size == 3 else 17
        want = np.array([old_log_partition(model, q, length) for q in EDGE_Q])
        for route in (mf.log_partition, spectrum._walked):
            np.testing.assert_allclose(route(model, EDGE_Q, length), want, rtol=1e-13, atol=0)

    def test_array_shape_kept(self, model):
        qs = EDGE_Q.reshape(2, 4)
        got = mf.log_partition(model, qs, 6)
        assert got.shape == (2, 4)
        assert np.array_equal(got.ravel(), mf.log_partition(model, EDGE_Q, 6))

    @pytest.mark.parametrize(
        "P", [np.full((3, 3), 1 / 3), ZERO_STEP_P], ids=["positive", "zero-step"]
    )
    def test_grid_peak_memory(self, P):
        """A 25-point grid walked over a 3^12 level, with a level cached,
        allocates one q-buffer, plus the zero-filtered copy of a block with zero
        masses: never the fresh arrays per q of the one-q-at-a-time expression
        (about 3x)."""
        model = mf.Markov(mf.make_shift(3, FULL3), P)
        level = whole_level(model, 12)
        mf.log_mass_array(model, 10)
        tracemalloc.start()
        try:
            spectrum._walked(model, np.linspace(-3, 3, 25), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mf.log_mass_array.cache_info().currsize == 1
        assert peak <= 2 * level.nbytes + (1 << 20), (peak, level.nbytes)

    @staticmethod
    def grid_peak(run):
        """Peak traced bytes of a 25-point grid on the 3^13 level of a
        3-symbol chain, from a cold level cache that it leaves cold."""
        model = mf.Markov(mf.make_shift(3, FULL3), np.full((3, 3), 1 / 3))
        mf.log_mass_array.cache_clear()
        tracemalloc.start()
        try:
            run(model, np.linspace(-3, 3, 25), 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mf.log_mass_array.cache_info().currsize == 0
        return peak

    def test_grid_peak_memory_bounded_by_a_block(self):
        """3^13 words stream through the walk in blocks: no level of 12.8 MB
        is held (log_partition folds this chain level instead)."""
        assert self.grid_peak(spectrum._walked) <= 4 << 20

    def test_fold_holds_no_level(self):
        # the fold holds (levels x 3 chain nodes x 3 symbols) tables, no words
        assert self.grid_peak(mf.log_partition) <= 1 << 20


def transfer_log_partition(chain, q, length):
    """log Z by transfer-matrix powers, as the benchmark's oracle sums it:
    init^q times (T^q)^(length - d), entrywise powers that keep exact zeros
    at 0, so the sum runs over positive-mass words only."""
    v, M = chain.q_power(q)
    log_scale = 0.0
    for _ in range(length - len(chain.states[0])):
        v = v @ M
        log_scale += math.log(v.sum())
        v = v / v.sum()
    return log_scale + math.log(v.sum())


class TestPartitionFold:
    """Chain levels of more than one block are read from the tree engine's fold."""

    @pytest.fixture(
        params=["bernoulli", "bernoulli-one-zero", "parry", "markov-zero-step", "gibbs3"]
    )
    def chain(self, request, full2, parry, gibbs3):
        return {
            "bernoulli": lambda: mf.Bernoulli(full2, [0.3, 0.7]),
            "bernoulli-one-zero": lambda: mf.Bernoulli(full2, [1.0, 0.0]),
            "parry": lambda: parry,
            "markov-zero-step": lambda: mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P),
            "gibbs3": lambda: gibbs3,
        }[request.param]()

    @staticmethod
    def lengths(chain):
        return range(17, 21) if chain.space.alphabet_size == 2 else range(11, 14)

    def test_matches_enumeration_and_transfer_matrix(self, chain):
        zero_masses = (chain.T[chain.adjacency] == 0).any() or (chain.init == 0).any()
        for length in self.lengths(chain):
            assert chain.space.alphabet_size**length > 1 << 16  # past one block
            got = mf.log_partition(chain, EDGE_Q, length)
            want = np.array([old_log_partition(chain, q, length) for q in EDGE_Q])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            # the transfer sum skips zero masses, which count at q <= 0; at
            # q = 1, where log Z is 0, its rounding is absolute
            checked = EDGE_Q > 0 if zero_masses else np.ones(EDGE_Q.shape, dtype=bool)
            transfer = [transfer_log_partition(chain, q, length) for q in EDGE_Q[checked]]
            np.testing.assert_allclose(got[checked], transfer, rtol=1e-13, atol=1e-12)

    def test_exact_points(self, chain):
        length = self.lengths(chain)[0]
        words = whole_level(chain, length).size
        assert mf.log_partition(chain, 0.0, length) == math.log(words)
        assert mf.log_partition(chain, 1.0, length) == 0.0

    def test_overflow_refused_before_any_sweep(self, chain, monkeypatch):
        length, swept = self.lengths(chain)[-1], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (chain.init == 1).any():
                # Bernoulli(1, 0): the one positive mass is 1, and q log 1 = 0
                got = mf.log_partition(chain, np.array([1e308, -1e308]), length)
                assert got.tolist() == [0.0, math.inf]
                return
            monkeypatch.setattr(mf.TreeEvaluator, "packing_log", lambda *a: swept.append(a))
            for q in (1e308, -1e308):
                with pytest.raises(mf.ConvergenceError, match="overflows"):
                    mf.log_partition(chain, np.array([0.5, q]), length)
        assert swept == []

    def test_h_curve_walks_only_one_block_chain_levels(self, biased, bernoulli_gibbs,
                                                       monkeypatch):
        walked, walk = [], spectrum._log_mass_blocks

        def blocks(model, length):
            walked.append((model.kind, length))
            return walk(model, length)

        monkeypatch.setattr(spectrum, "_log_mass_blocks", blocks)
        schedule = ((8, 8), (16, 16), (17, 17))
        for model in (biased, bernoulli_gibbs):
            mf.h_curve(model, QG, schedule=schedule)
        assert walked == [("bernoulli", 8), ("bernoulli", 16),
                          ("mixture", 8), ("mixture", 16), ("mixture", 17)]


class TestHCurve:
    def test_fair_coin_closed_form(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        expect = (1 - curve.q_grid) * LOG2
        np.testing.assert_allclose(curve.h_values, expect, atol=2e-2)
        assert curve.convexity_certificate

    def test_slope_near_the_float_maximum(self, full2):
        # log Z_4 and log Z_6 are 1.16e308 and 1.73e308 at q = -2.4e307, and h
        # is q log 0.3 = 2.89e307; the fit wrote inf when its scaled slope overflowed
        model = mf.Bernoulli(full2, [0.3, 0.7])
        curve = mf.h_curve(model, [-2.4e307, 0.0, 1.0], schedule=((4, 4), (6, 6)))
        assert curve.h_values[0] == pytest.approx(-2.4e307 * math.log(0.3), rel=1e-12)

    def test_biased_exact_points(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        h = dict(zip(curve.q_grid.tolist(), curve.h_values.tolist()))
        assert h[0.0] == pytest.approx(LOG2, abs=1e-10)
        assert h[1.0] == pytest.approx(0.0, abs=1e-10)
        assert h[2.0] == pytest.approx(math.log(0.25**2 + 0.75**2), abs=1e-10)

    def test_convexity_certified(self, biased, parry):
        for model in (biased, parry):
            assert mf.h_curve(model, QG, schedule=FAST).convexity_certificate

    def test_duplicate_grid_points_collapsed(self, fair):
        curve = mf.h_curve(fair, [0.0, 1.0, 1.0, 2.0], schedule=FAST)
        assert len(curve.q_grid) == 3

    @pytest.mark.parametrize("fixture", ["biased", "parry", "gibbs3", "bernoulli_gibbs"])
    def test_batched_fit_matches_per_q_fits(self, fixture, request):
        model = request.getfixturevalue(fixture)
        curve = mf.h_curve(model, QG, schedule=FAST)
        assert curve.h_values.tobytes() == old_h_values(model, QG, FAST).tobytes()

    @pytest.mark.parametrize("grid", [QG, [-3.0, -1.5, -0.25]], ids=["mixed", "all-infinite"])
    def test_batched_fit_matches_per_q_fits_at_infinite_columns(self, grid):
        # the zero-mass step makes log Z_N(q) +inf at every q < 0
        chain = mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P)
        schedule = ((3, 3), (5, 5), (7, 7))
        h = mf.h_curve(chain, grid, schedule=schedule).h_values
        q = np.unique(grid)
        assert (h[q < 0] == math.inf).all() and np.isfinite(h[q >= 0]).all()
        assert h.tobytes() == old_h_values(chain, grid, schedule).tobytes()

    def test_grid_values_as_np_unique_gives_them(self):
        # signed zeros and NaNs too, though no config grid holds a NaN
        rng = np.random.default_rng(29)
        grids = [[], [np.nan, 1.0, np.nan, -np.inf], [0.0, -0.0, 0.0], [-0.0, 0.0, 2.0, -0.0]]
        for _ in range(200):
            pool = np.array([-0.0, 0.0, -1.5, 2.25, 1e-300, np.nan, np.inf])
            grids.append(rng.choice(pool, size=int(rng.integers(1, 40))))
        for grid in grids:
            got = spectrum.sorted_grid(grid)
            assert got.tobytes() == np.unique(np.asarray(grid, dtype=float)).tobytes(), grid

    def test_reducible_space_rejected(self):
        sp = mf.make_shift(2, [[1, 1], [0, 1]])
        mk = mf.Markov(sp, [[0.5, 0.5], [0.0, 1.0]], pi=[0.0, 1.0])
        with pytest.raises(ValueError):
            mf.h_curve(mk, QG, schedule=FAST)

    @pytest.mark.parametrize("schedule", [[], [(4, 4)], [(4, 4), (4, 8)]])
    def test_slope_needs_two_distinct_N(self, biased, schedule):
        # one distinct N leaves a least-squares slope undetermined
        with pytest.raises(ValueError, match="at least 2 distinct N"):
            mf.h_curve(biased, QG, schedule=schedule)

    def test_interpolation(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        h = np.interp(0.125, curve.q_grid, curve.h_values)
        assert h == pytest.approx((1 - 0.125) * LOG2, abs=2e-2)

    def test_each_word_length_walked_once(self, biased, monkeypatch):
        # depths are the outer loop: one walk per schedule length, whole grid
        # at once, streamed in blocks past the level cache
        walked, walk = [], spectrum._log_mass_blocks

        def blocks(model, length):
            walked.append(length)
            return walk(model, length)

        monkeypatch.setattr(spectrum, "_log_mass_blocks", blocks)
        mf.log_mass_array.cache_clear()
        mf.h_curve(biased, QG, schedule=FAST)
        assert walked == [N for N, _ in FAST]
        assert mf.log_mass_array.cache_info().currsize == 0

    def test_deepest_level_refused_before_any(self, fair, monkeypatch):
        # 2^25 words at N = 25; the level at N = 4 would be built first
        mf.log_mass_array.cache_clear()
        monkeypatch.setattr(mf.Bernoulli, "extend", None)
        with pytest.raises(mf.TooLargeError):
            mf.h_curve(fair, QG, schedule=((4, 4), (25, 25)))


class TestLegendre:
    def test_fair_coin_spectrum_is_a_point(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        h_star, in_domain = mf.legendre(curve, [LOG2])
        assert in_domain[0]
        assert h_star[0] == pytest.approx(LOG2, abs=2e-2)

    def test_out_of_domain_is_minus_inf(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        h_star, in_domain = mf.legendre(curve, [-1.0, 10.0])
        assert not in_domain.any()
        assert (h_star == -math.inf).all()

    def test_entropy_fixed_point(self, biased):
        # at beta = sum -p log p the conjugate touches the diagonal
        curve = mf.h_curve(biased, QG, schedule=FAST)
        beta = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        h_star, in_domain = mf.legendre(curve, [beta])
        assert in_domain[0]
        assert h_star[0] == pytest.approx(beta, abs=1e-6)

    def test_concavity(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        betas = np.linspace(0.3, 1.3, 21)
        h_star, in_domain = mf.legendre(curve, betas)
        vals = h_star[in_domain]
        d2 = np.diff(np.diff(vals))
        assert (d2 <= 1e-9).all()

    def test_never_exceeds_counting_entropy(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        betas = np.linspace(0.2, 1.5, 30)
        h_star, _ = mf.legendre(curve, betas)
        assert (h_star <= LOG2 + 2e-2).all()


class TestEndpoints:
    def test_biased_interval(self, biased):
        grid = np.concatenate([np.arange(-40, -3.0, 1.0), QG, np.arange(4, 40.1, 1.0)])
        curve = mf.h_curve(biased, grid, schedule=FAST)
        ep = mf.domain_endpoints(curve)
        assert ep.lower_extrapolated == pytest.approx(math.log(4 / 3), abs=1e-6)
        assert ep.upper_extrapolated == pytest.approx(math.log(4), abs=1e-6)
        assert ep.lower <= ep.upper

    def test_short_grid_rejected(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        with pytest.raises(ValueError):
            mf.domain_endpoints(curve)

    def test_one_point_tail_rejected(self):
        # one finite q > 0, far enough out: the tail has nothing to extrapolate
        curve = mf.SpectrumCurve(np.array([-20.0, -10.0, 0.0, 10.0]),
                                 np.array([20.0, 10.0, 0.7, -5.0]), False)
        with pytest.raises(ValueError, match="a tail needs 2 finite points"):
            mf.domain_endpoints(curve)


Q0 = list(QG).index(0.0)  # the index of q = 0 in QG


class TestDerivatives:
    def test_fair_coin_constant_slope(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        lo, hi = mf.one_sided_derivatives(curve)
        assert lo[Q0] == pytest.approx(-LOG2, abs=1e-6)
        assert hi[Q0] == pytest.approx(-LOG2, abs=1e-6)

    def test_slopes_ordered_by_convexity(self, biased):
        curve = mf.h_curve(biased, QG, schedule=FAST)
        lo, hi = mf.one_sided_derivatives(curve)
        assert lo[Q0] <= hi[Q0] + 1e-9

    def test_boundary_is_nan(self, fair):
        curve = mf.h_curve(fair, QG, schedule=FAST)
        for side in mf.one_sided_derivatives(curve):
            assert np.isnan(side[[0, -1]]).all()
            assert np.isfinite(side[1:-1]).all()


class TestLevelSets:
    def test_fair_coin_single_bin(self, fair):
        bins = mf.level_set_spectrum_oracle(fair, 12, 0.05)
        assert len(bins) == 1
        assert bins[0].beta == pytest.approx(LOG2, abs=0.025)
        assert bins[0].entropy_estimate == pytest.approx(LOG2, abs=1e-12)

    def test_biased_bin_structure(self, biased):
        bins = mf.level_set_spectrum_oracle(biased, 14, 0.05)
        total = sum(b.count for b in bins)
        assert total == 2**14
        betas = [b.beta for b in bins]
        assert min(betas) >= -math.log(0.75) / 1.0 - 0.05
        assert max(betas) <= -math.log(0.25) - 0.05 + 0.1

    def test_window_count(self, biased):
        count, masses = mf.level_set_window(biased, 14, LOG2, 0.08)
        assert count > 0
        assert (np.abs(-masses / 14 - LOG2) <= 0.08).all()

    def test_tangency_at_zero_is_mean_level(self, biased):
        # q = 0 weights all words equally: mean of -log mass / n
        arr = mf.log_mass_array(biased, 14)
        assert mf.tangency_beta(biased, 0.0, 14) == pytest.approx(
            float(-arr.mean() / 14), abs=1e-12
        )

    def test_tangency_at_one_is_measure_entropy(self, biased):
        expect = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert mf.tangency_beta(biased, 1.0, 14) == pytest.approx(expect, abs=1e-12)

    def test_residual_small_for_moderate_q(self, biased):
        for q in (0.0, 1.0):
            assert mf.level_tangency_residual(biased, q, 14)[1] < 2e-2

    def test_oracle_refuses_huge_enumerations(self, fair):
        with pytest.raises(mf.TooLargeError):
            mf.level_set_spectrum_oracle(fair, 40, 0.05)

    def test_oracle_refuses_huge_length_at_once(self, fair):
        with pytest.raises(mf.TooLargeError):
            mf.level_set_spectrum_oracle(fair, 10**308, 0.05)

    @pytest.mark.parametrize("read", [
        lambda m: mf.level_set_spectrum_oracle(m, 16, 0.05, 1),
        lambda m: mf.level_set_window(m, 16, 0.5, 0.08, 1),
        lambda m: mf.tangency_beta(m, 1.0, 16, 1),
        lambda m: mf.level_tangency_residual(m, 1.0, 16, 1),
    ], ids=["oracle", "window", "tangency", "residual"])
    def test_family_refuses_more_than_one_block_before_any_work(self, fair, monkeypatch, read):
        # n + k = 17: 2^17 words, one length past the held block of 2^16
        mf.log_mass_array.cache_clear()
        monkeypatch.setattr(mf.Bernoulli, "extend", None)
        with pytest.raises(mf.TooLargeError, match="more than 65536 words"):
            read(fair)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, k, message", [
        (0, 0, "word length n must be >= 1"),
        (-2, 3, "word length n must be >= 1"),
        (16, -1, "depth offset k must be >= 0"),
    ])
    @pytest.mark.parametrize("read", [
        lambda m, n, k: mf.level_set_spectrum_oracle(m, n, 0.05, k),
        lambda m, n, k: mf.level_set_window(m, n, 0.5, 0.08, k),
        lambda m, n, k: mf.tangency_beta(m, 1.0, n, k),
        lambda m, n, k: mf.level_tangency_residual(m, 1.0, n, k),
    ], ids=["oracle", "window", "tangency", "residual"])
    def test_family_refuses_bad_n_and_k_before_any_work(self, full2, monkeypatch, read, n, k,
                                                        message):
        # a level of length n + k >= 0 exists for each, so only the check refuses it
        def no_level(*args):
            raise AssertionError("a level was read")

        monkeypatch.setattr(spectrum, "log_mass_array", no_level)
        with pytest.raises(ValueError, match=message):
            read(mf.Bernoulli(full2, [0.3, 0.7]), n, k)


class TestLevelSetBits:
    @pytest.fixture
    def models(self, full2, gibbs3):
        """Bernoulli, a chain with zero-mass words, a seeded Gibbs and a
        Bernoulli/Gibbs mixture, with whether some word has zero mass."""
        rng = np.random.default_rng(31)
        gibbs = mf.Gibbs(mf.Potential(full2, 3, dict(zip(full2.words_of_length(3),
                                                         rng.normal(0.0, 1.0, 8)))))
        bernoulli = mf.Bernoulli(full2, [0.3, 0.7])
        return [
            (bernoulli, False),
            (mf.Markov(mf.make_shift(3, FULL3), ZERO_STEP_P), True),
            (gibbs, False),
            (mf.Mixture(bernoulli, gibbs3, 0.35), False),
        ]

    def test_every_call_matches_the_old_formulas(self, models):
        # the cells run in a shuffled order, so that calls on one model at
        # another n or k, and on another model at the same n and k, follow
        # each other: a stale cached read or a reused scratch array would show
        cells = [(model, n, k, q) for model, zero_mass in models for n in (5, 8) for k in (0, 1)
                 for q in (-2.0, 0.0, 1.0, 2.5) if not (q < 0 and zero_mass)]
        assert len(cells) == (3 + 3 * 4) * 2 * 2
        for i in np.random.default_rng(5).permutation(len(cells)):
            model, n, k, q = cells[i]
            for new, old, args in [
                (mf.level_set_spectrum_oracle, old_level_set_spectrum_oracle, (model, n, 0.05, k)),
                (mf.level_set_window, old_level_set_window, (model, n, 0.4 + 0.1 * q, 0.08, k)),
                (mf.tangency_beta, old_tangency_beta, (model, q, n, k)),
                (mf.level_tangency_residual, old_level_tangency_residual, (model, q, n, k, 0.3)),
            ]:
                got = level_outcome(new, *args)
                assert not isinstance(got[0], type), (new.__name__, n, k, q, got)
                assert got == level_outcome(old, *args), (new.__name__, n, k, q)
            finite, _, _, betas = spectrum.level_set_read(model, n, k)
            assert not (finite.flags.writeable or betas.flags.writeable)

    def test_every_error_matches_the_old_formulas(self, models):
        (bernoulli, _), (chain, _), _, (mixture, _) = models
        cases = [
            # zero mass at q < 0
            (mf.tangency_beta, old_tangency_beta, (chain, -2.0, 6, 1)),
            (mf.level_tangency_residual, old_level_tangency_residual, (chain, -0.5, 6)),
            # the gauge q log m overflows
            (mf.tangency_beta, old_tangency_beta, (bernoulli, 1e308, 8)),
            (mf.level_tangency_residual, old_level_tangency_residual, (mixture, 1e308, 6, 1)),
            (mf.level_tangency_residual, old_level_tangency_residual, (bernoulli, -1e308, 6)),
            # a bin index overflows
            (mf.level_set_spectrum_oracle, old_level_set_spectrum_oracle, (chain, 6, 1e-310)),
            (mf.level_set_spectrum_oracle, old_level_set_spectrum_oracle, (bernoulli, 8, 5e-324, 1)),
            # no word in the tangency window
            (mf.level_tangency_residual, old_level_tangency_residual, (bernoulli, 1.0, 8, 0, 1e-9)),
            (mf.level_tangency_residual, old_level_tangency_residual, (chain, 0.5, 5, 1, 1e-12)),
        ]
        for new, old, args in cases:
            got = level_outcome(new, *args)
            assert isinstance(got[0], type), (new.__name__, args, got)
            assert got == level_outcome(old, *args), (new.__name__, args)
            # the same call again, from a warm cache
            assert level_outcome(new, *args) == got
