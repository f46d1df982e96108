"""The gauge-exponent entropy curve h(q), its Legendre transform, and
level-set spectrum oracles built from exhaustive word enumeration.

h(q) is estimated as the growth rate in N of log Z_N(q), where Z_N is
the gauge-weighted partition sum over admissible length-(N+k) words; the
slope regression over a schedule of depths removes additive transients.
``log_partition`` sums a chain's level of more than one block (2^16 words)
in the tree engine, enumerating no word, and streams any other level in
blocks of at most 2^16 words.  The four level-set functions instead share
one cached read of a held level, at most one block, from ``log_mass_array``:
its finite log masses, zero-mass flag and betas, taken once per (model, n, k).
Each call does its q-dependent work in place in one level-sized scratch array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BracketError
from .measures import _BLOCK_WORDS, Chain, MeasureModel, _at_least, _log_mass_blocks
from .measures import _logsumexp_in_place, _refuse_long_words, log_mass_array
from .premeasure import TreeEvaluator, _check_range, psi_log
from .solver import DEFAULT_SCHEDULE
from .space import CylinderSet

_CONVEXITY_SLACK = 2e-2  # second differences of a schedule-regressed curve
_MIN_ABS_Q = 10.0  # the grid reach both tails need for stable endpoints


def log_partition(model: MeasureModel, q, length: int):
    """log sum over admissible length-``length`` words of psi_q(mass), for a
    scalar q (a float back) or an array of q (an array of its shape back).

    A ``Chain`` level of more than one block (alphabet_size^length past
    ``_BLOCK_WORDS``) is the tree engine's fold over the whole space at
    N = D = length and t = 0; any other level streams through ``_walked``.
    q = 0 gives the log of the word count, zero masses included (on the tree
    route the summed int64 (length - 1)-th power of ``space.transitions``);
    q = 1 gives 0; q < 0 gives +inf once any mass is zero, and q > 0 gives
    -inf only if every mass is zero.  Refuses a negative length and a level
    past 2^24 words before any work, and any q failing ``_check_range`` first.
    """
    qs = np.asarray(q, dtype=float)
    _at_least(length, 0, "word length")
    _refuse_long_words(model.space, length)
    if isinstance(model, Chain) and model.space.alphabet_size**length > _BLOCK_WORDS:
        tree = TreeEvaluator(model, CylinderSet(model.space, [()]), 0, length)
        for qi in qs.flat:
            _check_range(float(qi), tree.least, length)
        paths = np.linalg.matrix_power(model.space.transitions.astype(np.int64), length - 1)
        out = _ends(qs, int(paths.sum()), lambda i, qi: tree.packing_log(qi, 0.0, length))
    else:
        out = _walked(model, qs, length)
    return float(out) if out.ndim == 0 else out


def _ends(qs: np.ndarray, words: int, log_sum) -> np.ndarray:
    """log Z per q: log words at q = 0, 0 at q = 1, else ``log_sum(index, q)``."""
    out = np.empty(qs.shape)
    for i, qi in np.ndenumerate(qs):
        out[i] = math.log(words) if qi == 0 else 0.0 if qi == 1 else log_sum(i, float(qi))
    return out


def _walked(model: MeasureModel, qs: np.ndarray, length: int) -> np.ndarray:
    """log Z per q from the blocks of ``_log_mass_blocks``, each loaded once
    with its min, max and (if it has zero masses) zero-filtered copy; each q
    passes ``_check_range`` at its smallest positive mass.  Every q but 0 and 1
    sums a block in one reused buffer against its largest term, q*max (q > 0)
    or q*min (q < 0), and the blocks' sums join in an online log-sum-exp.  On
    a one-block level this is bit for bit ``logsumexp(psi_log(q, masses))``:
    rounding is monotone, so the largest term is the same, and the sum runs
    over the same contiguous array in the same pairwise order."""
    top = np.full(qs.shape, -math.inf)  # the largest term so far, per q
    total = np.zeros(qs.shape)  # the sum so far of exp(term - top)
    words, buf = 0, np.empty(0)
    for block in _log_mass_blocks(model, length):
        words += block.size
        lo, hi_mass = float(block.min()), float(block.max())
        # zero masses: dropped at q > 0 (keeps numpy's summation order), +inf at q < 0
        live = block[~np.isneginf(block)] if lo == -math.inf else block
        lo_pos = lo if live is block else float(live.min(initial=0.0))
        if buf.size < live.size:
            buf = np.empty(live.size)
        view = buf[: live.size]
        for i, qi in np.ndenumerate(qs):
            qi = float(qi)
            _check_range(qi, lo_pos, length)
            hi = qi * (hi_mass if qi > 0 else lo)
            if qi == 0 or qi == 1 or top[i] == math.inf or hi == -math.inf:
                continue
            if hi == math.inf:
                top[i] = hi
                continue
            np.multiply(live, qi, out=view)
            np.subtract(view, hi, out=view)
            np.exp(view, out=view)
            s = float(view.sum())
            if hi > top[i]:
                total[i] = total[i] * math.exp(top[i] - hi) + s
                top[i] = hi
            else:
                total[i] += s * math.exp(hi - top[i])
    return _ends(qs, words, lambda i, _: top[i] + (math.log(total[i]) if total[i] else 0.0))


def sorted_grid(grid) -> np.ndarray:
    """np.unique of a float grid (one NaN kept); its plain-array path imports numpy.ma."""
    a = np.sort(np.asarray(grid, dtype=float).ravel())
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) & ~np.isnan(a[:-1])
    return a[keep]


@dataclass(frozen=True)
class SpectrumCurve:
    q_grid: np.ndarray
    h_values: np.ndarray
    convexity_certificate: bool

    def __post_init__(self):
        q = np.asarray(self.q_grid, dtype=float)
        h = np.asarray(self.h_values, dtype=float)
        if q.ndim != 1 or q.shape != h.shape:
            raise ValueError("q_grid and h_values must be 1-d arrays of equal length")
        if not (np.diff(q) > 0).all():
            raise ValueError("q_grid must be strictly increasing")
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "h_values", h)

    def slope_range(self) -> tuple[float, float]:
        """(-max, -min) of the chord slopes between finite h values: the
        beta range where the conjugate's grid infimum is attained.  Raises
        BracketError when fewer than 2 values are finite."""
        finite = np.isfinite(self.h_values)
        if finite.sum() < 2:
            raise BracketError("h is finite at fewer than 2 grid points: no slope range")
        slopes = np.diff(self.h_values[finite]) / np.diff(self.q_grid[finite])
        return -float(slopes.max()), -float(slopes.min())

    @staticmethod
    def certify(q: np.ndarray, h: np.ndarray) -> bool:
        if len(q) < 3 or not np.isfinite(h).all():
            return False
        d2 = np.diff(np.diff(h) / np.diff(q))
        return bool((d2 >= -_CONVEXITY_SLACK).all())


def h_curve(
    model: MeasureModel,
    q_grid: Sequence[float],
    k: int = 0,
    schedule: Sequence[tuple[int, int]] = DEFAULT_SCHEDULE,
) -> SpectrumCurve:
    """Partition-growth estimate of h over a q grid.

    For each q, log Z_N is computed at every schedule depth, and h(q) is the
    least-squares slope of log Z_N against N: one least-squares call over the
    finite columns, +inf where a log Z_N is infinite.  Depths are the outer
    loop, so each word length is read once, through ``log_partition``; the
    deepest length, max N + k, is refused past the cap, and k < 0, before any.
    """
    if not model.space.irreducible:
        raise ValueError("h-curve estimation needs an irreducible shift space")
    if len({N for N, _ in schedule}) < 2:
        raise ValueError("h-curve estimation needs a schedule with at least 2 distinct N")
    _at_least(k, 0, "depth offset k")
    _refuse_long_words(model.space, max(N for N, _ in schedule) + k)
    q_grid = sorted_grid(q_grid)
    Ns = np.asarray([N for N, _ in schedule], dtype=float)
    logZ = np.array([log_partition(model, q_grid, int(N) + k) for N in Ns])
    finite = ~np.isinf(logZ).any(axis=0)
    h = np.full_like(q_grid, math.inf)
    # log Z / 2^64 is exact, and keeps polyfit's slope (scaled by |Ns|) below the float max
    h[finite] = np.polyfit(Ns, logZ[:, finite] / 2.0**64, 1)[0] * 2.0**64
    return SpectrumCurve(q_grid, h, SpectrumCurve.certify(q_grid, h))


def legendre(
    curve: SpectrumCurve, beta_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise conjugate h*(beta) = inf_q (q beta + h(q)) over the grid.

    Returns (h_star, in_domain).  Outside ``curve.slope_range()`` the
    infimum runs away; those entries are -inf with in_domain False.  On a
    convex curve the grid minimum equals the infimum of the
    piecewise-linear interpolant, so no off-grid refinement is needed.
    """
    if len(curve.q_grid) < 3:
        raise ValueError("need at least 3 grid points for a conjugate")
    beta_lo, beta_hi = curve.slope_range()
    beta_grid = np.asarray(beta_grid, dtype=float)
    finite = np.isfinite(curve.h_values)
    qf, hf = curve.q_grid[finite], curve.h_values[finite]
    in_domain = (beta_grid >= beta_lo) & (beta_grid <= beta_hi)
    h_star = np.where(in_domain, np.min(np.outer(beta_grid, qf) + hf, axis=1), -math.inf)
    return h_star, in_domain


@dataclass(frozen=True)
class EndpointEstimate:
    """Attainable local-entropy interval [lower, upper], with the 1/q tail
    extrapolations of both ends."""

    lower: float
    upper: float
    lower_extrapolated: float
    upper_extrapolated: float

    @property
    def error_bar(self) -> float:
        return max(
            abs(self.lower - self.lower_extrapolated), abs(self.upper - self.upper_extrapolated)
        )


def domain_endpoints(curve: SpectrumCurve) -> EndpointEstimate:
    """Attainable local-entropy interval endpoints from the curve tails.

    lower = max over grid q > 0 of -h(q)/q, upper = min over q < 0; the
    grid tail is additionally extrapolated linearly in 1/q and reported on
    the extra fields.
    """
    q = curve.q_grid
    h = curve.h_values
    finite = np.isfinite(h)
    pos = finite & (q > 0)
    neg = finite & (q < 0)
    if not pos.any() or not neg.any():
        raise ValueError("grid needs finite values at both signs of q")
    if q[pos].max() < _MIN_ABS_Q or -q[neg].min() < _MIN_ABS_Q:
        raise ValueError(
            f"grid must reach |q| >= {_MIN_ABS_Q} on both sides for stable endpoints"
        )
    ratios_pos = -h[pos] / q[pos]
    ratios_neg = -h[neg] / q[neg]
    lower = float(ratios_pos.max())
    upper = float(ratios_neg.min())

    def tail_extrapolate(qs: np.ndarray, vals: np.ndarray) -> float:
        if len(qs) < 2:
            raise ValueError(f"a tail needs 2 finite points to extrapolate, got {len(qs)}")
        order = np.argsort(np.abs(qs))
        q1, q2 = qs[order][-2:]
        v1, v2 = vals[order][-2:]
        # v = a + b/q  =>  a = (q2 v2 - q1 v1) / (q2 - q1)
        return float((q2 * v2 - q1 * v1) / (q2 - q1))

    lower_ex = tail_extrapolate(q[pos], ratios_pos)
    upper_ex = tail_extrapolate(q[neg], ratios_neg)
    return EndpointEstimate(lower, upper, lower_ex, upper_ex)


def one_sided_derivatives(curve: SpectrumCurve) -> tuple[np.ndarray, np.ndarray]:
    """Backward and forward difference quotients at each grid point, Richardson
    refined where a third point is available: nan at both ends, where one side
    is missing, and everywhere once some h is infinite."""
    q, h = curve.q_grid, curve.h_values
    n = len(q)
    out = np.full((2, n), math.nan)
    if not np.isfinite(h).all():
        return out[0], out[1]

    def one_side(i: int, step: int) -> float:
        d1 = (h[i + step] - h[i]) / (q[i + step] - q[i])
        j = i + 2 * step
        if 0 <= j < n:
            return 2.0 * d1 - (h[j] - h[i]) / (q[j] - q[i])
        return d1

    for i in range(1, n - 1):
        out[:, i] = one_side(i, -1), one_side(i, +1)
    return out[0], out[1]


@dataclass(frozen=True)
class LevelSetBin:
    beta: float
    count: int
    word_length: int
    entropy_estimate: float


@lru_cache(maxsize=1)
def level_set_read(model: MeasureModel, n: int, k: int = 0) -> tuple:
    """The one read of the length-(n+k) level shared by the level-set functions:
    (finite log masses, the ``log_mass_array`` level itself when no mass is zero;
    whether a mass is zero; the least finite log mass, 0.0 if none; their betas
    -(1/n) log m), arrays read-only.  Refuses n < 1 and k < 0 before any work;
    the last (model, n, k) is cached."""
    _at_least(n, 1, "word length n")
    _at_least(k, 0, "depth offset k")
    arr = log_mass_array(model, n + k)
    finite = arr[~np.isneginf(arr)] if arr.size and float(arr.min()) == -math.inf else arr
    least = float(finite.min(initial=0.0))
    betas = np.negative(finite)
    np.divide(betas, n, out=betas)
    finite.setflags(write=False)
    betas.setflags(write=False)
    return finite, finite.size < arr.size, least, betas


def level_set_spectrum_oracle(
    model: MeasureModel, n: int, bin_width: float, k: int = 0
) -> list[LevelSetBin]:
    """Exhaustive local-entropy histogram over admissible length-(n+k) words.

    Each word contributes beta_w = -(1/n) log mass; bins are centered at
    integer multiples of bin_width and carry (1/n) log count as the
    entropy estimate.  Zero-mass words (beta = inf) are dropped.  Raises
    OverflowError when bin_width is too small for a bin index to be finite.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    betas = level_set_read(model, n, k)[3]
    idx = np.empty_like(betas)
    with np.errstate(over="ignore"):
        np.divide(betas, bin_width, out=idx)
    np.round(idx, out=idx)
    np.add(idx, 0.0, out=idx)  # + 0.0 makes a -0.0 index 0.0
    idx.sort()  # a non-finite index sorts to an end
    if idx.size and not (math.isfinite(idx[0]) and math.isfinite(idx[-1])):
        raise OverflowError(f"bin width {bin_width} is too small: a bin index overflows")
    # np.unique(idx, return_counts=True) on the sorted indices, without its copy
    first = np.empty(idx.size, dtype=bool)
    first[:1] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, idx.size))
    return [
        LevelSetBin(beta=j * bin_width, count=c, word_length=n, entropy_estimate=math.log(c) / n)
        for j, c in zip(idx[starts].tolist(), counts.tolist())
    ]


def level_set_window(
    model: MeasureModel, n: int, beta: float, half_width: float, k: int = 0
) -> tuple[int, np.ndarray]:
    """Count and log masses of length-(n+k) words with local entropy within
    half_width of beta; the sliding-window companion of the fixed bins."""
    finite, _, _, betas = level_set_read(model, n, k)
    dist = np.subtract(betas, beta)
    sel = np.abs(dist, out=dist) <= half_width
    del dist  # the level-sized scratch goes before the window's copy is made
    return int(sel.sum()), finite[sel]


def tangency_beta(model: MeasureModel, q: float, n: int, k: int = 0) -> float:
    """Finite-n slope -d/dq (1/n) log Z_n(q): the level at which the q-weighted
    partition concentrates, once q passes ``_check_range`` on the level."""
    finite, zero_mass, least, _ = level_set_read(model, n, k)
    if q < 0 and zero_mass:
        raise ValueError("partition derivative undefined: zero-mass word at q < 0")
    _check_range(q, least, n + k)
    w = psi_log(q, finite)
    top = float(w.max())
    np.subtract(w, top, out=w)
    np.exp(w, out=w)
    return float(-(w @ finite) / (w.sum() * n))


def level_tangency_residual(
    model: MeasureModel, q: float, n: int, k: int = 0, half_width: float = 0.08
) -> tuple[float, float]:
    """(beta, residual): the tangency level beta = -h'(q) of ``tangency_beta``,
    and the gap between the level-set counting entropy at beta and the
    tangent value q beta + t*, where t* is the critical discount of the
    partition sum restricted to the beta window."""
    beta = tangency_beta(model, q, n, k)
    count, masses = level_set_window(model, n, beta, half_width, k)
    if count == 0:
        raise ValueError(
            f"no admissible word has local entropy within {half_width} of {beta}"
        )
    lhs = math.log(count) / n
    # psi_log(q, masses) in the window's own copy; at q = 0 its zeros may
    # come out -0.0, which leaves the log-sum-exp's bits as they are
    t_star = _logsumexp_in_place(np.multiply(masses, q, out=masses)) / n
    return beta, abs(lhs - (q * beta + t_star))
