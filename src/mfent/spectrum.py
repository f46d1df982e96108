"""The gauge-exponent entropy curve h(q), its Legendre transform, and
level-set spectrum oracles built from exhaustive word enumeration.

h(q) is estimated as the growth rate in N of log Z_N(q), where Z_N is
the gauge-weighted partition sum over admissible length-(N+k) words; the
slope regression over a schedule of depths removes additive transients.
``log_partition`` takes a scalar q or an array of q, so ``h_curve`` loads
each word length once and sums it for the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BracketError
from .measures import MeasureModel, _refuse_long_words, log_mass_array, logsumexp
from .premeasure import psi_log
from .solver import DEFAULT_SCHEDULE

_CONVEXITY_SLACK = 2e-2  # second differences of a schedule-regressed curve
_MAX_LEVEL_SET_WORDS = 1 << 16
_MIN_ABS_Q = 10.0  # the grid reach both tails need for stable endpoints


def log_partition(model: MeasureModel, q, length: int):
    """log sum over admissible length-``length`` words of psi_q(mass), for a
    scalar q (a float back) or an array of q (an array of its shape back).

    The level is loaded once, with its min, max and (if it has zero
    masses) zero-filtered copy.  Every q but 0 and 1 then runs in one
    buffer reused over the whole level, and bit for bit equals
    ``logsumexp(psi_log(q, masses))``: rounding is monotone, so the largest
    term is q*max (q > 0) or q*min (q < 0), and the sum runs over the same
    contiguous array in the same pairwise order.
    """
    arr = log_mass_array(model, length)
    qs = np.asarray(q, dtype=float)
    lo, hi_mass = float(arr.min()), float(arr.max())
    # zero masses: dropped at q > 0 (keeps numpy's summation order), +inf at q < 0
    live = arr[~np.isneginf(arr)] if lo == -math.inf else arr
    buf = np.empty_like(live)
    out = np.empty(qs.shape)
    for i, qi in np.ndenumerate(qs):
        qi = float(qi)
        hi = qi * (hi_mass if qi > 0 else lo)
        if qi == 0:
            out[i] = math.log(arr.size)
        elif qi == 1:
            out[i] = 0.0  # the masses of a level sum to one
        elif math.isinf(hi):
            out[i] = hi
        else:
            np.multiply(live, qi, out=buf)
            np.subtract(buf, hi, out=buf)
            np.exp(buf, out=buf)
            out[i] = hi + math.log(float(buf.sum()))
    return float(out) if out.ndim == 0 else out


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

    def value(self, q: float) -> float:
        """Piecewise-linear h; exactly the grid value at a grid point, even
        next to an infinite one."""
        return float(np.interp(q, self.q_grid, self.h_values))

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

    For each q, log Z_N is computed at every schedule depth and h(q) is
    the least-squares slope of log Z_N against N.  Depths are the outer
    loop, so each word length's masses are enumerated once.
    """
    if not model.space.irreducible:
        raise ValueError("h-curve estimation needs an irreducible shift space")
    if len({N for N, _ in schedule}) < 2:
        raise ValueError("h-curve estimation needs a schedule with at least 2 distinct N")
    q_grid = np.unique(np.asarray(q_grid, dtype=float))
    Ns = np.asarray([N for N, _ in schedule], dtype=float)
    logZ = np.array([log_partition(model, q_grid, int(N) + k) for N in Ns])
    h = np.empty_like(q_grid)
    for iq in range(len(q_grid)):
        if np.isinf(logZ[:, iq]).any():
            h[iq] = math.inf
        else:
            h[iq] = np.polyfit(Ns, logZ[:, iq], 1)[0]
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


def one_sided_derivatives(curve: SpectrumCurve, q: float) -> tuple[float, float]:
    """Backward/forward difference quotients at a grid point, Richardson
    refined when a third point is available."""
    grid = curve.q_grid
    idx = np.where(np.isclose(grid, q, rtol=0, atol=1e-12))[0]
    if idx.size == 0:
        raise ValueError(f"q={q} is not a grid point")
    i = int(idx[0])
    if i == 0 or i == len(grid) - 1:
        raise ValueError(f"q={q} is on the grid boundary; one side is missing")
    h = curve.h_values

    def one_side(step_sign: int) -> float:
        d1 = (h[i + step_sign] - h[i]) / (grid[i + step_sign] - grid[i])
        j = i + 2 * step_sign
        if 0 <= j < len(grid):
            d2 = (h[j] - h[i]) / (grid[j] - grid[i])
            return float(2.0 * d1 - d2)
        return float(d1)

    return one_side(-1), one_side(+1)


@dataclass(frozen=True)
class LevelSetBin:
    beta: float
    count: int
    word_length: int
    entropy_estimate: float


def level_set_spectrum_oracle(
    model: MeasureModel, n: int, bin_width: float, k: int = 0
) -> list[LevelSetBin]:
    """Exhaustive local-entropy histogram over admissible length-(n+k) words.

    Each word contributes beta_w = -(1/n) log mass; bins are centered at
    integer multiples of bin_width and carry (1/n) log count as the
    entropy estimate.  Zero-mass words (beta = inf) are dropped.  Raises
    OverflowError when bin_width is too small for a bin index to be finite.
    """
    _refuse_long_words(model.space, n + k, _MAX_LEVEL_SET_WORDS)
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    arr = log_mass_array(model, n + k)
    betas = -arr[~np.isneginf(arr)] / n
    with np.errstate(over="ignore"):
        idx = np.round(betas / bin_width) + 0.0  # + 0.0 makes a -0.0 index 0.0
    if not np.isfinite(idx).all():
        raise OverflowError(f"bin width {bin_width} is too small: a bin index overflows")
    js, counts = np.unique(idx, return_counts=True)
    return [
        LevelSetBin(beta=j * bin_width, count=c, word_length=n, entropy_estimate=math.log(c) / n)
        for j, c in zip(js.tolist(), counts.tolist())
    ]


def level_set_window(
    model: MeasureModel, n: int, beta: float, half_width: float, k: int = 0
) -> tuple[int, np.ndarray]:
    """Count and log masses of length-(n+k) words with local entropy within
    half_width of beta; the sliding-window companion of the fixed bins."""
    arr = log_mass_array(model, n + k)
    arr = arr[~np.isneginf(arr)]
    betas = -arr / n
    sel = np.abs(betas - beta) <= half_width
    return int(sel.sum()), arr[sel]


def tangency_beta(model: MeasureModel, q: float, n: int, k: int = 0) -> float:
    """Finite-n slope -d/dq (1/n) log Z_n(q): the level at which the
    q-weighted partition concentrates."""
    arr = log_mass_array(model, n + k)
    finite = arr[~np.isneginf(arr)]
    if q < 0 and finite.size != arr.size:
        raise ValueError("partition derivative undefined: zero-mass word at q < 0")
    w = psi_log(q, finite)
    w = np.exp(w - w.max())
    return float(-(w @ finite) / (w.sum() * n))


def level_tangency_residual(
    model: MeasureModel, q: float, n: int, k: int = 0, half_width: float = 0.08
) -> float:
    """Gap between the level-set counting entropy at beta = -h'(q) and the
    tangent value q beta + t*, where t* is the critical discount of the
    partition sum restricted to the beta window."""
    beta = tangency_beta(model, q, n, k)
    count, masses = level_set_window(model, n, beta, half_width, k)
    if count == 0:
        raise ValueError(
            f"no admissible word has local entropy within {half_width} of {beta}"
        )
    lhs = math.log(count) / n
    t_star = logsumexp(psi_log(q, masses)) / n
    return abs(lhs - (q * beta + t_star))
