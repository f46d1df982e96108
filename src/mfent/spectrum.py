"""The gauge-exponent entropy curve h(q), its Legendre transform, and
level-set spectrum oracles built from exhaustive word enumeration.

h(q) is estimated as the growth rate in N of log Z_N(q), where Z_N is
the gauge-weighted partition sum over admissible length-(N+k) words; the
slope regression over a schedule of depths removes additive transients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooLargeError
from .measures import MeasureModel, log_mass_array, logsumexp
from .solver import DEFAULT_SCHEDULE

_CONVEXITY_SLACK = {"closed_form": 1e-9, "numeric": 2e-2}


def log_partition(model: MeasureModel, q: float, length: int) -> float:
    """log sum over admissible length-``length`` words of psi_q(mass)."""
    arr = log_mass_array(model, length)
    if q == 0:
        return math.log(arr.size)
    if q == 1:
        return 0.0  # the masses of a level sum to one
    if q < 0:
        if np.isneginf(arr).any():
            return math.inf
        return logsumexp(q * arr)
    return logsumexp(q * arr[~np.isneginf(arr)])


@dataclass(frozen=True)
class SpectrumCurve:
    q_grid: np.ndarray
    h_values: np.ndarray
    provenance: str  # "numeric" | "closed_form"
    convexity_certificate: bool
    k: int = 0

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
        i = int(np.searchsorted(self.q_grid, q))
        if self.q_grid[min(i, len(self.q_grid) - 1)] == q:
            return float(self.h_values[min(i, len(self.q_grid) - 1)])
        if i > 0 and self.q_grid[i - 1] == q:
            return float(self.h_values[i - 1])
        return float(np.interp(q, self.q_grid, self.h_values))

    @staticmethod
    def certify(q: np.ndarray, h: np.ndarray, provenance: str) -> bool:
        if len(q) < 3 or not np.isfinite(h).all():
            return False
        d2 = np.diff(np.diff(h) / np.diff(q))
        return bool((d2 >= -_CONVEXITY_SLACK[provenance]).all())


def h_curve(
    model: MeasureModel,
    q_grid: Sequence[float],
    k: int = 0,
    schedule: Sequence[tuple[int, int]] = DEFAULT_SCHEDULE,
) -> SpectrumCurve:
    """Partition-growth estimate of h over a q grid.

    For each q, log Z_N is computed at every schedule depth and h(q) is
    the least-squares slope of log Z_N against N.
    """
    if not model.space.irreducible:
        raise ValueError("h-curve estimation needs an irreducible shift space")
    q_grid = np.unique(np.asarray(q_grid, dtype=float))
    Ns = np.asarray([N for N, _ in schedule], dtype=float)
    h = np.empty_like(q_grid)
    for iq, q in enumerate(q_grid):
        logZ = np.asarray([log_partition(model, q, int(N) + k) for N in Ns])
        if np.isinf(logZ).any():
            h[iq] = math.inf
        else:
            h[iq] = np.polyfit(Ns, logZ, 1)[0]
    cert = SpectrumCurve.certify(q_grid, h, "numeric")
    return SpectrumCurve(q_grid, h, "numeric", cert, k=k)


def legendre(
    curve: SpectrumCurve, beta_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise conjugate h*(beta) = inf_q (q beta + h(q)) over the grid.

    Returns (h_star, in_domain).  Outside the slope range reachable on the
    grid the infimum runs away; those entries are -inf with in_domain
    False.  On a convex curve the grid minimum equals the infimum of the
    piecewise-linear interpolant, so no off-grid refinement is needed.
    """
    q = curve.q_grid
    h = curve.h_values
    if len(q) < 3:
        raise ValueError("need at least 3 grid points for a conjugate")
    beta_grid = np.asarray(beta_grid, dtype=float)
    finite = np.isfinite(h)
    qf, hf = q[finite], h[finite]
    if len(qf) < 2:
        raise ValueError("curve has fewer than 2 finite values")
    slopes = np.diff(hf) / np.diff(qf)
    beta_min_reach = -float(slopes.max())
    beta_max_reach = -float(slopes.min())
    h_star = np.empty_like(beta_grid)
    in_domain = np.empty(beta_grid.shape, dtype=bool)
    for i, beta in enumerate(beta_grid):
        if beta < beta_min_reach or beta > beta_max_reach:
            h_star[i] = -math.inf
            in_domain[i] = False
        else:
            h_star[i] = float(np.min(qf * beta + hf))
            in_domain[i] = True
    return h_star, in_domain


class EndpointEstimate(tuple):
    """(beta_lower, beta_upper) with 1/q tail extrapolations as extras."""

    def __new__(cls, lower, upper, lower_extrapolated, upper_extrapolated):
        self = super().__new__(cls, (lower, upper))
        self.lower = lower
        self.upper = upper
        self.lower_extrapolated = lower_extrapolated
        self.upper_extrapolated = upper_extrapolated
        self.error_bar = max(
            abs(lower - lower_extrapolated), abs(upper - upper_extrapolated)
        )
        return self


def domain_endpoints(curve: SpectrumCurve, min_abs_q: float = 10.0) -> EndpointEstimate:
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
    if q[pos].max() < min_abs_q or -q[neg].min() < min_abs_q:
        raise ValueError(
            f"grid must reach |q| >= {min_abs_q} on both sides for stable endpoints"
        )
    ratios_pos = -h[pos] / q[pos]
    ratios_neg = -h[neg] / q[neg]
    lower = float(ratios_pos.max())
    upper = float(ratios_neg.min())

    def tail_extrapolate(qs: np.ndarray, vals: np.ndarray) -> float:
        order = np.argsort(np.abs(qs))
        q1, q2 = qs[order][-2:]
        v1, v2 = vals[order][-2:]
        if q1 == q2:
            return float(v2)
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
    log_count: float
    word_length: int
    entropy_estimate: float


def level_set_spectrum_oracle(
    model: MeasureModel, n: int, bin_width: float, k: int = 0
) -> list[LevelSetBin]:
    """Exhaustive local-entropy histogram over admissible length-(n+k) words.

    Each word contributes beta_w = -(1/n) log mass; bins are centered at
    integer multiples of bin_width and carry (1/n) log count as the
    entropy estimate.  Zero-mass words (beta = inf) are dropped.
    """
    if model.space.alphabet_size ** (n + k) > (1 << 16):
        raise TooLargeError(f"level-set enumeration refused for m^{n + k} words")
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    arr = log_mass_array(model, n + k)
    betas = -arr[~np.isneginf(arr)] / n
    idx = np.round(betas / bin_width).astype(int)
    bins = []
    for j in sorted(set(idx.tolist())):
        count = int((idx == j).sum())
        bins.append(
            LevelSetBin(
                beta=j * bin_width,
                log_count=math.log(count),
                word_length=n,
                entropy_estimate=math.log(count) / n,
            )
        )
    return bins


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
    w = q * finite
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
    t_star = logsumexp(q * masses) / n
    return abs(lhs - (q * beta + t_star))
