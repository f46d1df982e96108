"""Critical exponents of the pre-measure constructions.

Each pre-measure value, viewed as a function of the discount rate t, is
continuous and nonincreasing at finite depth, so the transition point of
the limiting 0/infinity dichotomy is estimated as the root of value = 1,
then tracked over an (N, D) schedule.  The root finder is Brent's method
(inverse-quadratic and secant steps guarded by bisection): the log value
is a log-sum-exp of terms a_i - t * n_i over the orders n_i in [N, D] of
an optimal antichain, so it is nearly linear in t and a root takes about
5-10 sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BracketError
from .measures import MeasureModel, doubling_check
from .premeasure import TreeEvaluator
from .space import CylinderSet

DEFAULT_SCHEDULE: tuple[tuple[int, int], ...] = ((4, 4), (8, 8), (12, 12), (16, 16))
_SCHEDULE_TOL = 1e-8  # root tolerance per schedule entry


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    N_used: int
    D_used: int
    k: int
    error_bar: float
    degenerate: bool = False


def _walk_out(log_value_at: Callable[[float], float], t: float, f_t: float, width: float,
              sign: float) -> tuple[float, float]:
    """Move a bracket end out by width, 2 width, ... (60 steps at most) until
    sign * value > 0: sign 1 at the lower end, -1 at the upper."""
    for _ in range(60):
        if sign * f_t > 0.0:
            break
        t, width = t - sign * width, 2.0 * width
        f_t = log_value_at(t)
    return t, f_t


def _critical_exponent_impl(
    log_value_at: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float,
) -> tuple[float, bool]:
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bracket {bracket}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    f_lo = log_value_at(lo)
    f_hi = log_value_at(hi)
    if f_lo == 0.0 and f_hi == 0.0:
        # flat at the critical value: exactly-normalized degenerate case
        return 0.5 * (lo + hi), True

    lo, f_lo = _walk_out(log_value_at, lo, f_lo, hi - lo, 1.0)
    if f_lo <= 0.0:
        # value never exceeds 1: the transition sits at -infinity
        return -math.inf, False
    hi, f_hi = _walk_out(log_value_at, hi, f_hi, hi - lo, -1.0)
    if f_hi >= 0.0:
        return math.inf, False

    # Brent's zeroin (Brent 1973, ch. 4).  [b, c] brackets the sign change,
    # b is the end with the smaller |value| and a is the previous b.  A step
    # interpolates (inverse quadratic, or secant when a == c) only through
    # finite values, else it bisects; it moves b by at least tol1, so the
    # bracket shrinks to at most 2 * tol1 and its midpoint is returned.
    a, f_a = lo, f_lo
    b, f_b = hi, f_hi
    c, f_c = a, f_a
    d = e = b - a
    while True:
        if (f_b > 0.0) == (f_c > 0.0):
            c, f_c = a, f_a
            d = e = b - a
        if abs(f_c) < abs(f_b):
            a, b, c = b, c, b
            f_a, f_b, f_c = f_b, f_c, f_b
        m = 0.5 * (c - b)
        tol1 = max(0.5 * tol, math.ulp(b))
        if abs(m) <= tol1:
            return b + m, False
        finite = math.isfinite(f_a) and math.isfinite(f_b) and math.isfinite(f_c)
        if finite and abs(e) >= tol1 and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                u, r = f_a / f_c, f_b / f_c
                p = s * (2.0 * m * u * (u - r) - (b - a) * (r - 1.0))
                q = (u - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # take the interpolated step only if it lands well inside the
            # bracket and is under half the step before last
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, f_a = b, f_b
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        f_b = log_value_at(b)
        if not (f_b > 0.0 or f_b < 0.0):
            return b, False


def critical_exponent(
    log_value_at: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-9,
) -> float:
    """Root t* of value(t) = 1 for a nonincreasing log-domain value function.

    The bracket is widened by doubling until it holds a sign change, then
    narrowed by Brent's method, which bisects whenever a bracket value is
    infinite.  The result lies within tol/2 of a point where
    log_value_at changes sign (within one unit in the last place when tol
    is below the float spacing there); a t where it is exactly 0 is
    returned as is.

    Returns -inf/+inf when the value stays below/above 1 after 60 bracket
    doublings (identically-zero or blown-up tails).  A function flat at 1
    across the bracket returns the bracket midpoint.  Raises ValueError for
    tol <= 0 and for a bracket that is not finite and increasing.
    """
    return _critical_exponent_impl(log_value_at, bracket, tol)[0]


def default_cover_depth(schedule: Sequence[tuple[int, int]]) -> int:
    """min(6, smallest N): every entry's cover depth when none is given."""
    return min(6, min(N for N, _ in schedule))


def outer_is_packing(schedule: Sequence[tuple[int, int]], k: int, cover_depth: int) -> bool:
    """True when every entry covers at a depth in [0, min(N + k, D)]: no
    ancestor ball is usable above the cover and the packing fold is a plain
    sum there, so ``outer_log`` equals ``packing_log`` bit for bit."""
    return all(0 <= cover_depth <= min(N + k, D) for N, D in schedule)


def _default_bracket(model: MeasureModel, q: float) -> tuple[float, float]:
    span = math.log(model.space.alphabet_size) * (2.0 + abs(q)) + 1.0
    return (-span, span)


def _schedule_estimate(
    values: list[tuple[int, int, float]], k: int, degenerate: bool
) -> EntropyEstimate:
    N, D, val = values[-1]
    err = abs(val - values[-2][2]) if len(values) >= 2 else math.inf
    err = math.inf if math.isnan(err) else err  # nan: two infinite roots of one sign
    return EntropyEstimate(value=val, N_used=N, D_used=D, k=k, error_bar=err, degenerate=degenerate)


def _run_schedule(
    model: MeasureModel,
    E: CylinderSet,
    q: float,
    k: int,
    schedule: Sequence[tuple[int, int]],
    sweep: str,
    cover_depth: int | None = None,
) -> EntropyEstimate:
    if not schedule:
        raise ValueError("schedule is empty: it needs at least one (N, D) entry")
    if cover_depth is None:
        cover_depth = default_cover_depth(schedule)
    bracket = _default_bracket(model, q)
    values = []
    degenerate = False
    for N, D in schedule:
        ev = TreeEvaluator(model, E, k, D)
        if sweep == "covering":
            f = lambda t: ev.covering_log(q, t, N)
        elif sweep == "packing":
            f = lambda t: ev.packing_log(q, t, N)
        else:
            f = lambda t: ev.outer_log(q, t, N, cover_depth)
        root, deg = _critical_exponent_impl(f, bracket, _SCHEDULE_TOL)
        degenerate = degenerate or deg
        values.append((N, D, root))
    return _schedule_estimate(values, k, degenerate)


def bowen_entropy(
    model: MeasureModel,
    E: CylinderSet,
    q: float,
    k: int = 0,
    schedule: Sequence[tuple[int, int]] = DEFAULT_SCHEDULE,
) -> EntropyEstimate:
    """Critical exponent of the covering pre-measure over the schedule.

    For q > 0 the identification of this exponent with the covering
    entropy requires the measure to satisfy the one-step doubling bound,
    so models with an infinite analytic bound are rejected.
    """
    if q > 0:
        bound = model.one_step_log_bound()
        if bound is not None and math.isinf(bound):
            raise BracketError(
                "q > 0 needs the entropy doubling condition; this measure has "
                "zero-mass admissible transitions (unbounded doubling ratio)"
            )
        if bound is None:
            rep = doubling_check(model, max(k, 1), n_max=6)
            if math.isinf(rep.empirical_sup):
                raise BracketError(
                    "q > 0 needs the entropy doubling condition; empirical "
                    "doubling ratio is unbounded"
                )
    return _run_schedule(model, E, q, k, schedule, "covering")


def packing_entropy_delta(
    model: MeasureModel,
    E: CylinderSet,
    q: float,
    k: int = 0,
    schedule: Sequence[tuple[int, int]] = DEFAULT_SCHEDULE,
) -> EntropyEstimate:
    """Critical exponent of the raw packing pre-measure (no cover refinement)."""
    return _run_schedule(model, E, q, k, schedule, "packing")


def packing_entropy(
    model: MeasureModel,
    E: CylinderSet,
    q: float,
    k: int = 0,
    schedule: Sequence[tuple[int, int]] = DEFAULT_SCHEDULE,
    cover_depth: int | None = None,
) -> EntropyEstimate:
    """Critical exponent of the cover-refined packing construction; every
    entry covers at ``cover_depth``, by default min(6, smallest N)."""
    return _run_schedule(model, E, q, k, schedule, "outer", cover_depth)
