"""Perron root and eigenvectors of nonnegative matrices by power iteration.

Shifting by the largest entry makes the iteration immune to periodicity, but
can push its convergence ratio close to 1: ill-conditioned Gibbs q-powers
(log-weights of spread 1.5, q = -3 and -2) hit the step cap.  The stop once a
step moves root and vector by at most _TOL is not an error bound (a q = -3
root was seen off by 4e-11).

A step makes one BLAS call, the product into a reused buffer, and one
in-place divide; the left solve keeps S.T a view, as a contiguous copy takes
another BLAS kernel and other bits.  Below numpy's 8-entry block its
pairwise sum is one plain left-to-right loop, so an iterate that short is
summed in Python floats in that order, the same bits without a ufunc call;
not by the builtin ``sum``, which compensates from Python 3.12 on and gives
other bits.  Once the root has settled, the vector test compares the two
iterates in Python floats too: subtract, abs and <= are exact, and a NaN
fails it as it fails the max of numpy's differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

# stopping rule of the power iteration: change in root and vector, step cap
_TOL = 1e-14
_MAX_ITER = 200_000
# numpy's pairwise sum adds fewer entries than this in one plain left-to-right loop
_PAIRWISE_BLOCK = 8


def _plain_sum(w: np.ndarray) -> float:
    """The entries of w added left to right in Python floats: the bits of
    np.add.reduce(w) for fewer than _PAIRWISE_BLOCK entries."""
    total = 0.0
    for x in w.tolist():
        total += x
    return total


def perron_root(M: np.ndarray) -> float:
    return perron_triple(M)[0]


def perron_triple(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root with right and left eigenvectors of a nonnegative matrix.

    The matrix must be irreducible (up to numerically-zero rounding).  Left
    and right vectors are positive, with sum(right) = 1 and left @ right = 1.
    Raises ConvergenceError when an iterate's sum overflows.

    Returns (lam, right, left).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    if (M < 0).any():
        raise ValueError("matrix must be nonnegative")
    n = M.shape[0]
    shift = float(M.max())
    if shift == 0.0:
        raise ValueError("zero matrix has no Perron data")
    dot, total, divide, inf, plain = np.dot, np.add.reduce, np.divide, np.inf, _plain_sum
    short = n < _PAIRWISE_BLOCK

    def iterate(A: np.ndarray) -> tuple[float, np.ndarray]:
        v, w, lam = np.full(n, 1.0 / n), np.empty(n), 0.0  # v and w swap each step
        for _ in range(_MAX_ITER):
            dot(A, v, w)
            lam_new = plain(w) if short else float(total(w))
            if not 0.0 < lam_new < inf:  # inf at the first step if S has an inf
                raise ConvergenceError("power iteration collapsed to zero vector" if lam_new <= 0
                                       else f"power iteration overflows (entries up to {shift:g})")
            divide(w, lam_new, w)
            if (abs(lam_new - lam) <= _TOL * (lam_new if lam_new > 1.0 else 1.0)
                    and all(abs(a - b) <= _TOL for a, b in zip(w.tolist(), v.tolist()))):
                return lam_new, w
            v, w, lam = w, v, lam_new
        raise ConvergenceError(f"power iteration did not converge within {_MAX_ITER} iterations")

    with np.errstate(over="ignore"):  # an overflow is raised above, not warned
        S = M + shift * np.eye(n)
        lam_r, right = iterate(S)
        lam_l, left = iterate(S.T)
    lam = 0.5 * lam_r + 0.5 * lam_l - shift  # halves first: the sum may overflow
    left = left / float(left @ right)
    return float(lam), right, left
