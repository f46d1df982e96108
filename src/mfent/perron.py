"""Perron root and eigenvectors of nonnegative matrices by power iteration.

Matrices here are tiny (state counts m^(r-1)), so a shifted power method
with geometric convergence is all that is needed; no external eigensolver.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

# stopping rule of the power iteration: change in root and vector, step cap
_TOL = 1e-14
_MAX_ITER = 200_000


def perron_root(M: np.ndarray) -> float:
    return perron_triple(M)[0]


def perron_triple(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root with right and left eigenvectors of a nonnegative matrix.

    The matrix must be irreducible (up to numerically-zero rounding); a
    diagonal shift makes the iteration immune to periodicity.  Left and
    right vectors are positive, with sum(right) = 1 and left @ right = 1.

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
    S = M + shift * np.eye(n)

    def iterate(A: np.ndarray) -> tuple[float, np.ndarray]:
        v = np.full(n, 1.0 / n)
        lam = 0.0
        for _ in range(_MAX_ITER):
            w = A @ v
            lam_new = w.sum()
            if lam_new <= 0:
                raise ConvergenceError("power iteration collapsed to zero vector")
            w /= lam_new
            if abs(lam_new - lam) <= _TOL * max(1.0, abs(lam_new)) and np.max(
                np.abs(w - v)
            ) <= _TOL:
                return lam_new, w
            v, lam = w, lam_new
        raise ConvergenceError(
            f"power iteration did not converge within {_MAX_ITER} iterations"
        )

    lam_r, right = iterate(S)
    lam_l, left = iterate(S.T)
    lam = 0.5 * (lam_r + lam_l) - shift
    left = left / float(left @ right)
    return float(lam), right, left
