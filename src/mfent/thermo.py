"""Independent thermodynamic oracles: pressure, closed-form partition
growth rates, the Gibbs pressure identity, and correlation entropies.

These provide the cross-checks for the tree-based estimates: pressure is
a Perron root of a small weighted transfer matrix, while the partition
growth rates come from entrywise powers of the defining stochastic data.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .measures import Chain, MeasureModel
from .perron import perron_root
from .potential import Potential
from .space import ShiftSpace
from .spectrum import log_partition


def pressure(space: ShiftSpace, psi: Potential, scale: float = 1.0) -> float:
    """Topological pressure of scale * psi: log Perron root of the weighted
    transfer matrix over length-(r-1) word states."""
    if psi.space != space:
        raise ValueError("potential defined on a different space")
    if not space.irreducible:
        raise ValueError("pressure needs an irreducible shift space")
    M, _ = psi.transfer_matrix(scale)
    return math.log(perron_root(M))


def _entrywise_power_growth(P: np.ndarray, q: float) -> float:
    """log Perron root of the entrywise q-power with exact zeros preserved."""
    M = np.zeros_like(P)
    pos = P > 0
    M[pos] = P[pos] ** q
    return math.log(perron_root(M))


def _chain(model: MeasureModel) -> Chain:
    if not isinstance(model, Chain):
        raise ValueError(
            f"needs a Bernoulli/Markov/Gibbs chain model, got measure kind {model.kind!r}"
        )
    return model


def closed_form_h(model: MeasureModel, q: float) -> float:
    """Exact partition growth rate (1/n) log sum_w mass(w)^q of a chain
    model: the log Perron root of the entrywise q-power of its transition
    matrix.  Zero-mass admissible cylinders blow up for q < 0 and count as
    1 for q = 0."""
    chain = _chain(model)
    if q < 0 and ((chain.T == 0) & chain.adjacency).any():
        return math.inf
    if q == 0:
        return math.log(perron_root(chain.adjacency.astype(float)))
    return _entrywise_power_growth(chain.T, q)


def log_potential_of(model: MeasureModel) -> Potential:
    """Defining log-potential of a chain model: a Gibbs model's own
    potential, log T for Bernoulli and Markov."""
    return _chain(model).log_potential()


def gibbs_identity_residual(model: MeasureModel, q: float) -> float:
    """|g(q) - (P(q psi) - q P(psi))| for the model's defining potential,
    where g is the partition growth rate from the stochastic representation
    over positive-mass words: the potential drops its structural zeros at
    every q, so zero-mass cylinders drop out of g too."""
    g = _entrywise_power_growth(_chain(model).T, q)
    psi = log_potential_of(model)
    rhs = pressure(model.space, psi, q) - q * pressure(model.space, psi, 1.0)
    if math.isinf(g) or math.isinf(rhs):
        return 0.0 if g == rhs else math.inf
    return abs(g - rhs)


def partition_growth_by_squaring(model: MeasureModel, q: float, log2_n: int = 12) -> float:
    """Brute partition growth (1/n) log Z_n at n = 2^log2_n, via repeated
    squaring of the entrywise q-power with rescaling; an independent check
    on the Perron-root route."""
    chain = _chain(model)
    P, pi = chain.T, chain.init
    M = np.zeros_like(P)
    pos = P > 0
    M[pos] = P[pos] ** q
    piq = np.where(pi > 0, pi**q, 0.0)
    B = M.copy()
    log_scale = 0.0
    half = None
    for step in range(log2_n):
        s = B.max()
        if s <= 0:
            raise ConvergenceError("partition matrix power collapsed to zero")
        B = (B / s) @ (B / s)
        log_scale = 2.0 * (log_scale + math.log(s))
        if step == log2_n - 2:
            half = (B.copy(), log_scale)

    def logZ(mat, ls):
        # Z at n = power + 1 (one extra step from the initial distribution)
        return math.log(float(piq @ mat @ np.ones(mat.shape[0]))) + ls

    z_full = logZ(B, log_scale)
    if half is None:
        return z_full / ((1 << log2_n) + 1)
    # difference of two depths cancels the eigenvector prefactor, leaving
    # only a geometrically small subdominant-eigenvalue correction
    z_half = logZ(*half)
    return (z_full - z_half) / (1 << (log2_n - 1))


def correlation_entropy(model: MeasureModel, q: float, n: int, k: int = 0) -> float:
    """Finite-n correlation-integral entropy:
    (1 / ((1-q) n)) log sum over admissible length-(n+k) words of mass^q."""
    if q == 1:
        raise ValueError("correlation entropy is undefined at q = 1")
    return log_partition(model, q, n + k) / ((1 - q) * n)
