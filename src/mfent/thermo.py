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
from .measures import Chain, MeasureModel, _at_least
from .perron import perron_root
from .potential import Potential
from .spectrum import log_partition

_SQUARINGS = 12  # partition_growth_by_squaring measures Z_n at n = 2^12


def pressure(psi: Potential, scale: float = 1.0) -> float:
    """Topological pressure of scale * psi on its space: log Perron root of
    the weighted transfer matrix over length-(r-1) word states."""
    if not psi.space.irreducible:
        raise ValueError("pressure needs an irreducible shift space")
    M, _ = psi.transfer_matrix(scale)
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
    return math.log(perron_root(chain.q_power(q)[1]))


def gibbs_identity_residual(model: MeasureModel, q: float) -> float:
    """|g(q) - (P(q psi) - q P(psi))| for the model's defining potential,
    where g is the partition growth rate from the stochastic representation
    over positive-mass words: the potential drops its structural zeros at
    every q, so zero-mass cylinders drop out of g too."""
    chain = _chain(model)
    g = math.log(perron_root(chain.q_power(q)[1]))
    psi = chain.log_potential()
    rhs = pressure(psi, q) - q * pressure(psi, 1.0)
    if math.isinf(g) or math.isinf(rhs):
        return 0.0 if g == rhs else math.inf
    return abs(g - rhs)


def partition_growth_by_squaring(model: MeasureModel, q: float) -> float:
    """Brute partition growth (1/n) log Z_n at n = 2^12, via repeated
    squaring of the entrywise q-power with rescaling; an independent check
    on the Perron-root route."""
    piq, B = _chain(model).q_power(q)
    log_scale = 0.0
    for step in range(_SQUARINGS):
        s = B.max()
        if s <= 0:
            raise ConvergenceError("partition matrix power collapsed to zero")
        B = (B / s) @ (B / s)
        log_scale = 2.0 * (log_scale + math.log(s))
        if step == _SQUARINGS - 2:
            half = (B.copy(), log_scale)

    def logZ(mat, ls):
        # Z at n = power + 1 (one extra step from the initial distribution)
        return math.log(float(piq @ mat @ np.ones(mat.shape[0]))) + ls

    # difference of two depths cancels the eigenvector prefactor, leaving
    # only a geometrically small subdominant-eigenvalue correction
    return (logZ(B, log_scale) - logZ(*half)) / (1 << (_SQUARINGS - 1))


def correlation_entropy(model: MeasureModel, q: float, n: int, k: int = 0) -> float:
    """Finite-n correlation-integral entropy:
    (1 / ((1-q) n)) log sum over admissible length-(n+k) words of mass^q."""
    if q == 1:
        raise ValueError("correlation entropy is undefined at q = 1")
    _at_least(n, 1, "word length n")
    _at_least(k, 0, "depth offset k")
    return log_partition(model, q, n + k) / ((1 - q) * n)
