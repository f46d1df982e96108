"""Pointwise local-entropy estimates and level-set sampling.

A point is represented by a finite prefix long enough for the requested
order; the local entropy along it is the sequence -(1/n) log mass of the
length-(n+k) prefixes, with liminf/limsup proxied by the tail of the
sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableBetaError
from .measures import Bernoulli, MeasureModel
from .space import Word


@dataclass(frozen=True)
class LocalEntropySample:
    word: Word
    k: int
    estimates: np.ndarray  # index n-1 holds -(1/n) log mass(prefix_{n+k})
    lower: float
    upper: float
    hit_zero_mass: bool


def local_entropy(
    model: MeasureModel, x: Word, k: int = 0, tail_fraction: float = 0.25
) -> LocalEntropySample:
    """Local-entropy estimate sequence along the prefixes of ``x``, at every
    order n = 1 .. len(x) - k.

    lower/upper are min/max over the final tail_fraction of indices, a
    finite proxy for liminf/limsup; a zero-mass prefix makes the tail
    infinite and is flagged.
    """
    n_max = len(x) - k
    if n_max < 1:
        raise ValueError(f"word of length {len(x)} too short for offset k={k}")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    lm = model.log_mass_prefixes(x)[k + 1 :]
    est = -lm / np.arange(1, n_max + 1)  # inf from the first zero-mass prefix on
    tail_start = min(n_max - 1, int(math.floor(n_max * (1 - tail_fraction))))
    tail = est[tail_start:]
    return LocalEntropySample(
        word=tuple(x),
        k=k,
        estimates=est,
        lower=float(tail.min()),
        upper=float(tail.max()),
        hit_zero_mass=bool(np.isneginf(lm).any()),
    )


def filtration_member(
    model: MeasureModel, x: Word, beta: float, delta: float, M: int, N: int
) -> bool:
    """Finite check that every order-n estimate from N onward stays within
    delta of beta, at dyadic radius index M."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(x) < N + M:
        raise ValueError(f"word of length {len(x)} shorter than N + M = {N + M}")
    ns = np.arange(N, len(x) - M + 1)
    lm = model.log_mass_prefixes(x)[ns + M]
    val = -lm / ns  # inf at zero mass
    return bool(((beta - delta < val) & (val < beta + delta)).all())


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sample_level_set(
    model: MeasureModel,
    beta: float,
    tol: float,
    n: int,
    count: int,
    rng_seed: int,
) -> list[Word]:
    """Words of length n whose symbol frequencies pin the local entropy near
    beta, produced by shuffling a fixed-type multiset.

    Only defined for Bernoulli models, where the attainable levels form
    the interval spanned by -log p_i; outside it no level set exists.
    """
    if not isinstance(model, Bernoulli):
        raise ValueError("level-set sampling is implemented for Bernoulli models")
    if (model.init == 0).any():
        raise ValueError("level-set sampling needs strictly positive symbol masses")
    neg_logp = -np.log(model.init)
    lo, hi = float(neg_logp.min()), float(neg_logp.max())
    if beta < lo - tol or beta > hi + tol:
        raise UnreachableBetaError(
            f"beta={beta} outside the attainable interval [{lo:.6g}, {hi:.6g}]: "
            "the level set is empty"
        )
    m = model.space.alphabet_size
    best: tuple[float, tuple[int, ...]] | None = None
    for counts in _compositions(n, m):
        val = float(np.dot(counts, neg_logp)) / n
        gap = abs(val - beta)
        if best is None or gap < best[0]:
            best = (gap, counts)
    assert best is not None
    if best[0] > tol:
        raise ValueError(
            f"no length-{n} frequency type within {tol} of beta={beta}; "
            "increase n or tol"
        )
    counts = best[1]
    base = np.repeat(np.arange(m), counts)
    rng = np.random.default_rng(rng_seed)
    return [tuple(int(s) for s in rng.permutation(base)) for _ in range(count)]
