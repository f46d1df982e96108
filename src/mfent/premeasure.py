"""Finite-depth covering / packing pre-measures on the cylinder tree.

All three constructions (covering infimum, packing supremum, refined
packing via partition covers) are exact optimizations over antichains of
cylinders meeting a compact cylinder set, solved by one bottom-up fold
over an array tree.  Restricting to cylinders loses nothing for coverings
and packings here: centered dyadic dynamical balls *are* cylinders, and a
disjoint family of cylinders is exactly an antichain.  The refined
construction's arbitrary covers are restricted to cylinder partitions,
which over-estimates the infimum.

``TreeEvaluator`` is the one entry point.  Its constructor refuses k < 0
(and D < 1) before building anything, and its three sweeps refuse a minimum
order N outside [1, D], as the brute-force ``antichain_oracle`` does.

Everything runs in log domain; -inf encodes value 0 and +inf the blowup
of the power gauge at zero mass with negative exponent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooLargeError
from .measures import MeasureModel, _refuse_long_words
from .space import CylinderSet, Word

_MAX_TREE_NODES = 1 << 22
_MAX_ORACLE_OPTIONS = 1 << 21


def psi(s: float, x: float) -> float:
    """Power gauge on ball masses: x^s, with psi_0 = 1 and psi_s(0) = inf for s < 0."""
    if x < 0:
        raise ValueError(f"psi needs x >= 0, got {x}")
    if s == 0:
        return 1.0
    if x == 0.0:
        return math.inf if s < 0 else 0.0
    return x**s

def psi_log(s: float, log_x):
    """log of psi(s, exp(log_x)), elementwise over an array log_x; log_x =
    -inf encodes x = 0, where s * log_x is already +inf for s < 0 and -inf
    for s > 0."""
    if s == 0:
        return np.zeros_like(log_x, dtype=float) if np.ndim(log_x) else 0.0
    return s * log_x


def _check_window(N: int, D: int, k: int) -> None:
    """The order window of every pre-measure: balls of order N..D at
    radius offset k, with 1 <= N <= D and k >= 0."""
    if N < 1:
        raise ValueError("minimum order N must be >= 1")
    if D < N:
        raise ValueError(f"order cap D={D} below N={N}")
    if k < 0:
        raise ValueError("depth offset k must be >= 0")


def _refuse_deep_tree(D: int, k: int) -> None:
    """Refuse a tree of depth D + k before building it: every level keeps at
    least one node, so it has at least D + k + 1."""
    if D + k + 1 > _MAX_TREE_NODES:
        raise TooLargeError(f"a depth-{D + k} cylinder tree exceeds {_MAX_TREE_NODES} nodes")


class TreeEvaluator:
    """Cylinder tree of a compact set, with per-(q, t) DP sweeps.

    Each level steps the measure's ``extend`` and K's prefix trie together,
    keeping the children that meet K (``level_words[l]``: a row per word, in
    lexicographic order).  Every node keeps a child, so sweeps use ``reduceat``.
    Built once, so root-finding in t re-runs only the vectorized sweeps.
    """

    def __init__(self, model: MeasureModel, K: CylinderSet, k: int, D: int):
        if K.is_empty:
            raise ValueError("pre-measures need a non-empty cylinder set")
        if K.space != model.space:
            raise ValueError("cylinder set and measure live on different spaces")
        _check_window(1, D, k)
        _refuse_deep_tree(D, k)
        self.k = k
        self.D = D

        table, root = K.trie()
        k_state = np.array([root])
        states, lm = model.root()
        words = np.zeros((1, 0), dtype=np.min_scalar_type(model.space.alphabet_size - 1))
        self.level_words, self.parents, self.log_masses = [words], [np.zeros(1, np.int64)], [lm]
        self._starts = []  # per level: where each node's children start on the next
        total = 1
        for level in range(1, D + k + 1):
            par, sym, states, lm = model.extend(states, lm)
            k_state = table[k_state[par], sym]
            keep = np.flatnonzero(k_state >= 0)
            total += len(keep)
            if total > _MAX_TREE_NODES:
                raise TooLargeError(
                    f"cylinder tree exceeds {_MAX_TREE_NODES} nodes at depth {level}"
                )
            if len(keep) < len(par):
                par, sym, k_state = par[keep], sym[keep], k_state[keep]
                states, lm = model.select(states, keep), lm[keep]
            words = np.column_stack((words[par], sym.astype(words.dtype, copy=False)))
            self.level_words.append(words)
            self.parents.append(par)
            self.log_masses.append(lm)
            self._starts.append(np.flatnonzero(np.diff(par, prepend=-1)))

    # -- weights ---------------------------------------------------------

    def _weights(self, q: float, t: float, level: int) -> np.ndarray:
        return psi_log(q, self.log_masses[level]) - t * (level - self.k)

    def _children_logsum(self, level: int, child_vals: np.ndarray) -> np.ndarray:
        acc = np.logaddexp.reduceat(child_vals, self._starts[level])
        acc += 0.0  # a lone child's -0.0 becomes 0.0, as logaddexp(-inf, -0.0) does
        return acc

    # -- the three sweeps ------------------------------------------------

    def _fold(self, q: float, t: float, N: int, best) -> list[np.ndarray]:
        """Bottom-up optimum per node over antichains of its subtree: ``best``
        (np.minimum for coverings, np.maximum for packings) of the node's own
        weight, where its order is at least N, and its children's sum."""
        _check_window(N, self.D, self.k)
        top = self.D + self.k
        vals = [self._weights(q, t, top)]
        for level in range(top - 1, -1, -1):
            acc = self._children_logsum(level, vals[-1])
            vals.append(best(self._weights(q, t, level), acc) if level - self.k >= N else acc)
        return vals[::-1]

    def covering_log(self, q: float, t: float, N: int) -> float:
        """Exact infimum over centered coverings by balls of order N..D: every
        centered dyadic ball is a cylinder meeting K.  Nonincreasing in D."""
        return float(self._fold(q, t, N, np.minimum)[0][0])

    def packing_log(self, q: float, t: float, N: int) -> float:
        """Exact supremum over packings with orders N..D; a lower bound for the
        supremum over unbounded orders, nondecreasing in D."""
        return float(self._fold(q, t, N, np.maximum)[0][0])

    def outer_log(self, q: float, t: float, N: int, cover_depth: int) -> float:
        """Infimum over cylinder-partition covers at depths <= cover_depth of the
        per-piece packing value: an upper bound, not exact at this depth."""
        packs = self._fold(q, t, N, np.maximum)  # checks the order window first
        if cover_depth < 0 or cover_depth > self.D:
            raise ValueError(f"cover depth {cover_depth} outside [0, {self.D}]")
        # best usable ancestor-ball weight along each path, top-down
        anc = np.full(1, -math.inf)
        ancs = [anc]
        for level in range(1, cover_depth + 1):
            if N <= (level - 1) - self.k <= self.D:  # the parent's order is usable
                anc = np.maximum(anc, self._weights(q, t, level - 1))
            anc = anc[self.parents[level]]
            ancs.append(anc)
        # restricted packing value of K inside each depth-cover_depth piece
        outer = np.maximum(packs[cover_depth], ancs[cover_depth])
        for level in range(cover_depth - 1, -1, -1):
            acc = self._children_logsum(level, outer)
            outer = np.minimum(np.maximum(packs[level], ancs[level]), acc)
        return float(outer[0])


def antichain_oracle(
    model: MeasureModel, K: CylinderSet, q: float, t: float, N: int, k: int, D: int, mode: str
) -> float:
    """Brute-force optimum over explicitly enumerated antichains (log value).

    mode="min" enumerates all covering antichains, mode="max" all packings
    (including partial selections).  Test-only; refuses oversized trees.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    if K.is_empty:
        raise ValueError("pre-measures need a non-empty cylinder set")
    _check_window(N, D, k)
    space = model.space
    _refuse_long_words(space, D + k + 1, 1 << 16)  # bounds the tree's node count
    packing = mode == "max"
    budget = [0]

    def weight(w: Word) -> float:
        return math.exp(psi_log(q, model.log_mass(w)) - t * (len(w) - k))

    def options(w: Word) -> np.ndarray:
        """Values of every admissible antichain selection inside the subtree of w."""
        n = len(w) - k
        opts: list[np.ndarray] = []
        if N <= n <= D:
            own = [weight(w)]
            if packing:
                own.append(0.0)  # a packing may leave this subtree empty
            opts.append(np.asarray(own))
        if n < D:
            combo = np.zeros(1)
            for c in space.children(w):
                if not K.intersects(c):
                    continue
                combo = np.add.outer(combo, options(c)).ravel()
                budget[0] += combo.size
                if budget[0] > _MAX_ORACLE_OPTIONS:
                    raise TooLargeError("oracle antichain enumeration exceeded cap")
            opts.append(combo)
        return np.concatenate(opts)

    vals = options(())
    best = float(np.max(vals) if packing else np.min(vals))
    return math.log(best) if best > 0 else -math.inf
