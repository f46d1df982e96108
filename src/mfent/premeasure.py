"""Finite-depth covering / packing pre-measures on the cylinder tree.

The covering infimum and the packing supremum are exact optimizations over
antichains of cylinders meeting a compact cylinder set, solved by one
bottom-up fold over levels of units built by one loop through the
measure's ``extend``.  One rule makes the units of every measure: below a
depth d each word is its own unit, and from d on a chain's words merge
into (chain node, trie state) pairs, one small table per level; a
mixture's d lies below the tree, so it folds over its explicit words.
Restricting to cylinders loses nothing here: centered dyadic dynamical
balls *are* cylinders, and a disjoint family of cylinders is exactly an
antichain.

The refined packing takes an infimum of summed packing values over covers
of K.  Over finite cylinder partitions of K that infimum is the packing
value itself: the packing pre-measure is subadditive over such a partition,
since each ball of a packing of K has its centre in one piece, so the
trivial partition {K} attains it.  Arbitrary countable covers, over which
the infimum can be smaller, are not computed.

``TreeEvaluator`` is the one entry point.  It is built once per (model,
K, k) at the largest D + k; each sweep folds from its own D <= that, and
a depth-D evaluator holds every shallower one level for level, so the
values are those of a fresh evaluator of depth D bit for bit.  Its
constructor refuses k < 0, D < 1 and tables or trees past the size cap
before building anything; its sweeps refuse N outside [1, D] (as the
brute-force ``antichain_oracle`` does), a D above their evaluator's, and
weights outside ``_check_range``.

Everything runs in log domain; -inf encodes value 0 and +inf the blowup
of the power gauge at zero mass with negative exponent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, TooLargeError
from .measures import Chain, MeasureModel, _at_least, _grid_cells, _refuse_long_words
from .space import CylinderSet, Word

_MAX_TREE_NODES = 1 << 22
_MAX_ORACLE_OPTIONS = 1 << 21


def psi_log(s: float, log_x):
    """The power gauge x^s on ball masses in log domain, elementwise over an
    array log_x: s * log_x, and 0 for s = 0 (x^0 = 1, also at x = 0).
    log_x = -inf encodes x = 0, where s * log_x is already +inf for s < 0
    and -inf for s > 0."""
    if s == 0:
        return np.zeros_like(log_x, dtype=float) if np.ndim(log_x) else 0.0
    return s * log_x


def _check_range(q: float, least: float, length: int, t: float = 0.0, n: int = 0) -> None:
    """The one numeric-range rule: ConvergenceError unless every weight q log m - t n
    summed is finite, i.e. q ``least`` (the least finite log m at ``length``), t n at the
    largest order n and their difference; past it the fold would sum infinities of both signs."""
    if not math.isfinite(q * least):
        raise ConvergenceError(f"the gauge q log m overflows at q = {q}, length {length}")
    if not math.isfinite(q * least - t * n):
        raise ConvergenceError(f"the weight q log m - t n overflows at t = {t}, order {n}")


def _check_window(N: int, D: int, k: int) -> None:
    """The order window of every pre-measure: balls of order N..D at
    radius offset k, with 1 <= N <= D and k >= 0."""
    _at_least(N, 1, "minimum order N")
    if D < N:
        raise ValueError(f"order cap D={D} below N={N}")
    _at_least(k, 0, "depth offset k")


def _refuse_big(model: MeasureModel, K: CylinderSet, D: int, k: int) -> None:
    """Refuse an evaluator of depth D + k past the cap before any work.  A
    chain's sweeps step tables of at most (D + k + 1) levels x chain nodes x
    trie states x alphabet entries.  Any other model's sweeps fold over its
    cylinder tree, whose level l holds the admissible length-l words meeting
    K, whatever the measure; the count steps integer word counts per (last
    symbol, trie state) from level to level.  The messages state the cap and
    never the depth, which may have hundreds of digits."""
    depth = D + k
    table, root = K.trie()
    if isinstance(model, Chain):
        nodes, m = model._next.shape
        if (depth + 1) * nodes * len(table) * m > _MAX_TREE_NODES:
            raise TooLargeError(
                f"a chain table of D + k + 1 levels x {nodes} chain nodes x "
                f"{len(table)} trie states x {m} symbols exceeds {_MAX_TREE_NODES} entries"
            )
        return
    if depth + 1 > _MAX_TREE_NODES:  # every level keeps at least one node
        raise TooLargeError(f"a cylinder tree of D + k + 1 levels exceeds {_MAX_TREE_NODES} nodes")
    trie, symbol = np.nonzero(table >= 0)
    allowed = K.space.transitions.astype(np.int64)
    into = np.zeros(table.shape, dtype=np.int64)  # words per (trie state, next symbol)
    into[root] = 1
    total = 1
    for level in range(1, depth + 1):
        count = np.zeros(table.shape[::-1], dtype=np.int64)  # per (last symbol, trie state)
        np.add.at(count, (symbol, table[trie, symbol]), into[trie, symbol])
        total += int(count.sum())
        if total > _MAX_TREE_NODES:
            raise TooLargeError(f"cylinder tree exceeds {_MAX_TREE_NODES} nodes at depth {level}")
        into = count.T @ allowed


def _logsum(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """log of the sum of exp(vals) over each run that begins at ``starts``."""
    acc = np.logaddexp.reduceat(vals, starts)
    acc += 0.0  # a lone child's -0.0 becomes 0.0, as logaddexp(-inf, -0.0) does
    return acc


class TreeEvaluator:
    """Pre-measure sweeps over the cylinder tree of a compact set, per (q, t).

    A sweep folds bottom-up over levels of units.  A unit stands for the
    tree nodes of one level whose fold values agree up to an offset: a
    node's value is its offset plus its unit's entry.  One rule makes the
    units of every model.  Below a depth d each word is its own unit and
    holds its absolute log mass (offset 0).  For a ``Chain`` d is the block
    length; from d on every mass below a word is the word's own times steps
    that depend only on its (chain node, K-trie state) pair, so the words
    merge into those pairs, each offset is psi_log of the word's log mass,
    and one small table per level stands for a whole tree level.  A
    ``Mixture``, whose masses add, never merges: its d lies below the tree.

    ``level_words[l]`` holds the explicit level l below d (a row per word,
    in lexicographic order): all D + k + 1 levels for a mixture.  Every
    unit keeps a child, so sweeps use ``reduceat``; root-finding in t and
    every schedule entry re-run only these vectorized sweeps.

    Levels above the minimum order fold once per q into per-unit weights;
    a sweep folds D + k ... N + k and closes with one log-sum-exp (no ball
    sits above level N + k, so the fold there is a plain log-sum, which
    does not depend on t).  A unit's forward weight is the log-sum of its
    nodes' offsets (0 on a word level); it and psi_log of every distinct
    mass table are cached for the last q swept, and serve every t, N and D
    at that q.
    """

    def __init__(self, model: MeasureModel, K: CylinderSet, k: int, D: int):
        if K.is_empty:
            raise ValueError("pre-measures need a non-empty cylinder set")
        if K.space != model.space:
            raise ValueError("cylinder set and measure live on different spaces")
        _check_window(1, D, k)
        self.k = k
        self.D = D
        self.model = model
        self._table, root = K.trie()
        self._q = None  # the q whose forward weights and gauge tables are cached
        self._census = None
        _refuse_big(model, K, D, k)
        symbol = np.min_scalar_type(model.space.alphabet_size - 1)
        self.level_words = [np.zeros((1, 0), dtype=symbol)]
        self._levels(model, root)

    def _levels(self, model: MeasureModel, root: int) -> None:
        """Every level down to depth D + k.  Each level steps the measure's
        ``extend`` from the units' own entries and K's prefix trie together,
        keeping the children that meet K.  Below d each word is a unit
        holding its log mass.  From d on the children merge into (chain
        node, trie state) pairs, as sorted keys node * trie states + trie
        state, each holding 0, so ``extend`` gives each edge its log mass
        step.  A merged level keeps one edge table in (parent, symbol)
        order: the child pair, the step and the parent pair, which the fold
        and the forward weights both read.  From a merged level whose pairs
        are the level before's, every later level repeats its tables, so
        those levels share its arrays, made read-only."""
        width = len(self._table)
        top = self.D + self.k
        d = len(model.states[0]) if isinstance(model, Chain) else top + 1
        states, lm = model.root()
        words, trie, keys = self.level_words[0], np.array([root]), None
        self._lm, self._child, self._steps, self._starts, self._par = [lm], [], [], [], []
        per_level = (self._lm, self._child, self._steps, self._starts, self._par)
        for level in range(1, top + 1):
            grid, states, lm = model.extend(states, lm)
            par, sym = _grid_cells(grid)
            trie = self._table[trie[par], sym]
            keep = np.flatnonzero(trie >= 0)
            if len(keep) < len(par):
                par, sym, trie = par[keep], sym[keep], trie[keep]
                states, lm = model.select(states, keep), lm[keep]
            starts = np.flatnonzero(np.diff(par, prepend=-1))
            if level < d:
                words = np.column_stack((words[par], sym.astype(words.dtype, copy=False)))
                self.level_words.append(words)
                tables = (lm, slice(None), None, starts, None)
            else:
                last = keys
                keys, child = np.unique(states * width + trie, return_inverse=True)
                step, lm = lm, np.zeros(len(keys))
                tables = (lm, child, step, starts, par)
                if last is not None and np.array_equal(keys, last):
                    for levels, table in zip(per_level, tables):
                        table.flags.writeable = False
                        levels.extend([table] * (top + 1 - level))
                    break
                states, trie = keys // width, keys % width
            for levels, table in zip(per_level, tables):
                levels.append(table)

    # -- the sweeps ------------------------------------------------------

    def _gauge(self, q: float, table: np.ndarray) -> np.ndarray:
        """psi_log(q, table) for the q being swept, computed once per distinct
        table: the levels that repeat a chain's tables share one array, so
        they share its gauge too.  Read-only, as the cache hands it out."""
        gauged = self._gauged.get(id(table))
        if gauged is None:
            gauged = self._gauged[id(table)] = psi_log(q, table)
            gauged.flags.writeable = False
        return gauged

    def _forward(self, q: float, level: int) -> np.ndarray:
        """Each unit's forward weight at ``level``: the log-sum of its nodes'
        offsets.  On a word level it is 0; on a merged level it is the
        log-sum over the unit's in-edges, in edge order, of the parent's
        weight plus the step gauge the fold adds along the edge.  Built to
        the deepest level asked for and kept for the q being swept."""
        weights = self._forward_weights
        for l in range(len(weights) - 1, level):
            n = len(self._lm[l + 1])
            if self._par[l] is None:
                weights.append(np.broadcast_to(0.0, n))
                continue
            out = np.full(n, -np.inf)
            edges = weights[l][self._par[l]] + self._gauge(q, self._steps[l])
            np.logaddexp.at(out, self._child[l], edges)
            weights.append(out)
        return weights[level]

    def census(self) -> tuple[int, float]:
        """(words, least) at the deepest level D + k: its node count and
        smallest finite log mass (at most 0.0), pushed per unit along the
        edge tables, zero-mass steps left out; rounding is monotone, so
        ``least`` is exact.  Computed once per evaluator."""
        if self._census is None:
            count, least = np.ones(1), np.zeros(1)
            top = self.D + self.k
            for l in range(top):
                n, par, child = len(self._lm[l + 1]), self._par[l], self._child[l]
                if par is None:
                    count, least = np.ones(n), np.zeros(n)
                    continue
                count, steps = np.bincount(child, count[par], n), self._steps[l]
                edges = least[par] + np.where(steps == -np.inf, np.inf, steps)
                least = np.full(n, np.inf)
                np.minimum.at(least, child, edges)
            masses = least + self._lm[top]
            self._census = int(count.sum()), float(masses[np.isfinite(masses)].min(initial=0.0))
        return self._census

    def _weights(self, q: float, t: float, level: int) -> np.ndarray:
        """Each unit's own ball weight, relative to its offset."""
        return self._gauge(q, self._lm[level]) - t * (level - self.k)

    def _ordered(self, q: float, t: float, N: int, D: int, best) -> float:
        """The root's value.  Per unit, from level D + k up to level N + k,
        the optimum over antichains of its subtree is ``best`` (np.minimum
        for coverings, np.maximum for packings) of the unit's own weight and
        its children's sum.  No ball sits above level N + k and the fold
        there only sums, so it closes with one log-sum-exp against the
        forward weights of that level."""
        _check_window(N, D, self.k)
        if D > self.D:
            raise ValueError(f"order cap D={D} above the evaluator's depth D={self.D}")
        _check_range(q, (self._census or self.census())[1], self.D + self.k, t, D)
        if q != self._q:  # the cached forward weights and gauges are another q's
            self._q, self._gauged, self._forward_weights = q, {}, [np.zeros(1)]
        top = D + self.k
        vals = self._weights(q, t, top)
        for level in range(top - 1, N + self.k - 1, -1):
            kids = vals[self._child[level]]
            if self._steps[level] is not None:  # a child's offset is its parent's plus this
                kids = kids + self._gauge(q, self._steps[level])
            vals = best(self._weights(q, t, level), _logsum(kids, self._starts[level]))
        vals = vals + self._forward(q, N + self.k)
        # never -0.0, as in _logsum, whether or not reduce starts from the identity -inf
        return float(np.logaddexp.reduce(vals) + 0.0)

    def covering_log(self, q: float, t: float, N: int, D: int | None = None) -> float:
        """Exact infimum over centered coverings by balls of order N..D (by
        default the evaluator's own D): every centered dyadic ball is a
        cylinder meeting K.  Nonincreasing in D."""
        return self._ordered(q, t, N, self.D if D is None else D, np.minimum)

    def packing_log(self, q: float, t: float, N: int, D: int | None = None) -> float:
        """Exact supremum over packings with orders N..D (by default the
        evaluator's own D); a lower bound for the supremum over unbounded
        orders, nondecreasing in D."""
        return self._ordered(q, t, N, self.D if D is None else D, np.maximum)

    def outer_log(self, q: float, t: float, N: int, depth: int, D: int | None = None) -> float:
        """The packing refined over cylinder-partition covers at depths <=
        ``depth``, with orders N..D (by default the evaluator's own D).  The
        trivial cover attains it (see the module docstring), so this is
        ``packing_log``'s value bit for bit at every cover depth in [0, D];
        any other depth is refused.  Kept only for the benchmark's
        exponent-scan jobs, until the benchmark drops them (ROADMAP item 7)."""
        D = self.D if D is None else D
        _check_window(N, D, self.k)
        if not 0 <= depth <= D:
            raise ValueError(f"cover depth {depth} outside [0, {D}]")
        return self._ordered(q, t, N, D, np.maximum)


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
                below = options(c)
                budget[0] += combo.size * below.size  # counted before the outer sum allocates it
                if budget[0] > _MAX_ORACLE_OPTIONS:
                    raise TooLargeError("oracle antichain enumeration exceeded cap")
                combo = np.add.outer(combo, below).ravel()
            opts.append(combo)
        return np.concatenate(opts)

    vals = options(())
    best = float(np.max(vals) if packing else np.min(vals))
    return math.log(best) if best > 0 else -math.inf
