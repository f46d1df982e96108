"""Cylinder-mass measure models: Bernoulli, Markov, Gibbs, and mixtures.

Every model assigns a mass to each admissible cylinder, additively over
children, with the empty word carrying mass 1.  Masses underflow
quickly, so every model works in log masses alone.

Bernoulli, Markov and Gibbs share one chain core, the transfer-operator
form: the states are blocks (the admissible words of one length d), with
an initial law on blocks and a block-to-block transition matrix.
Bernoulli and Markov are chains on single symbols (d = 1; every row of a
Bernoulli matrix is p), and Gibbs is the (r-1)-block chain built from the
Perron data of its potential.  A word shorter than d has the summed
initial mass of the blocks it starts; every symbol past d adds one log
transition.  Mass consumers go through one of two steps: ``extend`` takes
a whole level of the word tree to the next (children in lexicographic
order, each child's log mass from its parent's), and
``log_mass_prefixes`` walks one word.  ``Mixture`` extends both of its
components and joins their masses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import ConvergenceError, SpaceMismatchError, TooLargeError
from .perron import perron_triple
from .potential import Potential
from .space import ShiftSpace, Word

_TOL = 1e-12
_BLOCK_WORDS = 1 << 16  # the most words one block of a level walk holds


def logsumexp(a: np.ndarray) -> float:
    """Stable log(sum(exp(a))); handles -inf entries and empty input."""
    return _logsumexp_in_place(np.array(a, dtype=float))


def _logsumexp_in_place(a: np.ndarray) -> float:
    """``logsumexp`` of a float array, computed in ``a``, which it overwrites."""
    if a.size == 0:
        return -math.inf
    hi = float(a.max())
    if math.isinf(hi):
        return hi
    np.subtract(a, hi, out=a)
    return hi + math.log(float(np.exp(a, out=a).sum()))


class MeasureModel:
    """Base class: immutable, pure mass queries, shareable across workers.

    A level of the word tree is a pair (states, log_masses) with one entry
    per word; states are opaque to callers, who only pass them back to
    ``extend`` and ``select``.
    """

    kind: str
    space: ShiftSpace

    def root(self) -> tuple[object, np.ndarray]:
        """The level holding only the empty word."""
        raise NotImplementedError

    def extend(self, states, log_masses: np.ndarray, last: bool = False) -> tuple:
        """All admissible one-symbol extensions of a level, in lexicographic
        order: (grid, states, log masses).  ``grid`` is the boolean (parent,
        symbol) grid whose True cells, in row-major order, are the
        children, so ``np.nonzero(grid)`` gives each child's parent index
        and last symbol; it is a read-only broadcast of True when every
        cell is a child.  Zero-mass children are included, with log mass
        -inf.  On the ``last`` level walked the children's states are not
        built, and None stands for them."""
        raise NotImplementedError

    def select(self, states, idx):
        """The states at positions ``idx`` of a level."""
        raise NotImplementedError

    def log_mass_prefixes(self, w: Word) -> np.ndarray:
        """Log masses of w[:j] for j = 0..len(w), in one pass over w."""
        raise NotImplementedError

    def log_mass(self, w: Word) -> float:
        return float(self.log_mass_prefixes(w)[-1])

    def sample_word(self, n: int, rng: np.random.Generator) -> Word:
        raise NotImplementedError

    def one_step_log_bound(self) -> float | None:
        """log of the analytic doubling bound, +inf if unbounded, None if unknown."""
        return None


class Chain(MeasureModel):
    """Block chain: ``states`` are the admissible words of one length d,
    ``init`` their initial law and ``T`` the block-to-block transition
    matrix.  These two arrays are the chain's whole law, held once: a
    Bernoulli model's p is ``init`` (and every row of ``T``), a Markov
    model's pi and P are ``init`` and ``T``, and a Gibbs model's mu and Q
    are too.

    Internally every admissible word shorter than d, and every block, is a
    node (node 0 is the empty word).  ``_next[node, a]`` is the node reached
    by appending symbol a (-1 if inadmissible) and ``_step[node, a]`` the
    log weight of that step: below length d it is the child's own log mass,
    a marginal of init; from a block it is the log transition, added to the
    parent's log mass.
    """

    def __init__(self, space: ShiftSpace, states: list[Word], init: np.ndarray, T: np.ndarray):
        self.space = space
        self.states = states
        self.init = init
        self.T = T
        with np.errstate(divide="ignore"):
            log_init, log_T = np.log(init), np.log(T)
        d = len(states[0])
        index = {u: i for i, u in enumerate(states)}
        starts: dict[Word, list] = {}  # the init of the blocks each prefix starts, in block order
        for u, i in index.items():
            for j in range(d):
                starts.setdefault(u[:j], []).append(init[i])
        prefixes = sorted(starts)
        node = {u: i for i, u in enumerate(prefixes)}
        node.update((u, len(prefixes) + i) for i, u in enumerate(states))
        nxt = np.full((len(node), space.alphabet_size), -1, dtype=np.int32)
        step = np.full(nxt.shape, -math.inf)
        # 0/1 block-to-block transitions the space allows: T's support when no
        # admissible transition has probability zero
        self.adjacency = np.zeros((len(states), len(states)), dtype=bool)
        for u, s in node.items():
            for c in space.children(u):
                a = c[-1]
                if len(c) < d:
                    total = float(np.sum(starts[c]))
                    nxt[s, a] = node[c]
                    step[s, a] = math.log(total) if total > 0 else -math.inf
                elif len(c) == d:
                    nxt[s, a] = node[c]
                    step[s, a] = log_init[index[c]]
                else:
                    nxt[s, a] = node[c[1:]]
                    step[s, a] = log_T[index[u], index[c[1:]]]
                    self.adjacency[index[u], index[c[1:]]] = True
        self._index = index
        self._n_prefix = len(prefixes)
        self._next = nxt
        self._step = step
        self._ok = nxt >= 0
        self._full = bool(self._ok.all())  # every node has every symbol as a child
        # plain lists: per-symbol lookups in Python are faster than numpy scalars
        self._next_rows = nxt.tolist()
        self._step_rows = step.tolist()
        # the CDFs of init and of each block's row of T over its successors, per symbol
        succ = nxt[len(prefixes):] - len(prefixes)
        rows = np.where(succ >= 0, T[np.arange(len(states))[:, None], np.maximum(succ, 0)], 0.0)
        cdf = np.cumsum(init)[None], np.cumsum(rows, axis=1)
        (self._init_cdf,), self._succ_cdf = ((c / c[:, -1:]).tolist() for c in cdf)

    def root(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(1, dtype=np.int32), np.zeros(1)

    def select(self, states: np.ndarray, idx) -> np.ndarray:
        return states[idx]

    def extend(self, states: np.ndarray, log_masses: np.ndarray, last: bool = False):
        lm = self._step[states]
        if states.size and states[0] >= self._n_prefix:  # one level is one word length
            lm += log_masses[:, None]
        if self._full:  # every cell is a child: views, not masked copies, of the grid
            grid = np.broadcast_to(True, lm.shape)
            return grid, None if last else self._next[states].ravel(), lm.ravel()
        grid = self._ok[states]
        lm = lm[grid]  # before the states' gather, so the two grids never coexist
        return grid, None if last else self._next[states][grid], lm

    def log_mass_prefixes(self, w: Word) -> np.ndarray:
        self.space.require_admissible(w)
        nxt, step = self._next_rows, self._step_rows
        out = [0.0]
        s = 0
        for a in w:
            out.append(step[s][a] if s < self._n_prefix else out[-1] + step[s][a])
            s = nxt[s][a]
        return np.asarray(out)

    def sample_word(self, n: int, rng: np.random.Generator) -> Word:
        """A word drawn from the chain: a block from ``init``, then one symbol
        per draw from the m-entry CDF of the block's successors, one uniform
        per draw; ``Generator.choice(p=T[i])``'s dense row CDF adds only exact
        zeros between those consecutive blocks, so the words and state are its."""
        if n == 0:
            return ()
        u = rng.random(1 + max(0, n - len(self.states[0]))).tolist()
        i = bisect_right(self._init_cdf, u[0])
        word, s = list(self.states[i]), self._n_prefix + i
        for x in u[1:]:
            a = bisect_right(self._succ_cdf[s - self._n_prefix], x)
            word.append(a)
            s = self._next_rows[s][a]
        return tuple(word[:n])

    def q_power(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        """Entrywise q-powers of ``init`` and ``T``; exact zeros stay 0 at every q.
        Raises ConvergenceError when the power of T underflows to the zero
        matrix or overflows to inf: it then has no Perron root."""

        def power(a: np.ndarray) -> np.ndarray:
            out = np.zeros_like(a)
            pos = a > 0
            with np.errstate(over="ignore"):
                out[pos] = a[pos] ** q
            return out

        T_q = power(self.T)
        if not (T_q.any() and np.isfinite(T_q).all()):
            raise ConvergenceError(f"the entrywise {q}-power of the transition matrix "
                                   "under- or overflows")
        return power(self.init), T_q

    def one_step_log_bound(self) -> float:
        """Conditionals are marginal ratios of init below the block length, then T's entries."""
        worst = max(0.0, _worst_step(self, 1, len(self.states[0]) - 1))
        mask = self.T > 0
        if (self.adjacency & ~mask).any():
            return math.inf
        return max(worst, float(-np.log(self.T[mask].min())))

    def log_potential(self) -> Potential:
        """The locally constant potential log T on words of length d + 1."""
        d = len(self.states[0])
        with np.errstate(divide="ignore"):
            log_T = np.log(self.T)
        table = {
            w: float(log_T[self._index[w[:-1]], self._index[w[1:]]])
            for w in self.space.words_of_length(d + 1)
        }
        return Potential(self.space, d + 1, table)


class Bernoulli(Chain):
    kind = "bernoulli"

    def __init__(self, space: ShiftSpace, p):
        if not space.is_full:
            raise ValueError(
                "Bernoulli masses are additive only on the full shift; "
                "use a Markov model on a proper subshift"
            )
        p = np.asarray(p, dtype=float)
        if p.shape != (space.alphabet_size,):
            raise ValueError(
                f"need {space.alphabet_size} probabilities, got shape {p.shape}"
            )
        if not (p >= 0).all() or abs(p.sum() - 1.0) > _TOL:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        m = space.alphabet_size
        super().__init__(space, [(a,) for a in range(m)], p, np.tile(p, (m, 1)))


class Markov(Chain):
    kind = "markov"

    def __init__(self, space: ShiftSpace, P, pi=None):
        P = np.asarray(P, dtype=float)
        m = space.alphabet_size
        if P.shape != (m, m):
            raise ValueError(f"transition probabilities must be {m}x{m}, got {P.shape}")
        if not (P >= 0).all():
            raise ValueError("transition probabilities must be nonnegative")
        rowsums = P.sum(axis=1)
        bad = np.where(np.abs(rowsums - 1.0) > _TOL)[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} of P sums to {rowsums[bad[0]]}, expected 1")
        viol = np.argwhere((P > 0) & (space.transitions == 0))
        if viol.size:
            i, j = viol[0]
            raise ValueError(
                f"P[{i},{j}] > 0 but transition {i}->{j} is inadmissible in the space"
            )
        if pi is None:
            _, _, left = perron_triple(P)
            pi = left / left.sum()
        else:
            pi = np.asarray(pi, dtype=float)
            if pi.shape != (m,) or not (pi >= 0).all() or abs(pi.sum() - 1.0) > _TOL:
                raise ValueError("pi must be a probability vector over the alphabet")
            if np.max(np.abs(pi @ P - pi)) > 1e-10:
                raise ValueError("pi is not stationary for P")
        super().__init__(space, [(a,) for a in range(m)], pi, P)


class Gibbs(Chain):
    """Equilibrium measure of a locally constant potential.

    Realized as an (r-1)-block chain built from the Perron data of the
    weighted transfer matrix, which makes every cylinder mass exactly
    computable and gives the uniform mass-comparison property.
    """

    kind = "gibbs"

    def __init__(self, potential: Potential):
        self.potential = potential
        M, states = potential.transfer_matrix(1.0)
        lam, h, l = perron_triple(M)
        Q = M * h[None, :] / (lam * h[:, None])
        mu = l * h
        super().__init__(potential.space, states, mu / mu.sum(), Q)

    def log_potential(self) -> Potential:
        # the defining potential, not log Q, so the pressure identity is a real check
        return self.potential


class Mixture(MeasureModel):
    """Lazy convex combination of two models over the same space:
    mass = lam * mass_a + (1 - lam) * mass_b.

    A level's states carry both components' states and log masses.
    """

    kind = "mixture"

    def __init__(self, model_a: MeasureModel, model_b: MeasureModel, lam: float):
        if model_a.space != model_b.space:
            raise SpaceMismatchError("mixture components live on different spaces")
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"mixture weight {lam} outside [0, 1]")
        self.space = model_a.space
        self.a = model_a
        self.b = model_b
        self.lam = float(lam)

    def _join(self, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
        if self.lam == 1.0:
            return la
        if self.lam == 0.0:
            return lb
        out = la + math.log(self.lam)
        return np.logaddexp(out, lb + math.log1p(-self.lam), out=out)

    def root(self):
        sa, la = self.a.root()
        sb, lb = self.b.root()
        return (sa, la, sb, lb), self._join(la, lb)

    def select(self, states, idx):
        sa, la, sb, lb = states
        return self.a.select(sa, idx), la[idx], self.b.select(sb, idx), lb[idx]

    def extend(self, states, log_masses: np.ndarray, last: bool = False):
        # the children's masses are joined from the components' own
        sa, la, sb, lb = states
        grid, sa, la = self.a.extend(sa, la, last)
        _, sb, lb = self.b.extend(sb, lb, last)
        return grid, None if last else (sa, la, sb, lb), self._join(la, lb)

    def log_mass_prefixes(self, w: Word) -> np.ndarray:
        return self._join(self.a.log_mass_prefixes(w), self.b.log_mass_prefixes(w))

    def sample_word(self, n: int, rng: np.random.Generator) -> Word:
        pick_a = rng.random() < self.lam
        return (self.a if pick_a else self.b).sample_word(n, rng)


def _grid_cells(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each child's parent index and last symbol from an ``extend`` grid, as
    ``np.nonzero(grid)``; a broadcast of True (zero strides) is spelled out
    directly, several times faster, with symbols in the smallest dtype."""
    if grid.strides == (0, 0):
        n, m = grid.shape
        return np.repeat(np.arange(n), m), np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), n)
    return np.nonzero(grid)


def _at_least(value: int, low: int, name: str) -> None:
    """The one lower-bound rule of the library's orders, lengths, offsets and counts."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _refuse_long_words(space: ShiftSpace, length: int, cap: int = 1 << 24) -> None:
    """Refuse a level of more than ``cap`` words, counted as alphabet_size^length;
    alphabets have at least 2 symbols, so a length >= cap.bit_length() is refused at once.
    The message states the cap, not the length, which may have hundreds of digits."""
    if length >= cap.bit_length() or space.alphabet_size**length > cap:
        raise TooLargeError(f"refusing to enumerate more than {cap} words of one length")


def _log_mass_blocks(model: MeasureModel, length: int):
    """Log masses of the admissible length-``length`` words in lexicographic
    order, in blocks of at most ``_BLOCK_WORDS`` words: the last level of
    ``_walk`` (the root's at length 0), refused past the cap before any work.
    Map and filter, unlike a generator, hold no block while the next is built."""
    _refuse_long_words(model.space, length)
    if length == 0:
        return iter([model.root()[1]])
    return map(itemgetter(3), filter(lambda step: not step[0], _walk(model, *model.root(), length)))


def _walk(model: MeasureModel, states, log_masses: np.ndarray, left: int):
    """The one level walk over ``extend``: each step down ``left`` levels below
    the parents, as (levels left, grid, parents' and children's log masses).

    With r levels left on an m-letter alphabet, a run of consecutive
    parents whose subtrees hold at most run * m^r <= _BLOCK_WORDS words is
    extended r levels in one piece, which is one block; a single parent
    with a bigger subtree steps one level, and a longer run is split into
    runs of max(1, _BLOCK_WORDS // m^r) parents.  So a level of at most
    _BLOCK_WORDS words (counted as m^length) is one block, and the walk
    holds one block plus at most m parents per level above it.  Every
    child's log mass comes from its parent's as in a whole-level walk, so
    the blocks of the last level joined are that level bit for bit.
    """
    subtree = model.space.alphabet_size**left  # words below one parent, at most
    if len(log_masses) * subtree <= _BLOCK_WORDS:
        for left in range(left - 1, -1, -1):
            grid, states, kids = model.extend(states, log_masses, last=not left)
            yield left, grid, log_masses, kids
            log_masses = kids
    elif len(log_masses) == 1:
        grid, states, kids = model.extend(states, log_masses)
        yield left - 1, grid, log_masses, kids
        yield from _walk(model, states, kids, left - 1)
    else:
        run = max(1, _BLOCK_WORDS // subtree)
        for start in range(0, len(log_masses), run):
            part = slice(start, start + run)
            yield from _walk(model, model.select(states, part), log_masses[part], left)


def _worst_step(model: MeasureModel, first: int, last: int) -> float:
    """The largest parent-minus-child log mass over the children of lengths
    first..last in ``_walk``: +inf, at once, for a zero-mass child of a positive-mass
    parent, -inf for none; a zero-mass parent's children give nan and are skipped."""
    worst = -math.inf
    for left, grid, lm, kids in _walk(model, *model.root(), last):
        if last - left >= first:
            with np.errstate(invalid="ignore"):
                worst = float(np.fmax.reduce(np.repeat(lm, grid.sum(axis=1)) - kids, initial=worst))
            if worst == math.inf:
                return worst
    return worst


@lru_cache(maxsize=1)
def log_mass_array(model: MeasureModel, length: int) -> np.ndarray:
    """Log masses of all admissible length-``length`` cylinders, in
    lexicographic order (that of ``ShiftSpace.words_of_length``).

    A held level is one block of ``_log_mass_blocks``, at most ``_BLOCK_WORDS``
    words (512 KiB), counted as alphabet_size^length; a longer level is refused
    before any work.  The last (model, length) is cached; models are immutable.
    """
    _refuse_long_words(model.space, length, _BLOCK_WORDS)
    arr = next(_log_mass_blocks(model, length))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DoublingReport:
    """Empirical vs analytic bound for one dyadic step of radius doubling."""

    k: int
    n_max: int
    empirical_sup: float
    analytic_bound: float | None  # inf = unbounded, None = no closed form

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.empirical_sup) or (
            self.analytic_bound is not None and math.isinf(self.analytic_bound)
        )


def doubling_check(model: MeasureModel, k: int, n_max: int) -> DoublingReport:
    """Worst ratio of a cylinder's mass to its one-symbol extension's mass.

    Under the dyadic metric this is the ratio of the order-n ball at radius
    2^{-(k-1)} to the one at 2^{-k}, maximized over all admissible words
    with order up to n_max.  A zero-mass child makes the supremum infinite
    below a positive-mass parent and is skipped below a zero-mass one.
    """
    _at_least(k, 1, "radius index k")  # the doubled radius 2^{-(k-1)} exists
    _at_least(n_max, 1, "n_max")
    _refuse_long_words(model.space, n_max + k)
    empirical = math.exp(_worst_step(model, k + 1, n_max + k))
    bound_log = model.one_step_log_bound()
    bound = None if bound_log is None else math.exp(bound_log)
    # log accumulation drifts by ~1 ulp; the sup can never exceed the bound
    if bound is not None and bound < empirical < bound * (1 + 1e-9):
        empirical = bound
    return DoublingReport(k=k, n_max=n_max, empirical_sup=empirical, analytic_bound=bound)
