"""Cylinder-mass measure models: Bernoulli, Markov, Gibbs, and mixtures.

Every model assigns a mass to each admissible cylinder, additively over
children, with the empty word carrying mass 1.  All arithmetic has a
log-domain companion; masses underflow quickly, so log masses are primary
and mass() is a convenience wrapper.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SpaceMismatchError, TooLargeError
from .perron import perron_triple
from .potential import Potential
from .space import ShiftSpace, Word

_TOL = 1e-12


def logsumexp(a: np.ndarray) -> float:
    """Stable log(sum(exp(a))); handles -inf entries and empty input."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    hi = float(a.max())
    if math.isinf(hi):
        return hi
    return hi + math.log(float(np.exp(a - hi).sum()))


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

    def extend(self, states, log_masses: np.ndarray) -> tuple:
        """All admissible one-symbol extensions of a level, in lexicographic
        order: (each child's parent index, last symbol, states, log masses).
        Zero-mass children are included, with log mass -inf."""
        raise NotImplementedError

    def select(self, states, idx):
        """The states at positions ``idx`` of a level."""
        raise NotImplementedError

    def log_mass_prefixes(self, w: Word) -> np.ndarray:
        """Log masses of w[:j] for j = 0..len(w), in one pass over w."""
        raise NotImplementedError

    def log_mass(self, w: Word) -> float:
        return float(self.log_mass_prefixes(w)[-1])

    def mass(self, w: Word) -> float:
        return math.exp(self.log_mass(w))

    def sample_word(self, n: int, rng: np.random.Generator) -> Word:
        raise NotImplementedError

    def one_step_log_bound(self) -> float | None:
        """log of the analytic doubling bound, +inf if unbounded, None if unknown."""
        return None


class Chain(MeasureModel):
    """Block chain: ``states`` are the admissible words of one length d,
    ``init`` their initial law and ``T`` the block-to-block transition
    matrix; ``log_init`` and ``log_T`` are derived from them.

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
            self.log_init = np.log(init)
            self.log_T = np.log(T)
        d = len(states[0])
        index = {u: i for i, u in enumerate(states)}
        prefixes = sorted({u[:j] for u in states for j in range(d)})
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
                    total = float(np.sum([init[i] for v, i in index.items() if v[: len(c)] == c]))
                    nxt[s, a] = node[c]
                    step[s, a] = math.log(total) if total > 0 else -math.inf
                elif len(c) == d:
                    nxt[s, a] = node[c]
                    step[s, a] = self.log_init[index[c]]
                else:
                    nxt[s, a] = node[c[1:]]
                    step[s, a] = self.log_T[index[u], index[c[1:]]]
                    self.adjacency[index[u], index[c[1:]]] = True
        self._index = index
        self._n_prefix = len(prefixes)
        self._next = nxt
        self._step = step
        # plain lists: per-symbol lookups in Python are faster than numpy scalars
        self._next_rows = nxt.tolist()
        self._step_rows = step.tolist()

    def root(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(1, dtype=np.int32), np.zeros(1)

    def select(self, states: np.ndarray, idx) -> np.ndarray:
        return states[idx]

    def extend(self, states: np.ndarray, log_masses: np.ndarray):
        nxt = self._next[states]
        lm = self._step[states]
        if states.size and states[0] >= self._n_prefix:  # one level is one word length
            lm += log_masses[:, None]
        ok = nxt >= 0
        if ok.all():  # full shift: views, not masked copies, of the big child arrays
            n, m = ok.shape  # symbols in the smallest dtype: this level can be huge
            symbol = np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), n)
            return np.repeat(np.arange(n), m), symbol, nxt.ravel(), lm.ravel()
        parent, symbol = np.nonzero(ok)
        return parent, symbol, nxt[ok], lm[ok]

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
        if n == 0:
            return ()
        i = int(rng.choice(len(self.states), p=self.init))
        word = list(self.states[i])
        while len(word) < n:
            i = int(rng.choice(len(self.states), p=self.T[i]))
            word.append(self.states[i][-1])
        return tuple(word[:n])

    def one_step_log_bound(self) -> float:
        worst = 0.0
        # conditionals below the block length are marginal ratios of init
        states, lm = self.root()
        for _ in range(1, len(self.states[0])):
            parent, _, states, kids = self.extend(states, lm)
            for lp, lc in zip(lm[parent].tolist(), kids.tolist()):
                p, c = math.exp(lp), math.exp(lc)
                if p <= 0:
                    continue
                if c <= 0:
                    return math.inf
                worst = max(worst, math.log(p / c))
            lm = kids
        # at and beyond the block length the conditionals are entries of T
        mask = self.T > 0
        if (self.adjacency & ~mask).any():
            return math.inf
        return max(worst, float(-np.log(self.T[mask].min())))

    def log_potential(self) -> Potential:
        """The locally constant potential log T on words of length d + 1."""
        d = len(self.states[0])
        table = {
            w: float(self.log_T[self._index[w[:-1]], self._index[w[1:]]])
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
        if (p < 0).any() or abs(p.sum() - 1.0) > _TOL:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        self.p = p
        m = space.alphabet_size
        super().__init__(space, [(a,) for a in range(m)], p, np.tile(p, (m, 1)))

    def sample_word(self, n: int, rng: np.random.Generator) -> Word:
        # symbols are independent, so one draw gives the whole word
        return tuple(int(s) for s in rng.choice(self.space.alphabet_size, size=n, p=self.p))


class Markov(Chain):
    kind = "markov"

    def __init__(self, space: ShiftSpace, P, pi=None):
        P = np.asarray(P, dtype=float)
        m = space.alphabet_size
        if P.shape != (m, m):
            raise ValueError(f"transition probabilities must be {m}x{m}, got {P.shape}")
        if (P < 0).any():
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
            if pi.shape != (m,) or (pi < 0).any() or abs(pi.sum() - 1.0) > _TOL:
                raise ValueError("pi must be a probability vector over the alphabet")
            if np.max(np.abs(pi @ P - pi)) > 1e-10:
                raise ValueError("pi is not stationary for P")
        self.P = P
        self.pi = pi
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
        self.pressure_value = math.log(lam)
        Q = M * h[None, :] / (lam * h[:, None])
        mu = l * h
        mu = mu / mu.sum()
        self.Q = Q
        self.mu = mu
        super().__init__(potential.space, states, mu, Q)

    def log_potential(self) -> Potential:
        # the defining potential, not log Q, so the pressure identity is a real check
        return self.potential


class Mixture(MeasureModel):
    """Lazy convex combination of two models over the same space.

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
        return np.logaddexp(la + math.log(self.lam), lb + math.log1p(-self.lam))

    def root(self):
        sa, la = self.a.root()
        sb, lb = self.b.root()
        return (sa, la, sb, lb), self._join(la, lb)

    def select(self, states, idx):
        sa, la, sb, lb = states
        return self.a.select(sa, idx), la[idx], self.b.select(sb, idx), lb[idx]

    def extend(self, states, log_masses: np.ndarray):
        # the children's masses are joined from the components' own
        sa, la, sb, lb = states
        parent, symbol, sa, la = self.a.extend(sa, la)
        _, _, sb, lb = self.b.extend(sb, lb)
        return parent, symbol, (sa, la, sb, lb), self._join(la, lb)

    def log_mass_prefixes(self, w: Word) -> np.ndarray:
        return self._join(self.a.log_mass_prefixes(w), self.b.log_mass_prefixes(w))

    def sample_word(self, n: int, rng: np.random.Generator) -> Word:
        pick_a = rng.random() < self.lam
        return (self.a if pick_a else self.b).sample_word(n, rng)


def mixture(model_a: MeasureModel, model_b: MeasureModel, lam: float) -> Mixture:
    """Formal convex combination: mass = lam * mass_a + (1 - lam) * mass_b."""
    return Mixture(model_a, model_b, lam)


def _refuse_long_words(space: ShiftSpace, length: int) -> None:
    """Refuse a level of more than 2^24 words, counted as alphabet_size^length."""
    if space.alphabet_size**length > (1 << 24):
        raise TooLargeError(f"refusing to enumerate ~{space.alphabet_size}^{length} words")


@lru_cache(maxsize=64)
def log_mass_array(model: MeasureModel, length: int) -> np.ndarray:
    """Log masses of all admissible length-``length`` cylinders, in
    lexicographic order (that of ``ShiftSpace.words_of_length``).

    Cached per (model, length); models are immutable so the cache is pure.
    """
    _refuse_long_words(model.space, length)
    states, arr = model.root()
    for _ in range(length):
        _, _, states, arr = model.extend(states, arr)
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
    with order up to n_max.  A zero-mass admissible child below a
    positive-mass parent makes the supremum infinite.
    """
    if k < 1:
        raise ValueError("doubling needs k >= 1 so that the doubled radius exists")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _refuse_long_words(model.space, n_max + k)
    worst_log = -math.inf

    # every parent on a level has positive mass: zero-mass children are dropped
    states, lm = model.root()
    for length in range(1, n_max + k + 1):
        parent, _, states, kids = model.extend(states, lm)
        live = ~np.isneginf(kids)
        if length >= k + 1:
            if not live.all():
                worst_log = math.inf
                break
            worst_log = max(worst_log, float((lm[parent] - kids).max()))
        keep = np.flatnonzero(live)  # zero-mass subtrees contribute no ratios below
        states, lm = model.select(states, keep), kids[keep]

    empirical = math.exp(worst_log) if worst_log != math.inf else math.inf
    bound_log = model.one_step_log_bound()
    bound = None if bound_log is None else (
        math.inf if math.isinf(bound_log) else math.exp(bound_log)
    )
    if bound is not None and math.isfinite(bound) and math.isfinite(empirical):
        # log accumulation drifts by ~1 ulp; the sup can never exceed the bound
        if empirical > bound and empirical < bound * (1 + 1e-9):
            empirical = bound
    return DoublingReport(k=k, n_max=n_max, empirical_sup=empirical, analytic_bound=bound)
