import math

import numpy as np
import pytest

import mfent as mf
from mfent.space import is_prefix

FULL2 = [[1, 1], [1, 1]]
GOLDEN = [[1, 1], [1, 0]]
PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="session")
def full2():
    return mf.make_shift(2, FULL2)


@pytest.fixture(scope="session")
def golden():
    return mf.make_shift(2, GOLDEN)


@pytest.fixture(scope="session")
def fair(full2):
    return mf.Bernoulli(full2, [0.5, 0.5])


@pytest.fixture(scope="session")
def biased(full2):
    return mf.Bernoulli(full2, [0.25, 0.75])


@pytest.fixture(scope="session")
def parry(golden):
    # maximal-entropy Markov measure on the golden-mean shift
    p = 1 / PHI
    return mf.Markov(golden, [[p, 1 - p], [1.0, 0.0]])


@pytest.fixture(scope="session")
def gibbs2(full2):
    pot = mf.Potential(
        mf.make_shift(2, FULL2),
        2,
        {
            (0, 0): math.log(0.3),
            (0, 1): math.log(0.7),
            (1, 0): math.log(0.6),
            (1, 1): math.log(0.4),
        },
    )
    return mf.Gibbs(pot)


@pytest.fixture(scope="session")
def gibbs3(full2):
    # r = 3: a 2-block chain, so words of length 1 are marginals of mu
    weights = (-0.9, 0.3, -0.2, 0.7, 0.1, -1.1, 0.4, -0.5)
    table = dict(zip(full2.words_of_length(3), weights))
    return mf.Gibbs(mf.Potential(full2, 3, table))


@pytest.fixture(scope="session")
def bernoulli_gibbs(biased, gibbs3):
    return mf.Mixture(biased, gibbs3, 0.35)


@pytest.fixture(scope="session")
def stuck(full2):
    # every word holding a 1 has mass zero
    return mf.Bernoulli(full2, [1.0, 0.0])


@pytest.fixture(scope="session")
def sticky(full2):
    # 1 -> 1 is admissible but has probability zero
    return mf.Markov(full2, [[0.4, 0.6], [1.0, 0.0]])


def random_irreducible_markov(rng: np.random.Generator, m: int = 3):
    """Strictly positive stochastic matrix on the full m-shift."""
    P = rng.uniform(0.1, 1.0, size=(m, m))
    P /= P.sum(axis=1, keepdims=True)
    space = mf.make_shift(m, np.ones((m, m), dtype=int))
    return mf.Markov(space, P)


def whole_level(model, length):
    """The level walked whole, one extend per length: the reference the
    block walk must match bit for bit."""
    states, arr = model.root()
    for level in range(1, length + 1):
        _, states, arr = model.extend(states, arr, last=level == length)
    return arr


def mass(model, w):
    """A word's mass, the exp of its log mass."""
    return math.exp(model.log_mass(w))


def count_words(space, n):
    """The admissible length-n words, counted by powers of the 0/1
    transition matrix in exact integers."""
    if n == 0:
        return 1
    A, v = space.transitions.astype(np.int64), np.ones(space.alphabet_size, dtype=np.int64)
    for _ in range(n - 1):
        v = A @ v
    return int(v.sum())


def block_adjacency(chain):
    """A chain's 0/1 block-to-block matrix: block u steps to block v when v
    continues u's overlap u[1:] by a symbol the space allows after u[-1]."""
    allowed = chain.space.transitions
    return np.array([[u[1:] == v[:-1] and bool(allowed[u[-1], v[-1]]) for v in chain.states]
                     for u in chain.states])


def restrict(K, w):
    """The intersection of a cylinder set with the cylinder of w."""
    kept = [a if is_prefix(w, a) else w for a in K.members if is_prefix(a, w) or is_prefix(w, a)]
    return mf.CylinderSet(K.space, kept)


def union(K, L):
    """The union of two cylinder sets on one space."""
    if K.space != L.space:
        raise mf.SpaceMismatchError("cannot union cylinder sets over different spaces")
    return mf.CylinderSet(K.space, K.members | L.members)
