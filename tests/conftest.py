import math

import numpy as np
import pytest

import mfent as mf

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
    return mf.mixture(biased, gibbs3, 0.35)


def random_irreducible_markov(rng: np.random.Generator, m: int = 3):
    """Strictly positive stochastic matrix on the full m-shift."""
    P = rng.uniform(0.1, 1.0, size=(m, m))
    P /= P.sum(axis=1, keepdims=True)
    space = mf.make_shift(m, np.ones((m, m), dtype=int))
    return mf.Markov(space, P)
