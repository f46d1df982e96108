"""Workload inputs, generated from the workload seed.

Each workload is a fixed list of jobs, drawn from one of ``INSTANCES``
input sets that the workload seed selects.  A job is either one ``mfent`` CLI
invocation (``kind == "cli"``) or one critical-exponent root find on a
shared tree (``kind == "root"``).  Every job carries the parameters its
correctness check needs, so the checks never re-derive inputs.

Only numpy is used here: input generation must not touch the program
under test, so that tracing sees nothing of it.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

PHI = (1 + math.sqrt(5)) / 2
FULL2 = {"alphabet": 2, "transitions": [[1, 1], [1, 1]]}
FULL3 = {"alphabet": 3, "transitions": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}
GOLDEN = {"alphabet": 2, "transitions": [[1, 1], [1, 0]]}
PARRY = {"kind": "markov", "P": [[1 / PHI, 1 - 1 / PHI], [1.0, 0.0]]}

# The two sigma=1.5 potentials come from this fixed generator seed, not
# from the workload seed.  Power-iteration cost of verify-gibbs on a
# sigma=1.5 draw ranges from 0.04 s to 4.3 s by seed, which would make
# the pass time of pointwise-oracles a draw of the seed.  This is the first
# generator seed whose draw shows both known defects: verify-gibbs fails
# with ConvergenceError at q=-3 and q=-2, and level-spectrum on its
# mixture with Bernoulli(0.3, 0.7) raises ValueError at q=1.  They are
# kept, so both defects are counted in every run.
ILL_CONDITIONED_SEED = 0


def gibbs_psi(rng: np.random.Generator, sigma: float) -> dict[str, float]:
    """Log-weights of an r=3 potential on the full 2-shift, drawn N(0, sigma^2)."""
    return {
        "".join(map(str, w)): float(rng.normal(0.0, sigma))
        for w in itertools.product((0, 1), repeat=3)
    }


def models(seed: int) -> dict[str, dict]:
    """The measure configs shared by the workloads, drawn from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    P = rng.uniform(0.1, 1.0, size=(3, 3))
    P /= P.sum(axis=1, keepdims=True)
    gibbs = {"kind": "gibbs", "r": 3, "psi": gibbs_psi(rng, 0.5)}
    bern = {"kind": "bernoulli", "p": [0.3, 0.7]}
    p0 = float(rng.uniform(0.2, 0.3))
    return {
        "markov3": {"kind": "markov", "P": P.tolist()},
        "gibbs": gibbs,
        "mixture": {"kind": "mixture", "lam": 0.5, "a": bern, "b": gibbs},
        "coin": {"kind": "bernoulli", "p": [p0, 1.0 - p0]},
    }


def ill_conditioned_potentials() -> list[dict[str, float]]:
    rng = np.random.default_rng([ILL_CONDITIONED_SEED, 3])
    return [gibbs_psi(rng, 1.5), gibbs_psi(rng, 1.5)]


def _cli(name: str, command: str, config: dict, seed: int = 0) -> dict:
    return {
        "name": name,
        "kind": "cli",
        "argv": [command, "--config", json.dumps(config), "--seed", str(seed)],
        "command": command,
        "config": config,
    }


def entropy_schedule(seed: int) -> list[dict]:
    m = models(seed)
    return [
        _cli("entropy-parry", "entropy", {
            "space": GOLDEN, "measure": PARRY, "K": [[]], "q": 0,
            "schedule": [[6, 6], [10, 10], [14, 14], [18, 18]],
        }),
        _cli("entropy-markov3", "entropy", {
            "space": FULL3, "measure": m["markov3"], "K": ["0", "12"], "q": 1.5,
            "schedule": [[3, 3], [5, 5], [7, 7], [9, 9]],
        }),
        _cli("entropy-mixture", "entropy", {
            "space": FULL2, "measure": m["mixture"], "K": ["01", "110"], "q": -1,
            "schedule": [[4, 4], [6, 10], [10, 14]],
        }),
    ]


def exponent_scan(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    qs = np.linspace(-3.0, 3.0, 13) + rng.uniform(-0.2, 0.2, 13)
    jobs = []
    for q in qs:
        for sweep in ("covering", "packing", "outer"):
            jobs.append({
                "name": f"root-{sweep}-q{q:+.3f}",
                "kind": "root",
                "sweep": sweep,
                "q": float(q),
            })
    return jobs


EXPONENT_SCAN_TREE = {"N": 12, "D": 18, "cover_depth": 6}


def partition_spectrum(seed: int) -> list[dict]:
    m = models(seed)
    ill_gibbs = {"kind": "gibbs", "r": 3, "psi": ill_conditioned_potentials()[0]}
    ill_mixture = dict(m["mixture"], b=ill_gibbs)
    wide = [float(q) for q in np.arange(-40.0, 40.5, 2.5)]
    return [
        _cli("spectrum-gibbs", "spectrum", {"space": FULL2, "measure": m["gibbs"]}),
        _cli("spectrum-markov3", "spectrum", {
            "space": FULL3, "measure": m["markov3"],
            "schedule": [[4, 4], [7, 7], [10, 10], [13, 13]],
        }),
        _cli("spectrum-mixture", "spectrum", {
            "space": FULL2, "measure": m["mixture"],
            "schedule": [[5, 5], [8, 8], [11, 11], [14, 14]],
        }),
        _cli("spectrum-coin-wide", "spectrum", {
            "space": FULL2, "measure": m["coin"], "q_grid": wide,
        }),
        _cli("level-gibbs", "level-spectrum", {"space": FULL2, "measure": m["gibbs"], "n": 16}),
        _cli("level-mixture", "level-spectrum", {"space": FULL2, "measure": m["mixture"], "n": 14}),
        _cli("level-mixture-s1.5", "level-spectrum", {"space": FULL2, "measure": ill_mixture, "n": 14}),
    ]


def pointwise_oracles(seed: int) -> list[dict]:
    m = models(seed)
    rng = np.random.default_rng([seed, 2])
    jobs = [
        _cli("local-gibbs", "local", {"space": FULL2, "measure": m["gibbs"], "n": 200, "count": 40},
             seed=int(rng.integers(1 << 31))),
        _cli("local-markov3", "local", {"space": FULL3, "measure": m["markov3"], "n": 200, "count": 40},
             seed=int(rng.integers(1 << 31))),
        _cli("doubling-markov3", "doubling", {"space": FULL3, "measure": m["markov3"], "k": 1, "n_max": 8}),
        _cli("doubling-gibbs", "doubling", {"space": FULL2, "measure": m["gibbs"], "k": 2, "n_max": 10}),
    ]
    ill = ill_conditioned_potentials()
    potentials = [
        ("s0.5a", gibbs_psi(rng, 0.5)),
        ("s0.5b", gibbs_psi(rng, 0.5)),
        ("s1.5a", ill[0]),
        ("s1.5b", ill[1]),
    ]
    for label, psi in potentials:
        for q in range(-3, 4):
            jobs.append(_cli(f"verify-gibbs-{label}-q{q:+d}", "verify-gibbs", {
                "space": FULL2, "measure": {"kind": "gibbs", "r": 3, "psi": psi},
                "q_grid": [q],
            }))
    return jobs


GENERATORS = {
    "entropy-schedule": entropy_schedule,
    "exponent-scan": exponent_scan,
    "partition-spectrum": partition_spectrum,
    "pointwise-oracles": pointwise_oracles,
}
WORKLOADS = tuple(GENERATORS)

# A workload seed selects one of INSTANCES input sets, each with reference
# values and expected failures recorded from the seed program, so that
# every run is checked against a record of exactly its inputs.
INSTANCES = 32


def instance(seed: int) -> int:
    return seed % INSTANCES


def jobs(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](instance(seed))
