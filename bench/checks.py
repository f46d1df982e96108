"""Correctness checks for every job of every workload.

Each job is checked twice:

* against an independent oracle, computed here with numpy alone: closed
  forms (log phi, (1 - q) log phi), partition sums from transfer-matrix
  powers or a separate enumeration, direct re-computation of level bins,
  tangency residuals and pointwise local entropies, exact orderings the
  constructions obey at any finite depth, and the residual bound of the
  pressure identity;
* against reference values recorded from the seed program
  (``reference.json``, one record per input set), within a tolerance
  that allows a change of summation order.

A job fails when the program exits non-zero, raises, or any check fails.
The reference also records which jobs fail at the seed program, and how
(a known defect, kept in the workloads).  A job whose outcome differs
from that record is unexpected: a new failure, a failure of another
kind, or a recorded failure that no longer happens.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_SCHEDULE = [[4, 4], [8, 8], [12, 12], [16, 16]]  # the program's default
REF_ABS, REF_REL = 1e-6, 1e-6
ORDER_TOL = 1e-7  # roots are bisected to 1e-8 or finer
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

EXPECTED_FILES = {
    "entropy": ["entropy.csv"],
    "spectrum": ["spectrum.csv", "legendre.csv"],
    "level-spectrum": ["level_spectrum.csv", "level_residuals.csv"],
    "local": ["local.csv"],
    "doubling": ["doubling.csv"],
    "verify-gibbs": ["verify_gibbs.csv"],
}


def load_reference() -> dict:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


# -- independent model arithmetic -----------------------------------------


def entrywise_power(P: np.ndarray, q: float) -> np.ndarray:
    out = np.zeros_like(P)
    pos = P > 0
    out[pos] = P[pos] ** q
    return out


def stationary(P: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(P.T)
    v = np.abs(vecs[:, int(np.argmax(vals.real))].real)
    return v / v.sum()


class Chain:
    """A measure as a Markov chain on blocks: log mass of every prefix of a word."""

    def __init__(self, cfg: dict, alphabet: int):
        kind = cfg["kind"]
        if kind == "bernoulli":
            p = np.asarray(cfg["p"], dtype=float)
            self.d, self.states = 1, [(a,) for a in range(alphabet)]
            self.init, self.Q = p, np.tile(p, (alphabet, 1))
        elif kind == "markov":
            P = np.asarray(cfg["P"], dtype=float)
            self.d, self.states = 1, [(a,) for a in range(alphabet)]
            self.init, self.Q = stationary(P), P
        elif kind == "gibbs":
            d = cfg["r"] - 1
            states = list(itertools.product(range(alphabet), repeat=d))
            index = {u: i for i, u in enumerate(states)}
            M = np.zeros((len(states), len(states)))
            for u in states:
                for a in range(alphabet):
                    word = "".join(map(str, u + (a,)))
                    M[index[u], index[u[1:] + (a,)]] = math.exp(cfg["psi"][word])
            vals, right = np.linalg.eig(M)
            i = int(np.argmax(vals.real))
            lam, h = vals[i].real, np.abs(right[:, i].real)
            lvals, left = np.linalg.eig(M.T)
            l = np.abs(left[:, int(np.argmax(lvals.real))].real)
            self.d, self.states = d, states
            self.Q = M * h[None, :] / (lam * h[:, None])
            mu = l * h
            self.init = mu / mu.sum()
        else:
            raise ValueError(f"no chain form for {kind!r}")
        self.alphabet = alphabet
        self.index = {u: i for i, u in enumerate(self.states)}

    def log_partition(self, q: float, length: int) -> float:
        """log sum over length-``length`` words of mass^q, by transfer matrix."""
        v = entrywise_power(self.init, q)
        log_scale = 0.0
        M = entrywise_power(self.Q, q)
        for _ in range(length - self.d):
            v = v @ M
            s = float(v.sum())
            log_scale += math.log(s)
            v /= s
        return log_scale + math.log(float(v.sum()))

    def all_log_masses(self, length: int) -> np.ndarray:
        """Log masses of all length-``length`` words, in lexicographic order."""
        with np.errstate(divide="ignore"):
            lm, logQ = np.log(self.init), np.log(self.Q)
        state = np.arange(len(self.states))
        succ = np.asarray([
            [self.index[u[1:] + (a,)] if self.d > 1 else a for a in range(self.alphabet)]
            for u in self.states
        ])
        for _ in range(length - self.d):
            nxt = succ[state]  # (words, alphabet)
            lm = (lm[:, None] + logQ[state[:, None], nxt]).ravel()
            state = nxt.ravel()
        return lm

    def prefix_log_masses(self, word: tuple[int, ...]) -> np.ndarray:
        """out[n-1] = log mass of word[:n]."""
        d, out = self.d, np.empty(len(word))
        with np.errstate(divide="ignore"):
            for n in range(1, d):
                out[n - 1] = math.log(sum(
                    m for u, m in zip(self.states, self.init) if u[:n] == word[:n]
                ))
            steps = [math.log(self.init[self.index[word[:d]]])]
            for j in range(d, len(word)):
                steps.append(math.log(
                    self.Q[self.index[word[j - d:j]], self.index[word[j - d + 1:j + 1]]]
                ))
        out[d - 1:] = np.cumsum(steps)
        return out


def chain_of(cfg: dict, alphabet: int) -> list[Chain]:
    if cfg["kind"] == "mixture":
        return [Chain(cfg["a"], alphabet), Chain(cfg["b"], alphabet)]
    return [Chain(cfg, alphabet)]


def all_log_masses(cfg: dict, alphabet: int, length: int) -> np.ndarray:
    chains = chain_of(cfg, alphabet)
    if len(chains) == 1:
        return chains[0].all_log_masses(length)
    lam = cfg["lam"]
    return np.logaddexp(
        math.log(lam) + chains[0].all_log_masses(length),
        math.log1p(-lam) + chains[1].all_log_masses(length),
    )


def logsumexp(a: np.ndarray) -> float:
    hi = float(a.max())
    return hi + math.log(float(np.exp(a - hi).sum()))


def log_partitions(cfg: dict, alphabet: int, qs, lengths) -> np.ndarray:
    """log Z_n(q) for every q (rows) and length (columns)."""
    chains = chain_of(cfg, alphabet)
    if len(chains) == 1:
        return np.asarray([[chains[0].log_partition(q, n) for n in lengths] for q in qs])
    out = np.empty((len(qs), len(lengths)))
    for j, n in enumerate(lengths):
        lm = all_log_masses(cfg, alphabet, n)
        for i, q in enumerate(qs):
            out[i, j] = math.log(lm.size) if q == 0 else logsumexp(q * lm)
    return out


# -- per-command checks ---------------------------------------------------


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def check_entropy(job, out):
    cfg = job["config"]
    rows = {r["method"]: r for r in read_rows(out / "entropy.csv")}
    v = {m: float(rows[m]["value"]) for m in ("bowen", "packing", "packing_delta")}
    for m, r in rows.items():
        if r["degenerate"] != "false" or not math.isfinite(float(r["error_bar"])):
            return f"{m}: degenerate or infinite error bar", None
    # at any finite depth every level cut is both a cover and a packing,
    # and the trivial cover bounds the refined one
    if not v["bowen"] <= v["packing"] + ORDER_TOL <= v["packing_delta"] + 2 * ORDER_TOL:
        return f"order bowen <= packing <= packing_delta broken: {v}", None
    if job["name"] == "entropy-parry":
        # criterion 4's tolerance for the golden-mean counting entropy
        for m, x in v.items():
            if not close(x, LOG_PHI, 1e-2):
                return f"{m} = {x} is not log(phi) within 1e-2", None
    digest = [v[m] for m in ("bowen", "packing_delta", "packing")]
    digest += [float(rows[m]["error_bar"]) for m in ("bowen", "packing_delta", "packing")]
    return None, digest


def check_spectrum(job, out):
    cfg = job["config"]
    spec = read_rows(out / "spectrum.csv")
    q = np.asarray([float(r["q"]) for r in spec])
    h = np.asarray([float(r["h"]) for r in spec])
    # h(q) is the least-squares slope of log Z_N(q) over the schedule; here
    # Z_N comes from transfer-matrix powers (chains) or a separate
    # enumeration (mixtures), then goes through the same fit
    Ns = [N for N, _ in cfg.get("schedule", DEFAULT_SCHEDULE)]
    logZ = log_partitions(cfg["measure"], cfg["space"]["alphabet"], q, Ns)
    expected = np.asarray([np.polyfit(Ns, row, 1)[0] for row in logZ])
    worst = float(np.max(np.abs(h - expected)))
    if not worst <= 1e-8:
        return f"h(q) off the partition-sum slope by {worst:.2e}", None
    leg = read_rows(out / "legendre.csv")
    h_star = np.asarray([float(r["h_star"]) for r in leg])
    inside = np.asarray([r["in_domain"] == "true" for r in leg])
    beta = np.asarray([float(r["beta"]) for r in leg])
    # the conjugate is an infimum over the grid: never above any tangent line
    bound = np.min(q[None, :] * beta[inside, None] + h[None, :], axis=1)
    if inside.any() and np.max(h_star[inside] - bound) > 1e-9:
        return "Legendre conjugate above a tangent line", None
    digest = h.tolist() + [float(h_star[inside].sum()), float(inside.sum())]
    endpoints = out / "endpoints.csv"
    if endpoints.exists():
        ep = read_rows(endpoints)[0]
        p = np.asarray(cfg["measure"]["p"])
        lo, hi = -math.log(p.max()), -math.log(p.min())
        ex_lo, ex_hi = float(ep["beta_lower_extrapolated"]), float(ep["beta_upper_extrapolated"])
        if not (close(ex_lo, lo, 1e-4) and close(ex_hi, hi, 1e-4)):
            return f"endpoints ({ex_lo}, {ex_hi}) are not ({lo}, {hi})", None
        digest += [float(ep["beta_lower"]), float(ep["beta_upper"]), ex_lo, ex_hi]
    return None, digest


def check_level_spectrum(job, out):
    cfg = job["config"]
    n, width, half = cfg["n"], 0.05, 0.08  # the command's default bin and window widths
    lm = all_log_masses(cfg["measure"], cfg["space"]["alphabet"], n)
    betas = -lm / n
    idx = np.round(betas / width).astype(int)
    want = {int(j): int((idx == j).sum()) for j in set(idx.tolist())}
    bins = read_rows(out / "level_spectrum.csv")
    got = {round(float(r["beta_bin"]) / width): int(r["count"]) for r in bins}
    if len(got) != len(bins) or got != want or any(
        not close(float(r["beta_bin"]), round(float(r["beta_bin"]) / width) * width, 1e-9)
        for r in bins
    ):
        return "level bins and counts differ from a direct enumeration", None
    for r in bins:
        if not close(float(r["entropy_estimate"]), math.log(int(r["count"])) / n, 1e-9):
            return "bin entropy is not log(count)/n", None
    rows = read_rows(out / "level_residuals.csv")
    for r in rows:
        qv = float(r["q"])
        w = np.exp(qv * lm - (qv * lm).max())
        beta = float(-(w @ lm) / (w.sum() * n))
        sel = np.abs(betas - beta) <= half
        t_star = logsumexp(qv * lm[sel]) / n
        resid = abs(math.log(int(sel.sum())) / n - (qv * beta + t_star))
        if not (close(float(r["beta"]), beta, 1e-9) and close(float(r["residual"]), resid, 1e-9)):
            return f"tangency at q={qv} differs from a direct enumeration", None
    res = [float(r["residual"]) for r in rows]
    digest = [float(len(bins)), float(sum(float(r["entropy_estimate"]) for r in bins))] + res
    return None, digest


def check_local(job, out):
    cfg = job["config"]
    rows = read_rows(out / "local.csv")
    if len(rows) != cfg["count"]:
        return f"{len(rows)} words, expected {cfg['count']}", None
    (chain,) = chain_of(cfg["measure"], cfg["space"]["alphabet"])
    n = cfg["n"]
    tail = min(n - 1, int(math.floor(n * 0.75)))
    worst = 0.0
    for r in rows:
        word = tuple(int(c) for c in r["word"])
        if len(word) != n:
            return f"word of length {len(word)}, expected {n}", None
        est = -chain.prefix_log_masses(word) / np.arange(1, n + 1)
        lo, hi = float(est[tail:].min()), float(est[tail:].max())
        worst = max(worst, abs(lo - float(r["lower"])), abs(hi - float(r["upper"])))
    if worst > 1e-9:
        return f"local entropies off a direct recomputation by {worst:.2e}", None
    lower = [float(r["lower"]) for r in rows]
    upper = [float(r["upper"]) for r in rows]
    return None, [sum(lower), sum(upper), min(lower), max(upper)]


def check_doubling(job, out):
    cfg = job["config"]
    r = read_rows(out / "doubling.csv")[0]
    emp, bound = float(r["empirical_sup"]), float(r["analytic_bound"])
    (chain,) = chain_of(cfg["measure"], cfg["space"]["alphabet"])
    # every chain entry is a ratio seen at depth >= d + 1 <= n_max
    floor = 1.0 / float(chain.Q[chain.Q > 0].min())
    if not floor * (1 - 1e-9) <= emp <= bound * (1 + 1e-12):
        return f"doubling sup {emp} outside [{floor}, {bound}]", None
    return None, [emp, bound]


def check_verify_gibbs(job, out):
    rows = read_rows(out / "verify_gibbs.csv")
    res = [float(r["residual"]) for r in rows]
    if max(res) > 1e-6:  # criterion 2's bound on the pressure identity
        return f"pressure-identity residual {max(res):.3g} above 1e-6", None
    return None, None  # residuals are rounding noise: no reference value


CLI_CHECKS = {
    "entropy": check_entropy,
    "spectrum": check_spectrum,
    "level-spectrum": check_level_spectrum,
    "local": check_local,
    "doubling": check_doubling,
    "verify-gibbs": check_verify_gibbs,
}


def check_cli(job, res, out):
    if res["error"] is not None:
        return f"uncaught {res['error']}", None
    if res["rc"] != 0:
        return f"exit code {res['rc']}", None
    missing = [f for f in EXPECTED_FILES[job["command"]] if not (out / f).is_file()]
    if missing:
        return f"missing output {missing}", None
    return CLI_CHECKS[job["command"]](job, out)


def check_roots(jobs, results):
    """exponent-scan: closed form (1 - q) log phi for the Parry measure, and
    covering <= outer <= packing at every q."""
    outcomes = []
    by_q: dict[float, dict[str, float]] = {}
    for job, res in zip(jobs, results):
        if res["error"] is not None:
            outcomes.append((f"uncaught {res['error']}", None))
            continue
        q, root = job["q"], res["root"]
        by_q.setdefault(q, {})[job["sweep"]] = root
        # finite-depth bias at N=12 grows with |q|: 0.034 at q=0 and 0.165 at
        # q=-3 for the packing roots at the seed
        tol = 0.04 + 0.05 * abs(q)
        if not (math.isfinite(root) and close(root, (1 - q) * LOG_PHI, tol)):
            outcomes.append((f"root {root} is not (1-q)log(phi) within {tol:.3f}", None))
        else:
            outcomes.append((None, [root]))
    for i, job in enumerate(jobs):
        r = by_q.get(job["q"], {})
        if outcomes[i][0] is None and len(r) == 3 and not (
            r["covering"] <= r["outer"] + ORDER_TOL <= r["packing"] + 2 * ORDER_TOL
        ):
            outcomes[i] = (f"order covering <= outer <= packing broken: {r}", None)
    return outcomes


def check_all(workload: str, jobs, results, out: Path) -> list[tuple]:
    """Oracle checks: (reason or None, digest) per job; the digest is None
    unless the job passed."""
    if workload == "exponent-scan":
        return check_roots(jobs, results)
    outcomes = []
    for job, res in zip(jobs, results):
        try:
            outcomes.append(check_cli(job, res, out / job["name"]))
        except (OSError, KeyError, ValueError, IndexError) as e:
            outcomes.append((f"unreadable output: {type(e).__name__}: {e}", None))
    return outcomes


def failure_kind(reason: str | None) -> str | None:
    """What a reference records of a failure: "exit code 1",
    "uncaught ValueError" and so on, without the message."""
    return None if reason is None else reason.split(":", 1)[0]


def no_output(reason: str) -> bool:
    """A failure in which the program gave no result to check."""
    return reason.startswith(("exit code", "uncaught"))


def against_reference(workload: str, instance: int, outcomes: list[dict]) -> list[dict]:
    """Compare one pass's oracle outcomes (dicts with ``name``, ``reason``,
    ``digest``) with the reference of its input set.  Returns them with
    ``reason`` set for a digest off its recorded values, and ``unexpected``
    set when the outcome is not the recorded one."""
    record = load_reference().get(workload, {}).get(str(instance))
    if record is None:
        raise ValueError(f"no reference for {workload} input set {instance}: "
                         "run record_reference.py")
    digests, failures = record["digests"], record["failures"]
    checked = []
    for job in outcomes:
        reason, digest = job["reason"], job["digest"]
        ref = digests.get(job["name"])
        if reason is None and digest is not None and ref is not None and (
            len(ref) != len(digest)
            or any(not close(x, y, REF_ABS + REF_REL * abs(y)) for x, y in zip(digest, ref))
        ):
            reason = "differs from the reference values recorded from the seed program"
        got, want = failure_kind(reason), failures.get(job["name"])
        unexpected = None
        if got != want:
            unexpected = f"recorded {want or 'pass'}, got {got or 'pass'}"
        checked.append(dict(job, reason=reason, unexpected=unexpected))
    return checked
