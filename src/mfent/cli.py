"""Command-line front end: JSON config in, CSV out.

One subcommand per experiment; every run is deterministic given the
config and seed, so CSV outputs are byte-identical across repeats.
Exit codes: 0 success, 1 numeric failure (bracket or convergence), 2
config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    MfentError,
    TooLargeError,
)
from .local import local_entropy
from .measures import (
    Bernoulli,
    Gibbs,
    Markov,
    MeasureModel,
    doubling_check,
    mixture,
)
from .potential import Potential
from .premeasure import (
    PremeasureParams,
    TreeEvaluator,
)
from .solver import (
    DEFAULT_SCHEDULE,
    bowen_entropy,
    packing_entropy,
    packing_entropy_delta,
)
from .space import CylinderSet, ShiftSpace, make_shift
from .spectrum import (
    domain_endpoints,
    h_curve,
    legendre,
    level_set_spectrum_oracle,
    level_tangency_residual,
    one_sided_derivatives,
    tangency_beta,
)
from .thermo import gibbs_identity_residual

COMMANDS = (
    "spectrum",
    "premeasure",
    "entropy",
    "verify-gibbs",
    "doubling",
    "local",
    "level-spectrum",
)

DEFAULT_Q_GRID = [round(-3.0 + 0.25 * i, 6) for i in range(25)]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return "%.12g" % x
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _require(cfg: dict, field: str, ctx: str = "config"):
    if field not in cfg:
        raise ConfigError(f"{ctx} is missing required field '{field}'")
    return cfg[field]


def _number(cfg: dict, field: str, default=None, ctx: str = "config") -> float:
    if field not in cfg:
        if default is None:
            raise ConfigError(f"{ctx} is missing required field '{field}'")
        return default
    v = cfg[field]
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            raise ConfigError(f"field '{field}' is not a number: {v!r}") from None
    if not isinstance(v, (int, float)):
        raise ConfigError(f"field '{field}' is not a number: {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"field '{field}' must be finite, got {v}")
    return float(v)


def _integral(v) -> bool:
    return math.isfinite(v) and v == int(v)


def _int(cfg: dict, field: str, default=None, ctx: str = "config", lo: int | None = None) -> int:
    v = _number(cfg, field, default, ctx)
    if not _integral(v):
        raise ConfigError(f"field '{field}' must be an integer, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(f"field '{field}' must be >= {lo}, got {int(v)}")
    return int(v)


def parse_word(raw, field: str) -> tuple[int, ...]:
    """Words appear in configs as lists of ints or as digit strings,
    optionally comma-separated ("010", "0,1,0", [0,1,0] all parse alike)."""
    if isinstance(raw, (list, tuple)):
        try:
            return tuple(int(s) for s in raw)
        except (TypeError, ValueError):
            raise ConfigError(f"field '{field}' contains a non-integer symbol: {raw!r}") from None
    if isinstance(raw, str):
        parts = raw.split(",") if "," in raw else list(raw)
        try:
            return tuple(int(s) for s in parts)
        except ValueError:
            raise ConfigError(f"field '{field}' has unparseable word {raw!r}") from None
    raise ConfigError(f"field '{field}' must be a word (list of ints or digit string)")


def parse_space(cfg: dict) -> ShiftSpace:
    sp = _require(cfg, "space")
    if not isinstance(sp, dict):
        raise ConfigError("field 'space' must be an object")
    m = _int(sp, "alphabet", ctx="space")
    transitions = _require(sp, "transitions", "space")
    try:
        return make_shift(m, transitions)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"field 'space.transitions' invalid: {e}") from None


def parse_measure(cfg: dict, space: ShiftSpace) -> MeasureModel:
    ms = _require(cfg, "measure")
    if not isinstance(ms, dict):
        raise ConfigError("field 'measure' must be an object")
    return _measure_from(ms, space, "measure")


def _measure_from(ms: dict, space: ShiftSpace, ctx: str) -> MeasureModel:
    kind = _require(ms, "kind", ctx)
    try:
        if kind == "bernoulli":
            return Bernoulli(space, _require(ms, "p", ctx))
        if kind == "markov":
            return Markov(space, _require(ms, "P", ctx), ms.get("pi"))
        if kind == "gibbs":
            r = _int(ms, "r", ctx=ctx)
            raw = _require(ms, "psi", ctx)
            if not isinstance(raw, dict):
                raise ConfigError(f"field '{ctx}.psi' must map words to values")
            table = {}
            for key, val in raw.items():
                w = parse_word(key, f"{ctx}.psi")
                table[w] = float(val)
            return Gibbs(Potential(space, r, table))
        if kind == "mixture":
            lam = _number(ms, "lam", ctx=ctx)
            a = _measure_from(_require(ms, "a", ctx), space, f"{ctx}.a")
            b = _measure_from(_require(ms, "b", ctx), space, f"{ctx}.b")
            return mixture(a, b, lam)
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"field '{ctx}' invalid: {e}") from None
    raise ConfigError(
        f"field '{ctx}.kind' must be bernoulli, markov, gibbs, or mixture; got {kind!r}"
    )


def parse_grid(cfg: dict, field: str, default: list[float] | None) -> np.ndarray:
    if field not in cfg:
        if default is None:
            raise ConfigError(f"config is missing required field '{field}'")
        return np.asarray(default, dtype=float)
    raw = cfg[field]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"field '{field}' must be a nonempty list of numbers")
    try:
        grid = np.asarray([float(v) for v in raw])
    except (TypeError, ValueError):
        raise ConfigError(f"field '{field}' contains a non-number") from None
    if not np.isfinite(grid).all():
        raise ConfigError(f"field '{field}' must be finite")
    return np.unique(grid)


def parse_schedule(cfg: dict) -> tuple[tuple[int, int], ...]:
    if "schedule" not in cfg:
        return DEFAULT_SCHEDULE
    raw = cfg["schedule"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("field 'schedule' must be a nonempty list of [N, D] pairs")
    out = []
    for entry in raw:
        pair = isinstance(entry, list) and len(entry) == 2 and all(
            isinstance(v, (int, float)) and _integral(v) for v in entry
        )
        if not pair or not 1 <= entry[0] <= entry[1]:
            raise ConfigError(
                f"field 'schedule' entry {entry!r} is not an [N, D] pair of integers "
                "with 1 <= N <= D"
            )
        out.append((int(entry[0]), int(entry[1])))
    return tuple(out)


def parse_cylinder_set(cfg: dict, space: ShiftSpace) -> CylinderSet:
    raw = _require(cfg, "K")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("field 'K' must be a nonempty list of words")
    words = [parse_word(w, "K") for w in raw]
    try:
        return CylinderSet(space, words)
    except (ValueError, MfentError) as e:
        raise ConfigError(f"field 'K' invalid: {e}") from None


def load_config(raw: str) -> dict:
    """Accepts a file path or an inline JSON object string."""
    text = raw
    if not raw.lstrip().startswith("{"):
        path = Path(raw)
        if not path.is_file():
            raise ConfigError(f"config file not found: {raw}")
        text = path.read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def cmd_spectrum(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    q_grid = parse_grid(cfg, "q_grid", DEFAULT_Q_GRID)
    k = _int(cfg, "k", 0, lo=0)
    schedule = parse_schedule(cfg)
    curve = h_curve(model, q_grid, k=k, schedule=schedule)
    N_max = max(N for N, _ in schedule)
    D_max = max(D for _, D in schedule)

    rows = []
    for i, q in enumerate(curve.q_grid):
        if 0 < i < len(curve.q_grid) - 1 and np.isfinite(curve.h_values).all():
            h_minus, h_plus = one_sided_derivatives(curve, float(q))
        else:
            h_minus = h_plus = math.nan
        rows.append((float(q), float(curve.h_values[i]), h_minus, h_plus, N_max, D_max, k))
    write_csv(out / "spectrum.csv", ["q", "h", "h_minus", "h_plus", "N", "D", "k"], rows)

    try:
        ep = domain_endpoints(curve)
        ep_rows = [(ep.lower, ep.upper, ep.lower_extrapolated, ep.upper_extrapolated,
                    ep.error_bar, N_max, D_max, k)]
        write_csv(
            out / "endpoints.csv",
            ["beta_lower", "beta_upper", "beta_lower_extrapolated",
             "beta_upper_extrapolated", "error_bar", "N", "D", "k"],
            ep_rows,
        )
        beta_lo, beta_hi = ep.lower, ep.upper
    except ValueError:
        # grid tails too short for endpoints; fall back for the beta range
        finite = np.isfinite(curve.h_values)
        slopes = np.diff(curve.h_values[finite]) / np.diff(curve.q_grid[finite])
        beta_lo, beta_hi = -float(slopes.max()), -float(slopes.min())
    default_betas = np.unique(np.linspace(beta_lo, beta_hi, 41)).tolist()
    beta_grid = parse_grid(cfg, "beta_grid", default_betas)
    h_star, in_domain = legendre(curve, beta_grid)
    lg_rows = [
        (float(b), float(hs), bool(d), N_max, D_max, k)
        for b, hs, d in zip(beta_grid, h_star, in_domain)
    ]
    write_csv(out / "legendre.csv", ["beta", "h_star", "in_domain", "N", "D", "k"], lg_rows)


def cmd_premeasure(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    K = parse_cylinder_set(cfg, space)
    q = _number(cfg, "q")
    t = _number(cfg, "t")
    N = _int(cfg, "N")
    D = _int(cfg, "D")
    k = _int(cfg, "k", 0)
    mode = cfg.get("mode", "covering")
    if mode not in ("covering", "packing", "outer"):
        raise ConfigError(f"field 'mode' must be covering, packing, or outer; got {mode!r}")
    try:
        params = PremeasureParams(q=q, t=t, N=N, k=k, D=D)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    ev = TreeEvaluator(model, K, k, D)
    if mode == "covering":
        log_value = ev.covering_log(q, t, N)
    elif mode == "packing":
        log_value = ev.packing_log(q, t, N)
    else:
        cover_depth = _int(cfg, "cover_depth", min(6, N), lo=0)
        if cover_depth > D:
            raise ConfigError(f"field 'cover_depth' exceeds D={D}")
        log_value = ev.outer_log(q, t, N, cover_depth)
    value = math.exp(log_value) if log_value < 700 else math.inf
    write_csv(
        out / "premeasure.csv",
        ["mode", "q", "t", "N", "D", "k", "log_value", "value"],
        [(mode, q, t, N, D, k, log_value, value)],
    )


def cmd_entropy(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    K = parse_cylinder_set(cfg, space)
    q = _number(cfg, "q", 0.0)
    k = _int(cfg, "k", 0, lo=0)
    schedule = parse_schedule(cfg)
    cover_depth = _int(cfg, "cover_depth", min(6, min(N for N, _ in schedule)), lo=0)
    D_min = min(D for _, D in schedule)
    if cover_depth > D_min:
        raise ConfigError(f"field 'cover_depth' exceeds the smallest schedule D={D_min}")
    rows = []
    for method, fn in (
        ("bowen", lambda: bowen_entropy(model, K, q, k, schedule)),
        ("packing_delta", lambda: packing_entropy_delta(model, K, q, k, schedule)),
        ("packing", lambda: packing_entropy(model, K, q, k, schedule, cover_depth)),
    ):
        est = fn()
        rows.append(
            (method, q, est.N_used, est.D_used, est.k, est.value,
             est.error_bar, est.degenerate)
        )
    write_csv(
        out / "entropy.csv",
        ["method", "q", "N", "D", "k", "value", "error_bar", "degenerate"],
        rows,
    )


def cmd_verify_gibbs(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    q_grid = parse_grid(cfg, "q_grid", DEFAULT_Q_GRID)
    rows = [(float(q), gibbs_identity_residual(model, float(q))) for q in q_grid]
    write_csv(out / "verify_gibbs.csv", ["q", "residual"], rows)


def cmd_doubling(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    k = _int(cfg, "k", 1, lo=1)
    n_max = _int(cfg, "n_max", 8, lo=1)
    rep = doubling_check(model, k, n_max)
    bound = rep.analytic_bound if rep.analytic_bound is not None else math.nan
    write_csv(
        out / "doubling.csv",
        ["k", "n_max", "empirical_sup", "analytic_bound", "unbounded"],
        [(rep.k, rep.n_max, rep.empirical_sup, bound, rep.unbounded)],
    )


def cmd_local(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    k = _int(cfg, "k", 0, lo=0)
    tail_fraction = _number(cfg, "tail_fraction", 0.25)
    if not 0 < tail_fraction <= 1:
        raise ConfigError(f"field 'tail_fraction' must be in (0, 1], got {tail_fraction}")
    if "words" in cfg:
        raw = cfg["words"]
        if not isinstance(raw, list):
            raise ConfigError("field 'words' must be a list of words")
        words = [parse_word(w, "words") for w in raw]
        for w in words:
            if len(w) < k + 1 or not space.is_admissible(w):
                raise ConfigError(
                    f"field 'words' entry {w} must be an admissible word of length >= {k + 1}"
                )
    else:
        n = _int(cfg, "n", ctx="config (needed when 'words' is absent)", lo=1)
        count = _int(cfg, "count", 100, lo=0)
        rng = np.random.default_rng(seed)
        words = [model.sample_word(n + k, rng) for _ in range(count)]
    rows = []
    for w in words:
        s = local_entropy(model, w, k=k, tail_fraction=tail_fraction)
        rows.append(("".join(str(c) for c in w), s.lower, s.upper, len(w) - k, k))
    write_csv(out / "local.csv", ["word", "lower", "upper", "n", "k"], rows)


def cmd_level_spectrum(cfg: dict, out: Path, seed: int) -> None:
    space = parse_space(cfg)
    model = parse_measure(cfg, space)
    n = _int(cfg, "n", 14, lo=1)
    k = _int(cfg, "k", 0, lo=0)
    bin_width = _number(cfg, "bin_width", 0.05)
    half_width = _number(cfg, "half_width", 0.08)
    for field, width in (("bin_width", bin_width), ("half_width", half_width)):
        if not width > 0:
            raise ConfigError(f"field '{field}' must be positive, got {width}")
    bins = level_set_spectrum_oracle(model, n, bin_width, k)
    rows = [
        (b.beta, int(round(math.exp(b.log_count))), b.entropy_estimate, b.word_length, k)
        for b in bins
    ]
    write_csv(
        out / "level_spectrum.csv",
        ["beta_bin", "count", "entropy_estimate", "n", "k"],
        rows,
    )
    q_grid = parse_grid(cfg, "q_grid", [0.0, 1.0, 2.0])
    res_rows = []
    for q in q_grid:
        beta = tangency_beta(model, float(q), n, k)
        resid = level_tangency_residual(model, float(q), n, k, half_width)
        res_rows.append((float(q), beta, resid, n, k))
    write_csv(
        out / "level_residuals.csv",
        ["q", "beta", "residual", "n", "k"],
        res_rows,
    )


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "premeasure": cmd_premeasure,
    "entropy": cmd_entropy,
    "verify-gibbs": cmd_verify_gibbs,
    "doubling": cmd_doubling,
    "local": cmd_local,
    "level-spectrum": cmd_level_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfent",
        description="Entropy spectra and pre-measure diagnostics on subshifts of finite type",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config, or inline JSON")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _DISPATCH[args.command](cfg, out, args.seed)
    except (ConfigError, TooLargeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (BracketError, ConvergenceError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except MfentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
