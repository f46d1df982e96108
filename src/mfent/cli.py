"""Command-line front end: JSON config in, CSV out.

One subcommand per experiment, one path from config to result: ``main``
refuses an ``--out`` that is a file or lies below one, parses the space and
measure, the command validates every other field it uses before any
computation, makes its library call (which refuses oversized input before
any work) and returns its tables, and only then does ``main`` create the
output directory and write them, so a failed run leaves no CSV.  Each value
is read at its fixed shape, a list one level deep by ``_list``, and a
message shows a value only through ``_shown``, cut to about 40 characters.
Runs are deterministic given config and seed.
Exit codes: 0 success, 1 numeric failure (bracket or convergence), 2
config error (naming the field) or a bad ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .errors import BracketError, ConfigError, ConvergenceError, MfentError, TooLargeError
from .local import local_entropy
from .measures import (
    Bernoulli, Chain, Gibbs, Markov, MeasureModel, Mixture, doubling_check, log_mass_array,
)
from .potential import Potential
from .premeasure import TreeEvaluator
from .solver import DEFAULT_SCHEDULE, bowen_entropy, packing_entropy_delta
from .space import CylinderSet, ShiftSpace, make_shift
from .spectrum import (
    domain_endpoints, h_curve, legendre, level_set_spectrum_oracle, level_tangency_residual,
    one_sided_derivatives, sorted_grid,
)
from .thermo import gibbs_identity_residual

DEFAULT_Q_GRID = [round(-3.0 + 0.25 * i, 6) for i in range(25)]

# `local` samples count words of n + k symbols each
_MAX_LOCAL_SYMBOLS = 1 << 24
# exp overflows from here on, so the premeasure `value` column is inf there
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

Table = tuple[str, list[str], list[tuple]]


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
    path.write_text("".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]))


def _shown(v) -> str:
    """The one rule for showing a config value in a message: its repr, cut
    in the middle to about 40 characters, never walked past 6 list levels."""
    s = reprlib.repr(v)
    return s if len(s) <= 40 else s[:20] + "..." + s[-17:]


def _require(cfg: dict, field: str, ctx: str = "config"):
    if field not in cfg:
        raise ConfigError(f"{ctx} is missing required field '{field}'")
    return cfg[field]


def _to_number(v, field: str, log_weight: bool = False) -> float:
    """The one number rule of a config: a JSON number or a numeric string,
    never a boolean, and finite (a log-weight may also be -inf, weight 0)."""
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            raise ConfigError(f"field '{field}' is not a number: {_shown(v)}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):  # JSON true/false are bools
        raise ConfigError(f"field '{field}' is not a number: {_shown(v)}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range; its digits are not echoed
        raise ConfigError(f"field '{field}' is beyond the float range") from None
    if not (math.isfinite(x) or (log_weight and x == -math.inf)):
        raise ConfigError(f"field '{field}' must be finite, got {_shown(x)}")
    return x


def _integer(v, field: str) -> int:
    """An integer under the one number rule: 4, 4.0 and "4" alike, and exact
    as a float (no size, symbol or count of a run comes near 2^53)."""
    x = _to_number(v, field)
    if x != int(x) or abs(x) > 2**53:
        raise ConfigError(f"field '{field}' must be an integer with |x| <= 2^53, got {_shown(x)}")
    return int(x)


def _list(raw, field: str, read, nonempty: bool = True) -> list:
    """The one list rule: ``raw`` is a list, nonempty unless told otherwise,
    and ``read(item, field)`` reads each item, one level deep."""
    if not isinstance(raw, list) or (nonempty and not raw):
        raise ConfigError(f"field '{field}' must be a {'nonempty ' if nonempty else ''}list")
    return [read(v, field) for v in raw]


def _field(cfg: dict, name: str, read=_to_number, default=None, ctx="config", lo=None):
    """``cfg[name]`` read by ``read``, at least ``lo``; ``default`` if given and absent."""
    if name not in cfg and default is not None:
        return default
    v = read(_require(cfg, name, ctx), name)
    if lo is not None and v < lo:
        raise ConfigError(f"field '{name}' must be >= {_shown(lo)}, got {_shown(v)}")
    return v


def _within(fields: str, run, *args):
    """``run(*args)``, a library call that refuses oversized input before any
    work; a refusal becomes a config error naming ``fields``."""
    try:
        return run(*args)
    except TooLargeError as e:
        raise ConfigError(f"{fields} too large: {e}") from None


def parse_word(raw, field: str) -> tuple[int, ...]:
    """Words appear in configs as lists of ints or as digit strings,
    optionally comma-separated ("010", "0,1,0", [0,1,0] all parse alike)."""
    if isinstance(raw, str):
        raw = raw.split(",") if "," in raw else list(raw)
    elif not isinstance(raw, (list, tuple)):
        raise ConfigError(f"field '{field}' must be a word (list of ints or digit string)")
    return tuple(_integer(s, field) for s in raw)


def parse_space(cfg: dict) -> ShiftSpace:
    sp = _require(cfg, "space")
    if not isinstance(sp, dict):
        raise ConfigError("field 'space' must be an object")
    m = _field(sp, "alphabet", _integer, ctx="space")
    rows = partial(_list, read=_integer)
    transitions = _list(_require(sp, "transitions", "space"), "space.transitions", rows)
    try:
        return make_shift(m, transitions)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"field 'space.transitions' invalid: {e}") from None


def parse_measure(
    cfg: dict, space: ShiftSpace, ctx: str = "config", key: str = "measure"
) -> MeasureModel:
    """The measure at ``cfg[key]``; a mixture's components ``a`` and ``b``
    are parsed alike, as fields 'measure.a' and 'measure.b'."""
    ms = _require(cfg, key, ctx)
    field = key if ctx == "config" else f"{ctx}.{key}"
    if not isinstance(ms, dict):
        raise ConfigError(f"field '{field}' must be an object")
    kind = _require(ms, "kind", field)
    try:
        if kind == "bernoulli":
            return Bernoulli(space, _list(_require(ms, "p", field), f"{field}.p", _to_number))
        if kind == "markov":
            pi = ms.get("pi")
            return Markov(
                space,
                _list(_require(ms, "P", field), f"{field}.P", partial(_list, read=_to_number)),
                None if pi is None else _list(pi, f"{field}.pi", _to_number),
            )
        if kind == "gibbs":
            r = _field(ms, "r", _integer, ctx=field)
            raw = _require(ms, "psi", field)
            if not isinstance(raw, dict):
                raise ConfigError(f"field '{field}.psi' must map words to values")
            table = {
                parse_word(w, f"{field}.psi"): _to_number(v, f"{field}.psi", log_weight=True)
                for w, v in raw.items()
            }
            return Gibbs(Potential(space, r, table))
        if kind == "mixture":
            lam = _field(ms, "lam", ctx=field)
            a = parse_measure(ms, space, field, "a")
            b = parse_measure(ms, space, field, "b")
            return Mixture(a, b, lam)
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"field '{field}' invalid: {e}") from None
    raise ConfigError(
        f"field '{field}.kind' must be bernoulli, markov, gibbs, or mixture; got {_shown(kind)}"
    )


def parse_grid(cfg: dict, field: str, default: list[float]) -> np.ndarray:
    if field not in cfg:
        return np.asarray(default, dtype=float)
    return sorted_grid(_list(cfg[field], field, _to_number))


def parse_schedule(cfg: dict) -> tuple[tuple[int, int], ...]:
    if "schedule" not in cfg:
        return DEFAULT_SCHEDULE
    pairs = _list(cfg["schedule"], "schedule", partial(_list, read=_integer))
    for pair in pairs:
        if len(pair) != 2 or not 1 <= pair[0] <= pair[1]:
            raise ConfigError(f"field 'schedule' entry {_shown(pair)} is not an [N, D] pair "
                              "of integers with 1 <= N <= D")
    return tuple(map(tuple, pairs))


def parse_cylinder_set(cfg: dict, space: ShiftSpace) -> CylinderSet:
    words = _list(_require(cfg, "K"), "K", parse_word)
    try:
        return CylinderSet(space, words)
    except (ValueError, MfentError) as e:
        raise ConfigError(f"field 'K' invalid: {e}") from None


def load_config(raw: str) -> dict:
    """Accepts a file path or an inline JSON object string."""
    text = raw
    if not raw.lstrip().startswith("{"):
        try:
            text = Path(raw).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            why = "not UTF-8 text" if isinstance(e, UnicodeDecodeError) else e.strerror
            raise ConfigError(f"config file {_shown(raw)} cannot be read: {why}") from None
    try:
        cfg = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer past 4300 digits
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require_irreducible(space: ShiftSpace, command: str) -> None:
    if not space.irreducible:
        raise ConfigError(f"field 'space.transitions' must be irreducible for {command}")


def cmd_spectrum(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    q_grid = parse_grid(cfg, "q_grid", DEFAULT_Q_GRID)
    if len(q_grid) < 3:
        raise ConfigError("field 'q_grid' needs at least 3 distinct points for a conjugate")
    k = _field(cfg, "k", _integer, 0, lo=0)
    schedule = parse_schedule(cfg)
    if len({N for N, _ in schedule}) < 2:
        raise ConfigError("field 'schedule' needs at least 2 distinct N for a slope")
    if any(D != N for N, D in schedule):
        # h(q) is fitted over the N alone; a D of its own would only be a label
        raise ConfigError("field 'schedule' entries must have D = N for spectrum")
    N_max = max(N for N, _ in schedule)
    _require_irreducible(model.space, "spectrum")
    beta_grid = parse_grid(cfg, "beta_grid", []) if "beta_grid" in cfg else None

    curve = _within("fields 'schedule' and 'k'", h_curve, model, q_grid, k, schedule)
    rows = [
        (float(q), float(h), float(h_minus), float(h_plus), N_max, N_max, k)
        for q, h, h_minus, h_plus in zip(curve.q_grid, curve.h_values,
                                         *one_sided_derivatives(curve))
    ]
    tables = [("spectrum.csv", ["q", "h", "h_minus", "h_plus", "N", "D", "k"], rows)]

    try:
        ep = domain_endpoints(curve)
        tables.append((
            "endpoints.csv",
            ["beta_lower", "beta_upper", "beta_lower_extrapolated",
             "beta_upper_extrapolated", "error_bar", "N", "D", "k"],
            [(ep.lower, ep.upper, ep.lower_extrapolated, ep.upper_extrapolated,
              ep.error_bar, N_max, N_max, k)],
        ))
        beta_lo, beta_hi = ep.lower, ep.upper
    except ValueError:
        # grid tails too short for endpoints; the conjugate's own reach instead
        beta_lo, beta_hi = curve.slope_range()
    if beta_grid is None:
        beta_grid = sorted_grid(np.linspace(beta_lo, beta_hi, 41))
    h_star, in_domain = legendre(curve, beta_grid)
    lg_rows = [
        (float(b), float(hs), bool(d), N_max, N_max, k)
        for b, hs, d in zip(beta_grid, h_star, in_domain)
    ]
    tables.append(("legendre.csv", ["beta", "h_star", "in_domain", "N", "D", "k"], lg_rows))
    return tables


def cmd_premeasure(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    K = parse_cylinder_set(cfg, model.space)
    q = _field(cfg, "q")
    t = _field(cfg, "t")
    N = _field(cfg, "N", _integer, lo=1)
    D = _field(cfg, "D", _integer, lo=N)
    k = _field(cfg, "k", _integer, 0, lo=0)
    mode = cfg.get("mode", "covering")
    if mode not in ("covering", "packing"):
        raise ConfigError(f"field 'mode' must be covering or packing; got {_shown(mode)}")
    ev = _within("fields 'D' and 'k'", TreeEvaluator, model, K, k, D)
    log_value = (ev.covering_log if mode == "covering" else ev.packing_log)(q, t, N)
    value = math.inf if log_value >= _LOG_FLOAT_MAX else math.exp(log_value)
    return [(
        "premeasure.csv",
        ["mode", "q", "t", "N", "D", "k", "log_value", "value"],
        [(mode, q, t, N, D, k, log_value, value)],
    )]


def cmd_entropy(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    K = parse_cylinder_set(cfg, model.space)
    q = _field(cfg, "q", default=0.0)
    k = _field(cfg, "k", _integer, 0, lo=0)
    schedule = parse_schedule(cfg)
    D_max = max(D for _, D in schedule)
    # every entry of both estimates folds on one evaluator
    ev = _within("fields 'schedule' and 'k'", TreeEvaluator, model, K, k, D_max)
    bowen = bowen_entropy(ev, q, schedule)
    # refining the packing by cylinder-partition covers gives the packing itself
    packing = packing_entropy_delta(ev, q, schedule)
    estimates = (("bowen", bowen), ("packing_delta", packing), ("packing", packing))
    return [(
        "entropy.csv",
        ["method", "q", "N", "D", "k", "value", "error_bar", "degenerate"],
        [(method, q, e.N_used, e.D_used, e.k, e.value, e.error_bar, e.degenerate)
         for method, e in estimates],
    )]


def cmd_verify_gibbs(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    q_grid = parse_grid(cfg, "q_grid", DEFAULT_Q_GRID)
    if not isinstance(model, Chain):
        raise ConfigError("field 'measure.kind' must be bernoulli, markov, or gibbs for verify-gibbs")
    _require_irreducible(model.space, "verify-gibbs")

    rows = [(float(q), gibbs_identity_residual(model, float(q))) for q in q_grid]
    return [("verify_gibbs.csv", ["q", "residual"], rows)]


def cmd_doubling(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    k = _field(cfg, "k", _integer, 1, lo=1)
    n_max = _field(cfg, "n_max", _integer, 8, lo=1)
    rep = _within("fields 'n_max' and 'k'", doubling_check, model, k, n_max)
    bound = rep.analytic_bound if rep.analytic_bound is not None else math.nan
    return [(
        "doubling.csv",
        ["k", "n_max", "empirical_sup", "analytic_bound", "unbounded"],
        [(rep.k, rep.n_max, rep.empirical_sup, bound, rep.unbounded)],
    )]


def cmd_local(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    k = _field(cfg, "k", _integer, 0, lo=0)
    tail_fraction = _field(cfg, "tail_fraction", default=0.25)
    if not 0 < tail_fraction <= 1:
        raise ConfigError(f"field 'tail_fraction' must be in (0, 1], got {_shown(tail_fraction)}")
    if "words" in cfg:
        words = _list(cfg["words"], "words", parse_word, nonempty=False)
        for w in words:
            if len(w) < k + 1 or not model.space.is_admissible(w):
                raise ConfigError(f"field 'words' entry {_shown(w)} must be an admissible "
                                  f"word of length >= {k + 1}")
    else:
        n = _field(cfg, "n", _integer, ctx="config (needed when 'words' is absent)", lo=1)
        count = _field(cfg, "count", _integer, 100, lo=0)
        if count * (n + k) > _MAX_LOCAL_SYMBOLS:
            raise ConfigError(
                f"fields 'count', 'n' and 'k' too large: count * (n + k) exceeds "
                f"{_MAX_LOCAL_SYMBOLS} sampled symbols"
            )
        rng = np.random.default_rng(seed)
        words = [model.sample_word(n + k, rng) for _ in range(count)]

    rows = []
    for w in words:
        s = local_entropy(model, w, k=k, tail_fraction=tail_fraction)
        rows.append(("".join(str(c) for c in w), s.lower, s.upper, len(w) - k, k))
    return [("local.csv", ["word", "lower", "upper", "n", "k"], rows)]


def cmd_level_spectrum(cfg: dict, model: MeasureModel, seed: int) -> list[Table]:
    n = _field(cfg, "n", _integer, 14, lo=1)
    k = _field(cfg, "k", _integer, 0, lo=0)
    bin_width = _field(cfg, "bin_width", default=0.05)
    half_width = _field(cfg, "half_width", default=0.08)
    for field, width in (("bin_width", bin_width), ("half_width", half_width)):
        if not width > 0:
            raise ConfigError(f"field '{field}' must be positive, got {_shown(width)}")
    q_grid = parse_grid(cfg, "q_grid", [0.0, 1.0, 2.0])

    try:
        bins = _within("fields 'n' and 'k'", level_set_spectrum_oracle, model, n, bin_width, k)
    except OverflowError as e:
        raise ConfigError(f"field 'bin_width' invalid: {e}") from None
    # the oracle's level is cached, so reading it again here costs nothing
    if (q_grid < 0).any() and np.isneginf(log_mass_array(model, n + k)).any():
        raise ConfigError(
            "field 'q_grid' has q < 0, where the tangency level is undefined: "
            f"a word of length n + k = {n + k} has zero mass"
        )
    rows = [(b.beta, b.count, b.entropy_estimate, b.word_length, k) for b in bins]
    res_rows = [
        (float(q), *level_tangency_residual(model, float(q), n, k, half_width), n, k)
        for q in q_grid
    ]
    return [
        ("level_spectrum.csv", ["beta_bin", "count", "entropy_estimate", "n", "k"], rows),
        ("level_residuals.csv", ["q", "beta", "residual", "n", "k"], res_rows),
    ]


COMMANDS = {
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
    if args.seed < 0:  # numpy's generators take only non-negative seeds
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    out = Path(args.out)
    # mkdir would fail only after the work: a file at --out or on its path
    if not os.path.isdir(next(p for p in (out, *out.parents) if os.path.exists(p))):
        parser.error(f"argument --out: {_shown(args.out)} is a file or lies below one")

    try:
        cfg = load_config(args.config)
        space = parse_space(cfg)
        model = parse_measure(cfg, space)
        tables = COMMANDS[args.command](cfg, model, args.seed)
    except (ConfigError, TooLargeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (BracketError, ConvergenceError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except MfentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:  # after the work: a name past the file system's limit, no write permission
        out.mkdir(parents=True, exist_ok=True)
        for name, header, rows in tables:
            write_csv(out / name, header, rows)
    except OSError as e:
        parser.error(f"argument --out: {_shown(args.out)}: {e.strerror}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
