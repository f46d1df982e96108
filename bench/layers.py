"""Per-layer metrics of one traced pass, from the tracer's aggregates.

Names follow ``<layer>.<quantity>``; a layer is an ``mfent`` module.
Times are seconds of inclusive time (each interval counted once), except
``solver.root_s``, ``measures.log_mass_s`` and ``cli.parse_s``, which are
self time (time not spent in another wrapped call); ``share.<layer>`` is the layer's self time over
the traced pass's wall time, and ``share.unwrapped`` is the rest (the
benchmark's own loop and code outside any wrapped function).
"""

from __future__ import annotations

LAYERS = ("cli", "space", "measures", "premeasure", "solver", "spectrum", "thermo", "perron", "local")
MODELS = ("Bernoulli", "Markov", "Gibbs", "Mixture")

BUILD = "premeasure.TreeEvaluator.__init__"
SWEEPS = tuple(f"premeasure.TreeEvaluator.{m}" for m in ("covering_log", "packing_log", "outer_log"))
ROOT = "solver._critical_exponent_impl"
SCHEDULES = ("solver.bowen_entropy", "solver.packing_entropy_delta", "solver.packing_entropy")
LOG_MASS = tuple(f"measures.{c}.log_mass" for c in MODELS)
SAMPLE_WORD = tuple(f"measures.{c}.sample_word" for c in MODELS)
LEVEL = tuple(f"spectrum.{f}" for f in (
    "level_set_spectrum_oracle", "level_set_window", "tangency_beta", "level_tangency_residual",
))
PERRON = ("perron.perron_root", "perron.perron_triple")
# main's own time is argument parsing and dispatch
PARSE = ("cli.main", "cli.load_config", "cli.parse_word", "cli.parse_space", "cli.parse_measure",
         "cli.parse_grid", "cli.parse_schedule", "cli.parse_cylinder_set")

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(t, wall_s: float) -> dict[str, float]:
    info = t.cache.cache_info()
    lookups = info.hits + info.misses
    roots, schedules = t.calls(ROOT), t.calls(SCHEDULES)
    sweep_s = t.inclusive(SWEEPS)
    out = {
        "premeasure.build_s": t.inclusive(BUILD),
        "premeasure.builds": t.calls(BUILD),
        "premeasure.tree_nodes": t.counters.get("tree_nodes", 0),
        "premeasure.sweep_s": sweep_s,
        "premeasure.sweeps": t.calls(SWEEPS),
        "premeasure.sweep_ns_per_node": 1e9 * _ratio(sweep_s, t.counters.get("swept_nodes", 0)),
        "solver.root_s": t.self_time(ROOT),
        "solver.roots": roots,
        "solver.sweeps_per_root": _ratio(t.calls_under(SWEEPS, ROOT), roots),
        "solver.builds_per_schedule": _ratio(t.calls_under(BUILD, SCHEDULES), schedules),
        "measures.log_mass_s": t.self_time(LOG_MASS),
        "measures.log_mass_calls": t.calls(LOG_MASS),
        "space.admissible_checks": t.calls("space.ShiftSpace.is_admissible"),
        "space.intersects_calls": t.calls(("space.CylinderSet.intersects", "space.intersects")),
        "measures.log_mass_array_s": t.inclusive("measures.log_mass_array"),
        "measures.log_mass_array_words": t.counters.get("log_mass_array_words", 0),
        "measures.log_mass_array_hit_ratio": _ratio(info.hits, lookups),
        "measures.log_mass_array_lookups": lookups,
        "spectrum.h_curve_s": t.inclusive("spectrum.h_curve"),
        "spectrum.log_partition_calls": t.calls("spectrum.log_partition"),
        "spectrum.level_s": t.inclusive(LEVEL),
        "spectrum.legendre_s": t.inclusive("spectrum.legendre"),
        "perron.s": t.inclusive(PERRON),
        "perron.calls": t.calls("perron.perron_triple"),
        "perron.failures": t.errors("perron.perron_triple"),
        "thermo.residual_s": t.inclusive("thermo.gibbs_identity_residual"),
        "local.local_entropy_s": t.inclusive("local.local_entropy"),
        "local.prefixes": t.counters.get("prefixes", 0),
        "measures.sample_word_s": t.inclusive(SAMPLE_WORD),
        "measures.doubling_check_s": t.inclusive("measures.doubling_check"),
        "cli.main_calls": t.calls("cli.main"),
        "cli.parse_s": t.self_time(PARSE),
        "cli.write_s": t.inclusive("cli.write_csv"),
    }
    self_times = t.layer_self_times()
    for layer in LAYERS:
        out[f"share.{layer}"] = _ratio(self_times.get(layer, 0.0), wall_s)
    out["share.unwrapped"] = 1.0 - sum(out[f"share.{layer}"] for layer in LAYERS)
    return out


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio") or name.startswith("share."):
        return "ratio"
    if name.endswith("_per_node"):
        return "ns"
    return "count"


def predictions(workload: str, m: dict[str, float], wall_s: float,
                cli_jobs: int) -> list[tuple[str, bool]]:
    """The layer predictions stated before measuring, and whether they held."""
    tree_s = m["premeasure.build_s"] + m["premeasure.sweep_s"]
    out = {
        "entropy-schedule": [
            ("premeasure.build_s is most of wall_s", m["premeasure.build_s"] > 0.5 * wall_s),
            ("no log_mass_array time", m["measures.log_mass_array_s"] == 0),
        ],
        "exponent-scan": [
            ("premeasure.sweep_s is most of wall_s", m["premeasure.sweep_s"] > 0.5 * wall_s),
            ("one tree build", m["premeasure.builds"] == 1),
            ("no log_mass_array time", m["measures.log_mass_array_s"] == 0),
        ],
        "partition-spectrum": [
            ("no premeasure time", tree_s == 0),
        ],
        "pointwise-oracles": [
            ("no premeasure time", tree_s == 0),
            ("perron failures are counted", m["perron.failures"] > 0),
        ],
    }[workload]
    out.append(("cli parse and write under 5% of wall_s",
                m["cli.parse_s"] + m["cli.write_s"] < 0.05 * wall_s))
    out.append(("every CLI job ran in-process through mfent.cli.main",
                m["cli.main_calls"] == cli_jobs))
    return out
