import ast
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import resource
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mfent
from mfent.cli import COMMANDS, main

FULL2 = {"alphabet": 2, "transitions": [[1, 1], [1, 1]]}
GOLDEN = {"alphabet": 2, "transitions": [[1, 1], [1, 0]]}
FAIR = {"kind": "bernoulli", "p": [0.5, 0.5]}
BIASED = {"kind": "bernoulli", "p": [0.25, 0.75]}
PARRY = {"kind": "markov", "P": [[0.618, 0.382], [1.0, 0.0]]}
LOG2 = math.log(2)
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the 2-cycle shift: one word of each length per first symbol, so a deep tree
# is cheap level by level and only its depth can make it too large
CYCLE2 = {"alphabet": 2, "transitions": [[0, 1], [1, 0]]}
FLIP = {"kind": "markov", "P": [[0, 1], [1, 0]], "pi": [0.5, 0.5]}
MIXTURE = {"kind": "mixture", "lam": 0.5, "a": FAIR, "b": BIASED}
GOLDEN_DIR = Path(__file__).parent / "data" / "cli"


def nested(depth, leaf=0.5):
    """``leaf`` inside ``depth`` one-item lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def run(command, cfg, out, extra=()):
    return main([command, "--config", json.dumps(cfg), "--out", str(out), *extra])


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def child_env():
    """The environment of a child process importing the same mfent as this
    one, installed or not."""
    src = str(Path(mfent.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def run_subprocess(args, timeout=20, **kwargs):
    """``python -m mfent.cli`` in a child process of ``child_env``;
    ``kwargs`` go to ``subprocess.run``."""
    return subprocess.run(
        [sys.executable, "-m", "mfent.cli", *args],
        capture_output=True, text=True, env=child_env(), timeout=timeout, **kwargs,
    )


class TestSpectrumCommand:
    def test_fair_coin_closed_form(self, tmp_path):
        cfg = {
            "space": FULL2,
            "measure": FAIR,
            "schedule": [[4, 4], [8, 8], [12, 12]],
        }
        assert run("spectrum", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows  # default grid -3..3 step 0.25
        worst = max(
            abs(float(r["h"]) - (1 - float(r["q"])) * LOG2) for r in rows
        )
        assert worst <= 2e-2
        assert {"q", "h", "h_minus", "h_plus", "N", "D", "k"} <= set(rows[0])

    def test_endpoints_written_for_wide_grid(self, tmp_path):
        cfg = {
            "space": FULL2,
            "measure": BIASED,
            "schedule": [[4, 4], [8, 8]],
            "q_grid": [-20, -12, -6, -3, -1, 0, 1, 3, 6, 12, 20],
        }
        assert run("spectrum", cfg, tmp_path) == 0
        ep = read_csv(tmp_path / "endpoints.csv")[0]
        assert float(ep["beta_lower_extrapolated"]) == pytest.approx(
            math.log(4 / 3), abs=1e-4
        )
        assert float(ep["beta_upper_extrapolated"]) == pytest.approx(
            math.log(4), abs=1e-4
        )
        assert (tmp_path / "legendre.csv").exists()

    def test_q_one_is_exactly_zero(self, tmp_path):
        # the masses of a level sum to one, so h(1) carries no rounding noise
        cfg = {"space": FULL2, "measure": BIASED, "q_grid": [-1, 0, 1, 2]}
        assert run("spectrum", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert [r["h"] for r in rows if r["q"] == "1"] == ["0"]

    def test_deterministic_bytes(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED, "schedule": [[4, 4], [8, 8]]}
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("spectrum", cfg, a) == 0
        assert run("spectrum", cfg, b) == 0
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        assert (a / "legendre.csv").read_bytes() == (b / "legendre.csv").read_bytes()

    @pytest.mark.parametrize("extra", [{}, {"beta_grid": [0.5, 1.0]}])
    def test_one_finite_h_is_a_numeric_failure(self, tmp_path, extra):
        # zero-mass words make h(q) infinite at every q < 0, leaving one
        # finite value and no chord slope for the conjugate
        cfg = {"space": FULL2, "measure": {"kind": "bernoulli", "p": [1, 0]},
               "q_grid": [-2, -1, 0], **extra}
        out = tmp_path / "out"
        proc = run_subprocess(["spectrum", "--config", json.dumps(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_point_next_to_boundary_has_derivatives(self, tmp_path):
        # 1e-13 is within 1e-12 of the end point 0, but still an inner grid point
        cfg = {"space": FULL2, "measure": BIASED, "schedule": [[4, 4], [8, 8]],
               "q_grid": [0, 1e-13, 1]}
        assert run("spectrum", cfg, tmp_path) == 0
        mid = read_csv(tmp_path / "spectrum.csv")[1]
        assert math.isfinite(float(mid["h_minus"])) and math.isfinite(float(mid["h_plus"]))

    def test_close_points_get_their_own_derivatives(self, tmp_path):
        # two grid points within 1e-12 of each other each keep their own row
        cfg = {"space": FULL2, "measure": BIASED, "schedule": [[4, 4], [8, 8]],
               "q_grid": [0, 0.5, 0.5 + 1e-13, 1]}
        assert run("spectrum", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[1]["h_minus"] != rows[2]["h_minus"]


class TestPremeasureCommand:
    def test_counting_value(self, tmp_path):
        cfg = {
            "space": FULL2, "measure": FAIR, "K": [[]],
            "q": 0, "t": LOG2, "N": 1, "D": 6, "mode": "covering",
        }
        assert run("premeasure", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "premeasure.csv")[0]
        assert float(row["value"]) == pytest.approx(1.0, abs=1e-10)

    def test_value_finite_below_float_max(self, tmp_path):
        # 2^8 packed words of weight e^{87 * 8}: log value ~701.5, value ~1e304
        cfg = {
            "space": FULL2, "measure": FAIR, "K": [[]],
            "q": 0, "t": -87, "N": 1, "D": 8, "mode": "packing",
        }
        assert run("premeasure", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "premeasure.csv")[0]
        assert float(row["log_value"]) == pytest.approx(87 * 8 + 8 * LOG2)
        assert float(row["value"]) == pytest.approx(math.exp(float(row["log_value"])), rel=1e-8)

    @pytest.mark.parametrize(
        "t, Y, D, value",
        [
            # 2^8 words of weight e^{100 * 8}: log value ~805.5, past the float range
            (-100, [[]], 8, "inf"),
            # one word of order 1 at weight e^{-t}: log value exactly -t
            (-LOG_FLOAT_MAX, [[0]], 1, "inf"),
            (-math.nextafter(LOG_FLOAT_MAX, 0.0), [[0]], 1,
             "%.12g" % math.exp(math.nextafter(LOG_FLOAT_MAX, 0.0))),
        ],
        ids=["past-float-range", "at-log-float-max", "just-below"],
    )
    def test_value_is_inf_exactly_where_exp_overflows(self, tmp_path, t, Y, D, value):
        cfg = {
            "space": FULL2, "measure": FAIR, "K": Y,
            "q": 0, "t": t, "N": 1, "D": D, "mode": "packing",
        }
        assert run("premeasure", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "premeasure.csv")[0]
        assert row["value"] == value
        if D == 1:
            assert float(row["log_value"]) == pytest.approx(-t, rel=1e-12)

    def test_outer_mode(self, tmp_path, capsys):
        cfg = {
            "space": FULL2, "measure": FAIR, "K": [[0], [1, 1]],
            "q": 0, "t": LOG2, "N": 1, "D": 6, "mode": "outer",
        }
        assert run("premeasure", cfg, tmp_path / "out") == 2
        assert "'mode'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_mode_is_config_error(self, tmp_path):
        cfg = {
            "space": FULL2, "measure": FAIR, "K": [[]],
            "q": 0, "t": 0, "N": 1, "D": 4, "mode": "sideways",
        }
        assert run("premeasure", cfg, tmp_path) == 2


class TestEntropyCommand:
    def test_golden_mean(self, tmp_path):
        phi = (1 + math.sqrt(5)) / 2
        cfg = {
            "space": GOLDEN,
            "measure": {"kind": "markov", "P": [[1 / phi, 1 - 1 / phi], [1.0, 0.0]]},
            "K": [[]],
            "q": 0,
            "schedule": [[4, 4], [8, 8], [10, 10]],
        }
        assert run("entropy", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "entropy.csv")
        methods = {r["method"] for r in rows}
        assert methods == {"bowen", "packing_delta", "packing"}
        for r in rows:
            assert float(r["value"]) == pytest.approx(math.log(phi), abs=2e-2)

    def test_cover_depth_above_n_plus_k(self, tmp_path):
        # the cover-refined packing is the packing itself, so both rows carry
        # one estimate; cover_depth is no entropy field and goes unread
        cfg = {"space": FULL2, "measure": BIASED, "K": [[0], [1, 0, 1]], "q": 0.5,
               "schedule": [[4, 8], [8, 8]], "cover_depth": 5}
        assert run("entropy", cfg, tmp_path) == 0
        rows = {r.pop("method"): r for r in read_csv(tmp_path / "entropy.csv")}
        assert rows["packing"] == rows["packing_delta"]

    def test_chain_depth_without_trees(self, tmp_path):
        # the golden-mean tree to depth 30 holds 5.7M nodes, past the tree cap;
        # a chain folds over 31 levels of 2 (chain node, trie state) pairs
        phi = (1 + math.sqrt(5)) / 2
        cfg = {"space": GOLDEN, "K": [[]], "q": 0, "schedule": [[20, 20], [30, 30]],
               "measure": {"kind": "markov", "P": [[1 / phi, 1 - 1 / phi], [1.0, 0.0]]}}
        assert run("entropy", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "entropy.csv")
        assert len(rows) == 3
        for r in rows:
            assert float(r["value"]) == pytest.approx(math.log(phi), abs=1e-2)

    @pytest.mark.parametrize(
        "cfg",
        [
            # a cover_depth, above N + k of some entry or not, is unread
            {"space": GOLDEN, "measure": PARRY, "K": [[]], "schedule": [[4, 4], [8, 8], [10, 10]]},
            {"space": FULL2, "measure": BIASED, "K": [[0], [1, 0, 1]], "q": 0.5,
             "schedule": [[4, 8], [8, 8]], "cover_depth": 5},
            {"space": FULL2, "measure": MIXTURE, "K": [[0, 1], [1, 1, 0]], "q": -1,
             "schedule": [[4, 4], [6, 10], [10, 10]], "cover_depth": 4},
        ],
        ids=["outer-is-packing", "refined-chain", "refined-mixture"],
    )
    def test_one_evaluator_per_run(self, tmp_path, monkeypatch, cfg):
        # every entry of both estimates folds on one evaluator at the largest D
        built = []
        init = mfent.TreeEvaluator.__init__

        def counting_init(self, model, K, k, D):
            built.append(D)
            init(self, model, K, k, D)

        monkeypatch.setattr(mfent.TreeEvaluator, "__init__", counting_init)
        assert run("entropy", cfg, tmp_path) == 0
        assert built == [max(D for _, D in cfg["schedule"])]

    def test_mixture_tree_cap_before_any_tree(self, tmp_path, capsys, monkeypatch):
        # the depth-22 tree of the full 2-shift holds 2^23 - 1 nodes; the cap
        # counts them before the first schedule entry's tree is built
        monkeypatch.setattr(mfent.Mixture, "extend", None)
        cfg = {"space": FULL2, "measure": MIXTURE, "K": [[]],
               "schedule": [[10, 10], [22, 22]]}
        assert run("entropy", cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "'schedule'" in err and "'k'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_numeric_string_schedule(self, tmp_path):
        # numeric strings are numbers in every config field
        cfg = {"space": FULL2, "measure": FAIR, "K": [[]], "schedule": [[4, 4], [6, 6]]}
        assert run("entropy", cfg, tmp_path / "a") == 0
        cfg["schedule"] = [["4", "4"], ["6", 6.0]]
        assert run("entropy", cfg, tmp_path / "b") == 0
        name = "entropy.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_numeric_failure_exit_code(self, tmp_path):
        # q > 0 with an unbounded mass-halving ratio cannot be certified
        cfg = {
            "space": FULL2,
            "measure": {"kind": "bernoulli", "p": [1.0, 0.0]},
            "K": [[]],
            "q": 2,
            "schedule": [[4, 4], [6, 6]],
        }
        out = tmp_path / "out"
        assert run("entropy", cfg, out) == 1
        assert not out.exists()  # tables are written only after a command succeeds


class TestVerifyGibbsCommand:
    def test_bernoulli_residuals(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED}
        assert run("verify-gibbs", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "verify_gibbs.csv")
        assert len(rows) == 25
        assert all(float(r["residual"]) <= 1e-6 for r in rows)

    def test_gibbs_config_parsing(self, tmp_path):
        cfg = {
            "space": FULL2,
            "measure": {
                "kind": "gibbs",
                "r": 2,
                "psi": {"00": -1.2, "01": -0.36, "10": -0.51, "11": -0.92},
            },
            "q_grid": [-1, 0.5, 2],
        }
        assert run("verify-gibbs", cfg, tmp_path) == 0
        rows = read_csv(tmp_path / "verify_gibbs.csv")
        assert all(float(r["residual"]) <= 1e-8 for r in rows)


class TestDoublingCommand:
    def test_biased_bound(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED}
        assert run("doubling", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "doubling.csv")[0]
        assert float(row["empirical_sup"]) == 4.0
        assert float(row["analytic_bound"]) == 4.0
        assert row["unbounded"] == "false"

    def test_unbounded_is_still_success(self, tmp_path):
        cfg = {"space": FULL2, "measure": {"kind": "bernoulli", "p": [1.0, 0.0]}}
        assert run("doubling", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "doubling.csv")[0]
        assert row["unbounded"] == "true"
        assert row["empirical_sup"] == "inf"

    def test_oversized_level_is_config_error(self, tmp_path, capsys):
        cfg = {"space": FULL2, "measure": FAIR, "n_max": 30}
        assert run("doubling", cfg, tmp_path) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestLocalCommand:
    def test_sampled_words(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED, "n": 20, "count": 7}
        assert run("local", cfg, tmp_path, extra=["--seed", "3"]) == 0
        rows = read_csv(tmp_path / "local.csv")
        assert len(rows) == 7
        for r in rows:
            assert float(r["lower"]) <= float(r["upper"])

    def test_explicit_words(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED, "words": ["1111111111"]}
        assert run("local", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "local.csv")[0]
        assert float(row["upper"]) == pytest.approx(-math.log(0.75), abs=1e-9)

    def test_seed_determinism(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED, "n": 15, "count": 4}
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("local", cfg, a, extra=["--seed", "11"]) == 0
        assert run("local", cfg, b, extra=["--seed", "11"]) == 0
        assert (a / "local.csv").read_bytes() == (b / "local.csv").read_bytes()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_seed_refused(self, tmp_path, capsys, command):
        # numpy's generators take only non-negative seeds: refused as an argument
        cfg = {"space": FULL2, "measure": BIASED}
        with pytest.raises(SystemExit) as exit_info:
            run(command, cfg, tmp_path / "out", extra=["--seed", "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestLevelSpectrumCommand:
    def test_bins_and_residuals(self, tmp_path):
        cfg = {"space": FULL2, "measure": BIASED, "n": 14}
        assert run("level-spectrum", cfg, tmp_path) == 0
        bins = read_csv(tmp_path / "level_spectrum.csv")
        assert sum(int(r["count"]) for r in bins) == 2**14
        res = read_csv(tmp_path / "level_residuals.csv")
        assert [float(r["q"]) for r in res] == [0.0, 1.0, 2.0]
        assert all(float(r["residual"]) <= 7e-2 for r in res)


class TestConfigErrors:
    def test_invalid_json(self, tmp_path, capsys):
        assert main(["spectrum", "--config", "{oops", "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 2

    def test_missing_field_named(self, tmp_path, capsys):
        assert run("spectrum", {"space": FULL2}, tmp_path) == 2
        assert "'measure'" in capsys.readouterr().err

    def test_bad_row_named(self, tmp_path, capsys):
        cfg = {"space": FULL2, "measure": {"kind": "markov", "P": [[0.5, 0.6], [1, 0]]}}
        assert run("spectrum", cfg, tmp_path) == 2
        assert "row 0" in capsys.readouterr().err

    def test_psi_minus_inf_is_a_structural_zero(self, tmp_path):
        psi = {"00": "-inf", "01": -0.5, "10": -1.0, "11": -0.3}
        cfg = {"space": FULL2, "measure": {"kind": "gibbs", "r": 2, "psi": psi}}
        assert run("verify-gibbs", cfg, tmp_path) == 0
        assert all(float(r["residual"]) <= 1e-10 for r in read_csv(tmp_path / "verify_gibbs.csv"))

    def test_missing_psi_word_named(self, tmp_path, capsys):
        cfg = {
            "space": FULL2,
            "measure": {"kind": "gibbs", "r": 2, "psi": {"00": -1.0}},
        }
        assert run("verify-gibbs", cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert "0" in err and "1" in err

    def test_unknown_kind(self, tmp_path, capsys):
        cfg = {"space": FULL2, "measure": {"kind": "poisson"}}
        assert run("spectrum", cfg, tmp_path) == 2
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, field",
        [
            ("entropy", {"K": [[]], "schedule": [[5, 3]]}, "schedule"),
            ("entropy", {"K": [[]], "schedule": [["a", 3]]}, "schedule"),
            ("entropy", {"K": [[]], "schedule": [[0, 3]]}, "schedule"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 1, "D": 2, "mode": "outer",
                            "cover_depth": -1}, "'mode'"),
            ("local", {"n": 10, "tail_fraction": 2}, "tail_fraction"),
            ("local", {"n": 0}, "'n'"),
            ("level-spectrum", {"bin_width": 0}, "bin_width"),
            ("doubling", {"k": 0}, "'k'"),
            ("spectrum", {"k": -1}, "'k'"),
            ("entropy", {"K": []}, "'K'"),
            ("premeasure", {"K": [], "q": 0, "t": 0, "N": 1, "D": 2}, "'K'"),
            ("entropy", {"K": [[]], "q": "nan"}, "'q'"),
            ("premeasure", {"K": [[]], "q": 0, "t": "inf", "N": 1, "D": 2}, "'t'"),
            ("local", {"words": ["01"], "k": 5}, "'words'"),
            ("local", {"space": GOLDEN, "measure": PARRY, "words": ["11"]}, "'words'"),
            ("premeasure", {"K": [[]], "q": True, "t": 0, "N": 1, "D": 2}, "'q'"),
            ("premeasure", {"K": [[]], "q": 0, "t": False, "N": 1, "D": 2}, "'t'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": True, "D": 2}, "'N'"),
            ("entropy", {"K": [[]], "schedule": [[True, True]]}, "schedule"),
            ("spectrum", {"q_grid": [0.0, True]}, "q_grid"),
            ("premeasure", {"K": [[True]], "q": 0, "t": 0, "N": 1, "D": 2}, "'K'"),
            ("premeasure", {"K": [[1.5]], "q": 0, "t": 0, "N": 1, "D": 2}, "'K'"),
            ("spectrum", {"measure": {"kind": "bernoulli", "p": [True, False]}}, "'measure.p'"),
            ("spectrum", {"measure": {"kind": "markov", "P": [[True, 0], [0, 1]]}}, "'measure.P'"),
            ("spectrum", {"measure": {"kind": "markov", "P": [[0.5, 0.5], [0.5, 0.5]],
                                      "pi": [True, 0]}}, "'measure.pi'"),
            ("verify-gibbs", {"measure": {"kind": "gibbs", "r": 2, "psi": {
                "00": True, "01": -1.0, "10": -1.0, "11": -1.0}}}, "'measure.psi'"),
            ("local", {"n": 5, "measure": {**MIXTURE, "b": {"kind": "bernoulli", "p": [0, "x"]}}},
             "'measure.b.p'"),
            ("verify-gibbs", {"measure": MIXTURE}, "'measure.kind'"),
            ("spectrum", {"measure": {"kind": "bernoulli", "p": ["nan", 1]}}, "'measure.p'"),
            ("entropy", {"K": [[]], "q": 10**400}, "'q'"),
            ("entropy", {"K": [[]], "schedule": [["4", 4.5]]}, "'schedule'"),
            ("entropy", {"K": [[]], "schedule": [[4, True]]}, "'schedule'"),
            ("spectrum", {"space": {"alphabet": 2, "transitions": [[1, 1], [1, 1.7]]}},
             "'space.transitions'"),
            ("spectrum", {"space": {"alphabet": 2, "transitions": [[True, True], [True, 1]]}},
             "'space.transitions'"),
            ("verify-gibbs", {"space": {"alphabet": 2, "transitions": [[1, 1], [1, 257]]}},
             "'space.transitions'"),
            ("spectrum", {"schedule": [[4, 4]]}, "'schedule'"),
            ("spectrum", {"schedule": [[4, 4], [4, 8]]}, "'schedule'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 0, "D": 2}, "'N'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 3, "D": 2}, "'D'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 1, "D": 2, "k": -1}, "'k'"),
            ("spectrum", {"schedule": [[4, 4], [8, 16]]}, "'schedule'"),
        ],
    )
    def test_bad_field_named(self, tmp_path, capsys, command, extra, field):
        cfg = {"space": FULL2, "measure": FAIR, **extra}
        assert run(command, cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_integer_beyond_float_range_not_echoed(self, tmp_path, capsys):
        cfg = {"space": {"alphabet": 2, "transitions": [[1, 10**400], [1, 1]]}, "measure": FAIR}
        assert run("spectrum", cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert "'space.transitions'" in err and "beyond the float range" in err
        assert len(err) < 100, err


class TestNoWorkOnBadConfig:
    """Every field, size caps included, is checked before any work: a bad or
    oversized config exits 2 naming the field, with no traceback and no
    output directory.  The cases are huge sizes, which must be refused before
    any loop or allocation, grids too short for a conjugate, and fields whose
    values only matter after the computation."""

    @pytest.mark.parametrize(
        "command, extra, field",
        [
            ("spectrum", {"k": 1e308}, "'k'"),
            ("level-spectrum", {"n": 1e308}, "'n'"),
            ("level-spectrum", {"k": 1e308}, "'k'"),
            ("local", {"n": 10, "count": 1e308}, "'count'"),
            ("local", {"n": 1e308}, "'n'"),
            ("entropy", {"space": CYCLE2, "measure": FLIP, "K": [[]],
                         "schedule": [[1, 1e9]]}, "'schedule'"),
            ("premeasure", {"space": CYCLE2, "measure": FLIP, "K": [[]],
                            "q": 0, "t": 0, "N": 1, "D": 1e12}, "'D'"),
            ("spectrum", {"q_grid": [1]}, "'q_grid'"),
            ("spectrum", {"q_grid": [0, 1, 1.0]}, "'q_grid'"),
            ("spectrum", {"beta_grid": ["x"]}, "'beta_grid'"),
            ("level-spectrum", {"q_grid": ["x"]}, "'q_grid'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 1, "D": 2,
                            "mode": "outer", "cover_depth": 3}, "'mode'"),
            ("verify-gibbs", {"measure": {"kind": "gibbs", "r": 40, "psi": {"0" * 40: -1.0}}},
             "'measure'"),
            # 700,001 levels x 3 chain nodes x 1 trie state x 2 symbols
            ("entropy", {"space": GOLDEN, "measure": PARRY, "K": [[]],
                         "schedule": [[1, 700000]]}, "'schedule'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 1, "D": 2, "k": 1e308}, "'k'"),
            # the tangency level at q < 0 is undefined once a word has zero mass
            ("level-spectrum", {"measure": {"kind": "bernoulli", "p": [1, 0]}, "n": 4,
                                "q_grid": [-1]}, "'q_grid'"),
            # a 301-digit word length: the message states the cap, not the length
            ("doubling", {"k": 1e300, "n_max": 20}, "'k'"),
            # nested past the JSON parser's recursion limit; given as raw text,
            # which json.dumps cannot write either
            pytest.param("spectrum", '{"space": ' + "[" * 5000 + "]" * 5000 + "}",
                         "nested too deeply", id="spectrum-nested-config"),
            # every list is read one level deep, and a message shows at most
            # about 40 characters of a value
            ("spectrum", {"measure": {"kind": "bernoulli", "p": nested(500)}}, "'measure.p'"),
            ("spectrum", {"space": {"alphabet": 2, "transitions": nested(500, 1)}},
             "'space.transitions'"),
            ("spectrum", {"measure": {"kind": "bernoulli", "p": nested(300)}}, "'measure.p'"),
            ("entropy", {"K": nested(300, 0)}, "'K'"),
            ("spectrum", {"q_grid": nested(300)}, "'q_grid'"),
            ("entropy", {"K": [[]], "schedule": [nested(300, 4)]}, "'schedule'"),
            ("spectrum", {"measure": {"kind": nested(300, "bernoulli")}}, "'measure.kind'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": 1, "D": 2,
                            "mode": nested(300, "covering")}, "'mode'"),
            ("premeasure", {"K": [[]], "q": 0, "t": 0, "N": -1e308, "D": 2}, "'N'"),
            ("entropy", {"K": [[]], "q": "x" * 100_000}, "'q'"),
            ("local", {"space": GOLDEN, "measure": PARRY, "words": ["1" * 100_000]}, "'words'"),
            # an integer past 2^53 would reach library messages as 309 digits
            ("premeasure", {"K": [[1e308]], "q": 0, "t": 0, "N": 1, "D": 2}, "'K'"),
            ("spectrum", {"space": {**FULL2, "alphabet": 1e308}}, "'alphabet'"),
            # json.loads refuses integers past 4300 digits with a plain ValueError
            pytest.param("spectrum", '{"k": ' + "1" * 5000 + "}", "not valid JSON",
                         id="spectrum-5000-digit-integer"),
            # a library message names a long word by its length and first symbols
            ("entropy", {"space": GOLDEN, "measure": PARRY, "K": ["1" * 20000]}, "'K'"),
        ],
    )
    def test_exits_2_before_any_work(self, tmp_path, command, extra, field):
        if not isinstance(extra, str):
            extra = json.dumps({"space": FULL2, "measure": FAIR, **extra})
        out = tmp_path / "out"
        proc = run_subprocess([command, "--config", extra, "--out", str(out)])
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr) < 250, proc.stderr
        assert not out.exists()

    def test_long_potential_refused_at_once(self, tmp_path):
        # r = 100,000 with no table: the first missing word is found in time
        # and memory linear in r, and named by its length and first symbols;
        # listing the words would need memory quadratic in r, so the child
        # gets 1 GiB of address space
        cfg = {"space": FULL2, "measure": {"kind": "gibbs", "r": 100_000, "psi": {}}}
        out = tmp_path / "out"
        cap = (1 << 30, 1 << 30)
        proc = run_subprocess(
            ["verify-gibbs", "--config", json.dumps(cfg), "--out", str(out)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
        )
        assert proc.returncode == 2, proc.stderr[-500:]
        assert "'measure'" in proc.stderr and "of length 100000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr) < 250, proc.stderr
        assert not out.exists()


class TestRunArguments:
    @pytest.mark.parametrize("name, data", [
        ("utf16.json", b"\xff\xfe{}"),  # a UTF-16 byte order mark
        ("dir.json", None),  # a directory
        ("n" * 300 + ".json", None),  # a name past the file system's limit
    ], ids=["not-utf8", "directory", "name-too-long"])
    def test_unreadable_config_file(self, tmp_path, name, data):
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        elif len(name) < 255:
            path.mkdir()
        out = tmp_path / "out"
        proc = run_subprocess(["doubling", "--config", str(path), "--out", str(out)])
        assert proc.returncode == 2
        assert "config file" in proc.stderr and name[-8:] in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr) < 250, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-file"])
    def test_out_on_a_file_refused_before_any_work(self, tmp_path, capsys, monkeypatch, below):
        def no_work(raw):
            raise AssertionError("the config was read")

        monkeypatch.setattr(mfent.cli, "load_config", no_work)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        with pytest.raises(SystemExit) as exit_info:
            run("doubling", {"space": FULL2, "measure": FAIR}, taken.joinpath(*below))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert taken.read_text() == "kept"

    def test_out_the_os_refuses_exits_2(self, tmp_path, capsys):
        # a name past the file system's limit fails only at mkdir, after the
        # work; a directory without write permission would too, but the
        # tests may run as root, which the permission check lets through
        out = tmp_path / ("n" * 300)
        with pytest.raises(SystemExit) as exit_info:
            run("doubling", {"space": FULL2, "measure": FAIR}, out)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "too long" in err and "Traceback" not in err
        assert len(err) < 250, err


BERNOULLI_37 = {"kind": "bernoulli", "p": [0.3, 0.7]}
RANGE_MIXTURE = {"kind": "mixture", "lam": 0.4, "a": BERNOULLI_37,
                 "b": {"kind": "markov", "P": [[0.6, 0.4], [0.2, 0.8]]}}
# one config per command that takes q (and t), each small
RANGE_CONFIGS = {
    "spectrum": lambda q, t: {"q_grid": [q, 0, 1], "schedule": [[4, 4], [6, 6]]},
    "level-spectrum": lambda q, t: {"n": 6, "q_grid": [q]},
    "entropy": lambda q, t: {"K": [[0]], "q": q, "schedule": [[3, 5], [5, 7]]},
    "premeasure": lambda q, t: {"K": [[0]], "q": q, "t": t, "N": 2, "D": 6},
    "verify-gibbs": lambda q, t: {"q_grid": [q]},
}
RANGE_DRAWS = 100
# documented as possibly infinite or nan: the one-sided derivatives at the
# grid ends, the conjugate outside its domain, exp of a log value past the
# float maximum
NONFINITE_COLUMNS = {("spectrum.csv", "h_minus"), ("spectrum.csv", "h_plus"),
                     ("legendre.csv", "h_star"), ("premeasure.csv", "value")}


class TestNumericEdges:
    def test_underflowing_q_power_is_a_numeric_failure(self, tmp_path):
        # 0.25^1e308 and 0.75^1e308 are both 0: the q-power has no Perron root
        cfg = {"space": FULL2, "measure": BIASED, "q_grid": [1e308]}
        out = tmp_path / "out"
        proc = run_subprocess(["verify-gibbs", "--config", json.dumps(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        # tangency_beta's largest weight 1e308 log 0.7 overflows to -inf
        ("level-spectrum", {"n": 6, "q_grid": [1e308]}),
        # h(1e308) = 1e308 log 0.7 < 0 was written as inf
        ("spectrum", {"q_grid": [0, 1, 1e308]}),
        # log Z_N(-1e308) overflows to inf with no zero mass
        ("spectrum", {"q_grid": [-1e308, 0, 1]}),
        # q times the least log mass at depth D + k overflows: the tree
        # sweeps warned and wrote -inf values with inf bars, or nan
        ("entropy", {"K": [[0]], "q": 1e308, "k": 1, "schedule": [[3, 5], [5, 7]]}),
        ("entropy", {"K": [[0]], "q": -1e308, "k": 1, "schedule": [[3, 5]], "measure": MIXTURE}),
        ("premeasure", {"K": [[0]], "q": -1e308, "t": 0.4, "N": 2, "D": 6, "k": 1}),
        ("premeasure", {"K": [[0]], "q": 1e308, "t": 0.4, "N": 2, "D": 6, "k": 1,
                        "measure": MIXTURE}),
        # every weight q log m of the level must be finite, not only the
        # largest: 3e307 log 0.7^6 is finite, 3e307 log 0.3^6 is not
        ("level-spectrum", {"n": 6, "q_grid": [3e307]}),
        # the residual was the rounding of two terms near 1e307
        ("level-spectrum", {"n": 6, "q_grid": [8e307]}),
        # t n overflows at the largest order D: 3e307 * 6
        ("premeasure", {"K": [[]], "q": 0.5, "t": 3e307, "N": 2, "D": 6}),
        # the sweep wrote log_value -inf, and +inf at t = -1e308
        ("premeasure", {"K": [[]], "q": 0, "t": 1e308, "N": 2, "D": 4}),
        ("premeasure", {"K": [[]], "q": 0, "t": -1e308, "N": 2, "D": 4}),
        # q log m and t n are finite at the bracket's first t = 1.38e307, but
        # their sum at D = 7 is not: the sweeps warned of an overflow
        ("entropy", {"K": [[0]], "q": 2e307, "schedule": [[3, 5], [5, 7]]}),
        ("entropy", {"K": [[0]], "q": -2e307, "schedule": [[3, 5], [5, 7]], "measure": MIXTURE}),
    ], ids=["level-spectrum", "spectrum-positive-q", "spectrum-negative-q", "entropy-positive-q",
            "entropy-mixture-negative-q", "premeasure-negative-q", "premeasure-mixture-positive-q",
            "level-spectrum-least-mass", "level-spectrum-rounding", "premeasure-t-times-D",
            "premeasure-positive-t", "premeasure-negative-t", "entropy-weight-positive",
            "entropy-mixture-weight-negative"])
    def test_overflowing_gauge_is_a_numeric_failure(self, tmp_path, command, extra):
        cfg = {"space": FULL2, "measure": BERNOULLI_37, **extra}
        out = tmp_path / "out"
        proc = run_subprocess([command, "--config", json.dumps(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, row", [
        # t n = 1.5e308 and q log m are finite: the covering is one term
        ("premeasure", {"K": [[]], "q": 0.5, "t": 2.5e307, "N": 2, "D": 6},
         "covering,0.5,2.5e+307,2,6,0,-1.5e+308,0"),
        ("premeasure", {"K": [[]], "q": 0, "t": -2.5e307, "N": 2, "D": 6, "mode": "packing"},
         "packing,0,-2.5e+307,2,6,0,1.5e+308,inf"),
        # every root-finding sweep stays inside the range
        ("entropy", {"K": [[0]], "q": 1e306, "schedule": [[3, 5], [5, 7]]},
         "bowen,1e+306,5,7,0,-5.26134516016e+305,1.12973048052e+305,false"),
    ], ids=["premeasure-covering", "premeasure-packing", "entropy"])
    def test_terms_just_inside_the_range_keep_their_bytes(self, tmp_path, command, extra, row):
        assert run(command, {"space": FULL2, "measure": BERNOULLI_37, **extra}, tmp_path) == 0
        [name] = os.listdir(tmp_path)
        assert (tmp_path / name).read_text().splitlines()[1] == row

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known: the tangency residual is absolute, so near the range "
                              "edge it reports the rounding of terms near 1e307")
    def test_tangency_residual_is_relative(self, tmp_path):
        cfg = {"space": FULL2, "measure": BERNOULLI_37, "n": 6, "q_grid": [-1e306, 2e307]}
        assert run("level-spectrum", cfg, tmp_path) == 0
        residuals = [float(r["residual"]) for r in read_csv(tmp_path / "level_residuals.csv")]
        assert residuals == pytest.approx([0.0, 0.0], abs=1e-6), residuals

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known: q_power and Potential.transfer_matrix raise weights to "
                              "the q-th power in linear domain, so 0.7^2100 underflows and "
                              "0.3^-700 overflows")
    @pytest.mark.parametrize("q", [2100.0, -700.0])
    def test_verify_gibbs_at_far_q(self, tmp_path, q):
        # the Gibbs identity is computable here: q log m is far inside the range
        cfg = {"space": FULL2, "measure": BERNOULLI_37, "q_grid": [q]}
        assert run("verify-gibbs", cfg, tmp_path) == 0

    @pytest.mark.parametrize("command", RANGE_CONFIGS)
    def test_range_rule_over_log_uniform_q_and_t(self, tmp_path, capsys, command):
        """q and t drawn log-uniform over +-[1e-300, 1e308]: a run exits 0
        with every printed number finite, bar the columns documented as
        possibly infinite, or exits 1 as a numeric failure, writing nothing;
        in-process, a RuntimeWarning would be an error."""
        rng = random.Random(0)
        for i in range(RANGE_DRAWS):
            q, t = (rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 308) for _ in range(2))
            for measure in (BERNOULLI_37, RANGE_MIXTURE):
                if command == "verify-gibbs" and measure is RANGE_MIXTURE:
                    measure = RANGE_MIXTURE["b"]  # a chain: verify-gibbs takes no mixture
                cfg = {"space": FULL2, "measure": measure, **RANGE_CONFIGS[command](q, t)}
                out = tmp_path / str(i) / measure["kind"]
                rc = run(command, cfg, out)
                err = capsys.readouterr().err
                assert rc in (0, 1), (cfg, err)
                if rc == 1:
                    assert err.startswith("numeric failure") and not out.exists(), (cfg, err)
                    continue
                for path in out.iterdir():
                    for row in read_csv(path):
                        for column, value in row.items():
                            if (path.name, column) not in NONFINITE_COLUMNS:
                                assert value not in ("inf", "-inf", "nan"), (cfg, column, value)

    @staticmethod
    def flat_gibbs(value, **extra):
        """A verify-gibbs config on the full 2-shift with every r = 3
        log-weight ``value``."""
        psi = {f"{w:03b}": value for w in range(8)}
        return {"space": FULL2, "measure": {"kind": "gibbs", "r": 3, "psi": psi}, **extra}

    def test_overflowing_power_iteration_is_a_numeric_failure(self, tmp_path, capsys):
        # exp(709) is finite, so the transfer matrix is built, but a power
        # step's sum overflows; in-process, a RuntimeWarning would be an error
        out = tmp_path / "out"
        assert run("verify-gibbs", self.flat_gibbs(709.0), out) == 1
        assert "numeric failure: power iteration overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [300.0, 708.0, -800.0])
    def test_underflowing_transfer_matrix_is_a_numeric_failure(self, tmp_path, value):
        # every weight exp(-3 * 300) or exp(-3 * 708) is 0 in pressure(psi, -3),
        # and every exp(-800) in the measure's own transfer matrix
        out = tmp_path / "out"
        cfg = json.dumps(self.flat_gibbs(value))
        proc = run_subprocess(["verify-gibbs", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 1
        assert "numeric failure: every weight" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    def test_perron_root_near_float_max(self, tmp_path, capsys):
        # the root 2 e^708 is finite though its shifted roots' sum is not;
        # in-process, a RuntimeWarning would be an error
        assert run("verify-gibbs", self.flat_gibbs(708.0, q_grid=[1]), tmp_path) == 0
        [row] = read_csv(tmp_path / "verify_gibbs.csv")
        assert float(row["residual"]) <= 1e-6
        assert run("verify-gibbs", self.flat_gibbs(708.0), tmp_path / "out") == 1
        assert "numeric failure: every weight" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tiny_bin_width_gives_exact_bins(self, tmp_path):
        # at width 1e-300 each level (j symbols 0 among n) gets bins of its own
        n = 6
        cfg = {"space": FULL2, "measure": BIASED, "n": n, "bin_width": 1e-300, "q_grid": [0]}
        argv = ["level-spectrum", "--config", json.dumps(cfg), "--out", str(tmp_path)]
        proc = run_subprocess(argv)
        assert proc.returncode == 0, proc.stderr
        levels = [-(j * math.log(0.25) + (n - j) * math.log(0.75)) / n for j in range(n + 1)]
        counts = dict.fromkeys(range(n + 1), 0)
        for row in read_csv(tmp_path / "level_spectrum.csv"):
            beta = float(row["beta_bin"])
            j = min(counts, key=lambda j: abs(beta - levels[j]))
            assert beta == pytest.approx(levels[j], abs=1e-9)
            counts[j] += int(row["count"])
        assert counts == {j: math.comb(n, j) for j in range(n + 1)}

    def test_subnormal_bin_width_is_a_config_error(self, tmp_path):
        # beta / 5e-324 overflows: no bin index exists
        cfg = {"space": FULL2, "measure": BIASED, "n": 6, "bin_width": 5e-324}
        out = tmp_path / "out"
        proc = run_subprocess(["level-spectrum", "--config", json.dumps(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert "'bin_width'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_bytes(tmp_path, command):
    """Each command's CSV bytes on a small config, recorded with
    ``mfent <command> --config tests/data/cli/<command>.json
    --out tests/data/cli/<command> --seed 7``.  A change that moves these
    bytes re-records them and says so."""
    expected = GOLDEN_DIR / command
    argv = [command, "--config", str(GOLDEN_DIR / f"{command}.json"), "--seed", "7"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in expected.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name


def test_no_command_imports_numpy_ma(tmp_path):
    """Importing numpy.ma costs a cold run 10-17 ms; np.unique on a plain
    array does it.  A fresh process, as pytest or hypothesis may have
    imported it here already."""
    script = (
        "import sys\n"
        "from mfent.cli import main\n"
        f"for c in {list(COMMANDS)!r}:\n"
        f"    argv = ['--config', {str(GOLDEN_DIR)!r} + f'/{{c}}.json', '--seed', '7']\n"
        f"    assert main([c, *argv, '--out', {str(tmp_path)!r} + '/' + c]) == 0, c\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# premeasure.csv of the golden premeasure config in each mode, recorded with
# every other field as in tests/data/cli/premeasure.json (itself mode packing)
PREMEASURE_MODE_BYTES = {
    "covering": "covering,0.5,0.4,2,6,1,-0.649582362261,0.522263848313\n",
    "packing": "packing,0.5,0.4,2,6,1,-0.010179595446,0.989872041274\n",
}


@pytest.mark.parametrize("mode", PREMEASURE_MODE_BYTES)
def test_premeasure_mode_bytes(tmp_path, mode):
    """Pins the covering and packing branches, whatever the golden mode."""
    cfg = {**json.loads((GOLDEN_DIR / "premeasure.json").read_text()), "mode": mode}
    assert run("premeasure", cfg, tmp_path, ["--seed", "7"]) == 0
    header = "mode,q,t,N,D,k,log_value,value\n"
    expected = header + PREMEASURE_MODE_BYTES[mode]
    assert (tmp_path / "premeasure.csv").read_bytes() == expected.encode()


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": FULL2, "measure": BIASED}))
        proc = run_subprocess(["doubling", "--config", str(cfg), "--out", str(tmp_path)])
        assert proc.returncode == 0
        assert (tmp_path / "doubling.csv").exists()


def test_cli_imports_no_private_library_names():
    # the CLI calls the library's public routines, which run their own size caps
    tree = ast.parse((Path(mfent.__file__).parent / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "mfent")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# One-field mutation fuzz of the golden configs: any field at any depth (or an
# optional field the config leaves out) is set to one value of a fixed pool.
FUZZ_VALUES = [0, -1, 0.5, 1e308, -1e308, "x", True, None, [], {}, 10**400, "nan",
               nested(600), "x" * 10_000]
OPTIONAL_FIELDS = {
    "spectrum": ["q_grid", "k", "schedule", "beta_grid"],
    "premeasure": ["K", "q", "t", "N", "D", "k", "mode"],
    "entropy": ["K", "q", "k", "schedule"],
    "verify-gibbs": ["q_grid"],
    "doubling": ["k", "n_max"],
    "local": ["k", "tail_fraction", "words", "n", "count"],
    "level-spectrum": ["n", "k", "bin_width", "half_width", "q_grid"],
}
# the one known uncaught error, kept until the benchmark reference is re-recorded
EMPTY_WINDOW = re.compile(r"no admissible word has local entropy within \S+ of \S+")


def field_paths(node, prefix=()):
    """The path of every object field and list entry under ``node``."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


class RunTimedOut(Exception):
    pass


def main_within(argv, seconds=10):
    """``main(argv)`` under an interval timer, with RuntimeWarnings shown as a
    CLI user sees them rather than raised."""

    def expire(*_):
        raise RunTimedOut(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_fuzz_exits_cleanly(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    cfg = json.loads((GOLDEN_DIR / f"{command}.json").read_text())
    paths = sorted(set(field_paths(cfg)) | {(f,) for f in OPTIONAL_FIELDS[command]}, key=str)
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        try:
            rc = main_within([command, "--config", json.dumps(cfg), "--out", out])
        except ValueError as e:
            if type(e) is ValueError and EMPTY_WINDOW.fullmatch(str(e)):
                return  # pinned by test_empty_tangency_window_is_a_numeric_failure
            raise
    assert rc in (0, 1, 2)
    if rc == 2:
        assert len(err.getvalue()) < 250, err.getvalue()


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="known: an empty tangency window raises ValueError")
def test_empty_tangency_window_is_a_numeric_failure(tmp_path):
    # at q = 1 the tangency level 0.562 lies 0.27 from both neighbouring levels
    cfg = {"space": FULL2, "measure": BIASED, "n": 2, "q_grid": [1]}
    assert run("level-spectrum", cfg, tmp_path) == 1
