import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfent
from mfent.cli import main

FULL2 = {"alphabet": 2, "transitions": [[1, 1], [1, 1]]}
GOLDEN = {"alphabet": 2, "transitions": [[1, 1], [1, 0]]}
FAIR = {"kind": "bernoulli", "p": [0.5, 0.5]}
BIASED = {"kind": "bernoulli", "p": [0.25, 0.75]}
PARRY = {"kind": "markov", "P": [[0.618, 0.382], [1.0, 0.0]]}
LOG2 = math.log(2)


def run(command, cfg, out, extra=()):
    return main([command, "--config", json.dumps(cfg), "--out", str(out), *extra])


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


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


class TestPremeasureCommand:
    def test_counting_value(self, tmp_path):
        cfg = {
            "space": FULL2, "measure": FAIR, "K": [[]],
            "q": 0, "t": LOG2, "N": 1, "D": 6, "mode": "covering",
        }
        assert run("premeasure", cfg, tmp_path) == 0
        row = read_csv(tmp_path / "premeasure.csv")[0]
        assert float(row["value"]) == pytest.approx(1.0, abs=1e-10)

    def test_outer_mode(self, tmp_path):
        cfg = {
            "space": FULL2, "measure": FAIR, "K": [[0], [1, 1]],
            "q": 0, "t": LOG2, "N": 1, "D": 6, "mode": "outer", "cover_depth": 3,
        }
        assert run("premeasure", cfg, tmp_path) == 0

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

    def test_numeric_failure_exit_code(self, tmp_path):
        # q > 0 with an unbounded mass-halving ratio cannot be certified
        cfg = {
            "space": FULL2,
            "measure": {"kind": "bernoulli", "p": [1.0, 0.0]},
            "K": [[]],
            "q": 2,
            "schedule": [[4, 4], [6, 6]],
        }
        assert run("entropy", cfg, tmp_path) == 1


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
            ("entropy", {"K": [[]], "cover_depth": -1}, "cover_depth"),
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
        ],
    )
    def test_bad_field_named(self, tmp_path, capsys, command, extra, field):
        cfg = {"space": FULL2, "measure": FAIR, **extra}
        assert run(command, cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": FULL2, "measure": BIASED}))
        # the child imports the same mfent as this process, installed or not
        src = str(Path(mfent.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "mfent.cli", "doubling",
             "--config", str(cfg), "--out", str(tmp_path)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert (tmp_path / "doubling.csv").exists()
