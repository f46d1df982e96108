import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def bench_result(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["entropy-schedule", "exponent-scan", "partition-spectrum"])
def test_traced_benchmark_pass(workload):
    """The benchmark's tracer wraps and reads mfent names from outside the
    package, ``TreeEvaluator.level_words`` after every build and sweep among
    them; a rename or deletion that breaks it fails here."""
    stdout, result = bench_result(workload, "1")
    assert result["correct"] is True, stdout[-2000:]


@pytest.mark.parametrize("workload", ["partition-spectrum", "exponent-scan"])
def test_benchmark_pass_matches_reference(workload):
    """Partition sums, level histograms and critical exponents against the
    outcomes recorded in bench/reference.json."""
    stdout, result = bench_result(workload, "0")
    assert result["correct"] is True, stdout[-2000:]


@pytest.mark.parametrize("seed", [11, 25, 26])
def test_partition_spectrum_input_sets(seed):
    """The input sets whose recorded spectrum-coin-wide in-domain count has
    flipped on last-bit changes to h (set 0 runs above)."""
    stdout, result = bench_result("partition-spectrum", "0", seed)
    assert result["correct"] is True, stdout[-2000:]
