import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_pass():
    """The benchmark's tracer wraps and reads mfent names from outside the
    package; a rename or deletion that breaks it fails here."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "entropy-schedule", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout[-2000:]
