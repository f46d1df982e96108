"""mfent benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload entropy-schedule --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: ``mfent`` is imported from its ``src``.
For ``--seconds`` seconds the run repeats one pass over the workload's
job list, each pass in a fresh worker process (so ``log_mass_array``'s
cache starts cold, as for a CLI user, and peak RSS is per pass), one at a
time, with BLAS/OpenMP threads pinned to 1.  Every job's output is
checked.  The last line of standard output is one JSON object:

* ``--trace 0``: medians over the passes of ``wall_norm_s`` (one pass
  over the job list, scaled to a reference interpreter speed by
  ``speed.py``; the raw ``wall_s`` is printed above the JSON line),
  ``setup_s`` (worker start until ``mfent`` is imported and the inputs
  are generated) and ``peak_rss_mb``;
* ``--trace 1``: passes alternate untraced and traced; per-layer metrics
  are medians over the traced passes, and ``trace.overhead_s`` is traced
  minus untraced median ``wall_s``.

``attempted`` and ``failed`` count operations over all passes: one CLI
job or one root find each.  ``correct`` is false when any job's outcome
differs from the one recorded for its input set in ``reference.json``
(a new failure of any kind, a failure of another kind, or a recorded
failure of the seed program that no longer happens), or when two passes
disagree.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def one_pass(workload: str, seed: int, trace: bool, out: Path) -> dict:
    """One pass in a fresh worker, with its jobs' oracle outcomes."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "1" if trace else "0", repr(time.time()), str(out)]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker for {workload} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", q1 {q1:.4g}, q3 {q3:.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mfent" / "__init__.py").is_file():
        print(f"no mfent sources under {ROOT / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    passes: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            trace = bool(args.trace) and len(passes) > len(traced)
            rec = one_pass(args.workload, args.seed, trace, work)
            rec["jobs"] = checks.against_reference(
                args.workload, workloads.instance(args.seed), rec["jobs"])
            (traced if trace else passes).append(rec)
            enough = len(passes) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    every = passes + traced
    attempted = sum(len(p["jobs"]) for p in every)
    failures: dict[str, tuple[str, int]] = {}
    unexpected: dict[str, str] = {}
    for p in every:
        for job in p["jobs"]:
            if job["reason"] is not None:
                _, n = failures.get(job["name"], (job["reason"], 0))
                failures[job["name"]] = (job["reason"], n + 1)
            if job["unexpected"] is not None:
                unexpected[job["name"]] = job["unexpected"]
    failed = sum(n for _, n in failures.values())
    outcomes = {json.dumps([(j["name"], j["reason"], j["digest"]) for j in p["jobs"]]) for p in every}
    correct = not unexpected and len(outcomes) == 1

    jobs = len(every[0]["jobs"])
    print(f"workload {args.workload}, seed {args.seed} (input set "
          f"{workloads.instance(args.seed)}): {len(passes)} untraced + "
          f"{len(traced)} traced passes of {jobs} operations, one fresh process each")
    print(f"  fail_ratio {failed / attempted:.4f} = {failed}/{attempted} operations")
    for name, (reason, n) in sorted(failures.items()):
        known = "" if name in unexpected else " (recorded at the seed program)"
        print(f"    failed {n}x {name}: {reason}{known}")
    for name, what in sorted(unexpected.items()):
        print(f"    UNEXPECTED {name}: {what}")
    if len(outcomes) != 1:
        print("  passes disagree: outputs are not deterministic")

    walls = [p["wall_s"] for p in passes]
    print(f"  {'wall_s':12s} median {statistics.median(walls):.5g} s "
          f"(n={len(walls)}{quartiles(walls)}, untraced)")
    if not args.trace:
        metrics = {}
        for name, unit in END_TO_END.items():
            values = [p[name] for p in passes]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name:12s} median {statistics.median(values):.5g} {unit} "
                  f"(n={len(values)}{quartiles(values)})")
    else:
        traced_walls = [p["wall_s"] for p in traced]
        wall = statistics.median(traced_walls)
        per_layer = {name: statistics.median(p["layers"][name] for p in traced)
                     for name in traced[0]["layers"]}
        per_layer["trace.overhead_s"] = wall - statistics.median(walls)
        per_layer["fail_ratio"] = failed / attempted
        metrics = {name: {"value": v, "unit": layers.unit(name)} for name, v in per_layer.items()}
        print(f"  traced wall_s median {wall:.5g} s (n={len(traced)}), untraced "
              f"{statistics.median(walls):.5g} s (n={len(walls)})")
        for name, v in per_layer.items():
            print(f"  {name:36s} {v:.6g} {layers.unit(name)}")
        cli_jobs = sum(job["kind"] == "cli" for job in workloads.jobs(args.workload, args.seed))
        for text, held in layers.predictions(args.workload, per_layer, wall, cli_jobs):
            print(f"  prediction {'held' if held else 'DID NOT HOLD'}: {text}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
