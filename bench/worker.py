"""One repetition of one workload, in a fresh process.

Usage (run by ``run.py``, never by hand):

    python3 bench/worker.py WORKLOAD SEED TRACE SPAWN_TIME OUT_DIR

Imports ``mfent`` from the checkout's ``src``, generates the workload's
inputs, runs every job once (CLI jobs in-process through
``mfent.cli.main``), checks every output against its oracle, and prints
one JSON line: setup and pass times (the pass time also scaled to a
reference interpreter speed, see speed.py), peak RSS, per-job outcomes
and, when TRACE is 1, the per-layer metrics.  The parent compares the
outcomes with the reference.
"""

from __future__ import annotations

import math
import resource
import sys
import time
from pathlib import Path

SPAWN_TIME = float(sys.argv[4])  # time.time() in the parent just before spawning

import json  # noqa: E402  (the spawn time is read before any import work)

import mfent  # noqa: E402
import mfent.cli  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_cli(job: dict, out: Path) -> dict:
    try:
        rc = mfent.cli.main(job["argv"] + ["--out", str(out)])
    except SystemExit as e:  # argparse rejected the arguments
        return {"rc": e.code if isinstance(e.code, int) else 2, "error": "SystemExit"}
    except Exception as e:  # an uncaught exception is what a CLI user sees as a traceback
        return {"rc": None, "error": f"{type(e).__name__}: {e}"}
    return {"rc": rc, "error": None}


def run_roots(jobs: list[dict]) -> list[dict]:
    """exponent-scan: one tree, then one critical-exponent root per job."""
    tree = workloads.EXPONENT_SCAN_TREE
    N, cover_depth = tree["N"], tree["cover_depth"]
    try:
        space = mfent.make_shift(2, workloads.GOLDEN["transitions"])
        model = mfent.Markov(space, workloads.PARRY["P"])
        ev = mfent.TreeEvaluator(model, mfent.CylinderSet(space, [()]), 0, tree["D"])
    except Exception as e:
        return [{"root": None, "error": f"{type(e).__name__}: {e}"} for _ in jobs]
    sweeps = {
        "covering": lambda q, t: ev.covering_log(q, t, N),
        "packing": lambda q, t: ev.packing_log(q, t, N),
        "outer": lambda q, t: ev.outer_log(q, t, N, cover_depth),
    }
    results = []
    for job in jobs:
        q, sweep = job["q"], sweeps[job["sweep"]]
        span = math.log(2) * (2.0 + abs(q)) + 1.0  # the solver's default bracket
        try:
            root = mfent.critical_exponent(lambda t: sweep(q, t), (-span, span))
            results.append({"root": root, "error": None})
        except Exception as e:
            results.append({"root": None, "error": f"{type(e).__name__}: {e}"})
    return results


def main() -> None:
    workload, seed, trace, out = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[5])
    src = (ROOT / "src").resolve()
    if Path(mfent.__file__).resolve().parent.parent != src:
        sys.exit(f"mfent was imported from {mfent.__file__}, not from {src}")
    jobs = workloads.jobs(workload, seed)
    setup_s = time.time() - SPAWN_TIME

    tracer = None
    probe = speed.Probe()
    if trace:  # no probe: its time would count to whichever layer it interrupts
        import tracing
        tracer = tracing.install(mfent)
    else:
        probe.start()

    t0 = time.perf_counter()
    if workload == "exponent-scan":
        results = run_roots(jobs)
    else:
        results = [run_cli(job, out / job["name"]) for job in jobs]
    wall_s = time.perf_counter() - t0
    probe.stop()
    wall_s -= probe.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [
        {"name": job["name"], "reason": reason, "digest": digest}
        for job, (reason, digest) in zip(jobs, checks.check_all(workload, jobs, results, out))
    ]
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_norm_s": probe.normalize(wall_s),
        "peak_rss_mb": peak_rss_mb,
        "jobs": outcomes,
    }
    if tracer is not None:
        import layers
        record["layers"] = layers.metrics(tracer, wall_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
