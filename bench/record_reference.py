"""Record the reference the checks compare against.

    python3 bench/record_reference.py

Runs one pass of every workload on each of its input sets with the
program in the checkout and writes ``bench/reference.json``: per
workload, input set and job, either the checked values of a job whose
oracle checks passed (``digests``) or the kind of failure of a job that
gave no result (``failures``: "exit code 1", "uncaught ValueError").  An
output that fails its oracle check stops the recording: the program or
the check is wrong.  The file in the repository was recorded from the
seed program; re-record only for a change that is meant to alter
results or fix a recorded failure, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    reference: dict[str, dict[str, dict]] = {}
    out = run.ROOT / ".bench_work" / "record"
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for instance in range(workloads.INSTANCES):
            digests, failures = {}, {}
            for job in run.one_pass(workload, instance, False, out)["jobs"]:
                reason = job["reason"]
                if reason is None:
                    if job["digest"] is not None:
                        digests[job["name"]] = [float(f"{x:.12g}") for x in job["digest"]]
                elif checks.no_output(reason):
                    failures[job["name"]] = checks.failure_kind(reason)
                else:
                    sys.exit(f"{workload} input set {instance}, {job['name']}: {reason}")
            reference[workload][str(instance)] = {"digests": digests, "failures": failures}
            print(workload, instance, failures, flush=True)
    shutil.rmtree(out.parent, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
