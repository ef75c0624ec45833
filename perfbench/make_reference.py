"""Record the reference outputs the benchmark's correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every scenario of every workload (the whole seeded pool) through the CLI
with the benchmark's child environment and writes perfbench/reference.json.
Run it only at a commit whose outputs are the accepted ones: a change that
moves outputs beyond the gate's tolerances must say so, not re-record.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads
from run import child_env, spawn

WORK_DIR = os.path.join(".perfbench_out", "reference-work")


def scenarios(workload: workloads.Workload) -> list:
    if workload.strata:
        return [sc for _, sc in workload.pool()]
    return workload.scenarios(0)


def record(workload: workloads.Workload, scenario, env: dict):
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    out = workloads.output_path(workload, WORK_DIR)
    argv = [sys.executable, "-m", "quench_entropy", *workloads.output_argv(scenario, out)]
    wall, _, code, _ = spawn(argv, env, timeout=600, stderr=None)
    if code != 0:
        raise SystemExit(f"{workload.name} {scenario.key}: exit code {code}")
    print(f"{workload.name} {scenario.key}: {wall:.2f} s", file=sys.stderr)
    if workload.kind == "evolve":
        with open(out) as fh:
            return {"csv": fh.read()}
    if workload.kind == "verify":
        with open(out) as fh:
            return workloads.verify_summary(json.load(fh))
    return workloads.figure1_summary(out)


def main() -> int:
    if not os.path.isdir(os.path.join("src", "quench_entropy")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    env = child_env()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    ref = {"recorded_at_commit": commit}
    for name, workload in workloads.WORKLOADS.items():
        ref[name] = {sc.key: record(workload, sc, env) for sc in scenarios(workload)}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
