"""Self-check of the benchmark on shrunken job lists (well under a minute).

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

For each workload it runs the quick jobs once untraced and once traced, with
the same checks as run.py, and asserts that
  - every answer is exactly right in both passes;
  - traced and untraced outputs are byte-identical;
  - every job takes its predicted route (workloads.ROUTES): `transfer`
    makes no linalg call, `strand-endo` makes no nullspace_dense call and
    never takes the ungraded route, `two-cap` jobs take the ungraded route;
  - the metric names and units in BENCHMARK.json are the ones run.py prints.
Exit code 0 iff all hold. run.py --trace 1 checks the routes of every job.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from run import Run, identical_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def metric_name_failures() -> list:
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    out = []
    if declared != harness.END_TO_END:
        out.append(f"BENCHMARK.json end_to_end {declared} != run.py {harness.END_TO_END}")
    if layers != harness.PER_LAYER_UNITS:
        out.append("BENCHMARK.json per_layer differs from harness.PER_LAYER_UNITS")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        out.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return out


def main():
    if not harness.have_program():
        sys.stderr.write("selfcheck: src/mfcat not found; run from the root of a checkout\n")
        return 2
    failures = metric_name_failures()
    for line in failures:
        print("BENCHMARK.json:", line)
    for workload in sorted(WORKLOADS):
        run = Run(workload, SEED, trace=True, quick=True)
        if run.prepare() is not None:
            passes = [run.one_pass(0, False), run.one_pass(1, True)]
            if all(passes):
                run.problems += identical_outputs(passes)
        shutil.rmtree(run.workdir, ignore_errors=True)
        status = "ok" if not run.problems else "FAIL"
        print(f"{workload:<12} {len(run.jobs)} jobs: {', '.join(j['id'] for j in run.jobs)}  {status}")
        for line in run.problems:
            print("   ", line)
        failures += run.problems
    print("self-check", "passed" if not failures else f"failed ({len(failures)} problems)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
