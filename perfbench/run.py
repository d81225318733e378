"""The mfcat benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload strand-endo --seed 1 --seconds 30 --trace 0

One client, closed loop: passes over the workload's job list run back to back,
each in a fresh interpreter, until --seconds are used. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes, checks every job's predicted route on the traced ones and
reports the per-layer metrics. Every answer is checked
against exact values; the last stdout line is the JSON result. Details,
including the seed, the generated inputs and every job's time, go to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

SETUP_PER_PASS = 3  # timed set-ups before every pass and after the last one
RUN_DEADLINE_S = 170.0  # the whole run ends within this, passes included


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One run of a workload: its jobs, its workers, and every problem found."""

    def __init__(self, workload, seed, trace, quick=False):
        self.started = time.perf_counter()
        self.trace = trace
        self.tag = f"{workload}-s{seed}-t{int(trace)}{'-quick' if quick else ''}-{os.getpid()}"
        self.workdir = os.path.join(harness.STATE, "work", self.tag)
        self.results_path = os.path.join(harness.STATE, "results", self.tag + ".json")
        os.makedirs(self.workdir, exist_ok=True)
        os.makedirs(os.path.dirname(self.results_path), exist_ok=True)
        self.gen, self.jobs = build_jobs(workload, seed, self.workdir, quick)
        self.problems = []
        self.generated = {}
        self.setup_walls = []
        self.attempted = 0
        self.failed = 0

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def worker(self, tag, jobs, trace):
        spans = self.results_path[:-len(".json")] + f"-{tag}.spans.jsonl" if trace else None
        result, wall, error = harness.run_worker(self.workdir, tag, jobs, trace,
                                                 self.remaining(), spans)
        if error:
            self.problems.append(error)
        return result, wall

    def prepare(self):
        """The untimed first set-up: fills the bytecode cache, writes and checks the inputs.

        Traced in a traced run, since stabilize.* runs only here.
        """
        warm, _ = self.worker("setup-warm", self.gen, self.trace)
        if warm is None:
            return None
        self.problems += harness.check_generated(self.gen, warm["jobs"])
        self.generated = {r["id"]: hashlib.sha256(r["stdout"].encode()).hexdigest()
                          for r in warm["jobs"]}
        self.warm_outputs = [r["stdout"] for r in warm["jobs"]]
        self.problems += harness.check_oracles(self.jobs)
        return warm

    def time_setup(self, count):
        """Interpreter start, `import mfcat` and the input files, timed as a whole."""
        for _ in range(count):
            again, wall = self.worker(f"setup-{len(self.setup_walls)}", self.gen, False)
            if again is None:
                return False
            self.setup_walls.append(wall)
            if [r["stdout"] for r in again["jobs"]] != self.warm_outputs:
                self.problems.append("generated inputs differ between set-ups")
        return True

    def one_pass(self, index, trace):
        result, wall = self.worker(f"pass-{index}-t{int(trace)}", self.jobs, trace)
        if result is None:
            self.attempted += len(self.jobs)
            self.failed += len(self.jobs)
            return None
        for job, rec in zip(self.jobs, result["jobs"]):
            self.attempted += 1
            reason = harness.check_job(job, rec)
            rec["check"] = reason
            if reason:
                self.failed += 1
                self.problems.append(f"pass {index} {job['id']}: {reason}")
        if trace:
            self.problems += [f"pass {index} {p}" for p in harness.route_failures(self.jobs, result)]
        result["wall_s"] = wall
        result["traced"] = trace
        return result

    def measure(self, seconds):
        """Passes back to back within `seconds`; traced runs alternate untraced and traced.

        An untraced run times SETUP_PER_PASS set-ups before every pass and
        after the last one, so set-up samples the same stretch of time as the
        passes. A pass starts while it is expected to end no later than half
        a pass after the deadline, so runs average `seconds`; at least one
        pass of every kind runs.
        """
        kinds = [False, True] if self.trace else [False]
        passes = []
        t0 = time.perf_counter()
        walls = {k: [] for k in kinds}
        for i in itertools.count():
            kind = kinds[i % len(kinds)]
            if all(walls[k] for k in kinds):
                expected = statistics.median(walls[kind])
                if time.perf_counter() - t0 + expected / 2 > seconds:
                    break
            if self.remaining() <= 0:
                break
            if not self.trace and not self.time_setup(SETUP_PER_PASS):
                return passes
            result = self.one_pass(i, kind)
            if result is None:
                return passes
            walls[kind].append(result["wall_s"])
            passes.append(result)
        if not self.trace:
            self.time_setup(SETUP_PER_PASS)
        return passes


def end_to_end(run, passes):
    return {
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "slowest_job_s": statistics.median(max(r["seconds"] for r in p["jobs"]) for p in passes),
        "setup_s": statistics.median(run.setup_walls),
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] / 1024 for p in passes),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(setup_traced, passes):
    """Counts from one traced pass (they repeat exactly), the rest as medians."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    each = [harness.layer_values(p["trace"]) for p in traced]
    setup = harness.layer_values(setup_traced["trace"])
    vals = {}
    for name, unit in harness.PER_LAYER_UNITS.items():
        if name.startswith("stabilize."):  # runs only in set-up
            vals[name] = setup[name]
        elif unit == "count":
            vals[name] = each[0][name]
        else:
            vals[name] = statistics.median(v[name] for v in each)
    traced_s = statistics.median(p["pass_s"] for p in traced)
    vals["trace.traced_pass_s"] = traced_s
    vals["trace.overhead_s"] = traced_s - statistics.median(p["pass_s"] for p in untraced)
    return vals


def identical_outputs(passes) -> list:
    """Traced and untraced passes of one input must print the same bytes."""
    first = passes[0]
    problems = []
    for p in passes[1:]:
        for a, b in zip(first["jobs"], p["jobs"]):
            if (a["exit"], a["stdout"]) != (b["exit"], b["stdout"]):
                problems.append(f"{a['id']}: output differs between passes "
                                f"(traced={first['traced']} vs traced={p['traced']})")
    return problems


def main(argv=None):
    args = parse_args(argv)
    if not harness.have_program():
        sys.stderr.write("perfbench: src/mfcat not found; run from the root of an mfcat checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    warm = run.prepare()
    passes = run.measure(args.seconds) if warm is not None else []
    if passes:
        run.problems += identical_outputs(passes)
    else:
        run.attempted = max(run.attempted, len(run.jobs))
        run.failed = max(run.failed, len(run.jobs))
    if run.trace:
        units = harness.PER_LAYER_UNITS
        ok = any(p["traced"] for p in passes) and any(not p["traced"] for p in passes)
        values = per_layer(warm, passes) if ok else {}
    else:
        units = harness.END_TO_END
        ok = bool(passes) and bool(run.setup_walls)
        values = end_to_end(run, passes) if ok else {}
    correct = run.failed == 0 and not run.problems and bool(values)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs": {j["id"]: {"ring": j["ring"], "text": j["text"], "argv": j["argv"]}
                   for j in run.jobs},
        "generated_sha256": run.generated,
        "order": [j["id"] for j in run.jobs],
        "setup_s": run.setup_walls, "problems": run.problems, "metrics": values,
        "passes": [{"traced": p["traced"], "pass_s": p["pass_s"], "wall_s": p["wall_s"],
                    "peak_rss_kib": p["peak_rss_kib"], "trace": p.get("trace"),
                    "jobs": [{k: r[k] for k in ("id", "exit", "seconds", "check")}
                             | ({"spans": r["spans"], "counts": r["counts"]} if p["traced"] else {})
                             for r in p["jobs"]]}
                   for p in passes],
    }
    with open(run.results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run.workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"python {record['python']}  nproc {record['nproc']}  trace {args.trace}")
    for problem in run.problems[:20]:
        print("PROBLEM", problem)
    for name, value in values.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    if not run.trace:
        print(f"  {'fail_ratio':<42} {run.failed / max(1, run.attempted):>14.6g} 1"
              f"  ({run.failed} of {run.attempted} jobs)")
    print("details:", os.path.relpath(run.results_path, harness.ROOT))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
