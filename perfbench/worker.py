"""One set-up or one pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds {"src", "trace", "spans", "jobs": [{"id", "argv", "write"?}]}.
Each job runs through `mfcat.cli.main(argv)` in this process with stdout and
stderr captured, exactly the command a user types. A job with "write" stores
its stdout in that file (the set-up's generated inputs). RESULT gets each
job's exit code, output and wall time, the pass wall time, the process's
peak resident memory and, when traced, the layer summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), error


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from mfcat import cli

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    records = []
    origin = time.perf_counter()
    for job in spec["jobs"]:
        if tracer:
            tracer.job = job["id"]
            before = dict(tracer.counts)
        t0 = time.perf_counter()
        code, out, err, error = run_job(cli, job["argv"])
        seconds = time.perf_counter() - t0
        rec = {"id": job["id"], "exit": code, "seconds": seconds, "stdout": out,
               "stderr": err, "error": error}
        if tracer:
            rec["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        if job.get("write"):
            with open(job["write"], "w", encoding="utf-8") as fh:
                fh.write(out)
        records.append(rec)
    result = {
        "pass_s": time.perf_counter() - origin,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": records,
    }
    if tracer:
        result["trace"] = tracer.summary()
        per_job = tracer.per_job()
        for rec in records:
            rec["spans"] = per_job.get(rec["id"], {})
        tracer.write_spans(spec["spans"], origin)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
