"""Shared pieces of the benchmark: worker processes, answer checks, metrics."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from itertools import combinations_with_replacement

from layertrace import COUNTED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")  # everything the benchmark writes

END_TO_END = {
    "pass_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "1",
}


def have_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "mfcat", "__init__.py"))


def worker_env() -> dict:
    """A pinned environment: no stabilization-cap override, fixed hash seed."""
    env = dict(os.environ)
    env.pop("MFCAT_NMAX", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workdir, tag, jobs, trace, timeout, spans_path):
    """Run one worker process; returns (result or None, wall seconds, error)."""
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    spec = {"src": SRC, "trace": trace, "jobs": jobs, "spans": spans_path}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"{tag}: worker exceeded {timeout:.0f} s"
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, wall, f"{tag}: worker exit {proc.returncode}: {proc.stderr[-2000:]}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), wall, None


# -- answer checks (untimed) -------------------------------------------------


def _mfcat():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mfcat
    from mfcat import corpus, serialize

    return mfcat, corpus, serialize


def potential(job):
    _, _, serialize = _mfcat()
    return serialize.parse_potential_text(serialize.parse_ring_spec(job["ring"]), job["text"])


def check_oracles(jobs) -> list:
    """mu of every hh input by the package's independent brute-force oracle."""
    _, corpus, _ = _mfcat()
    problems = []
    for job in jobs:
        if job["kind"] == "hh":
            mu = corpus.oracle_milnor(potential(job))
            if mu != job["expect"]["oracle_mu"]:
                problems.append(f"{job['id']}: oracle mu {mu} != fixed {job['expect']['oracle_mu']}")
    return problems


def check_generated(gen, records) -> list:
    """Set-up outputs must be factorizations that satisfy d^2 = w exactly."""
    mfcat, _, serialize = _mfcat()
    problems = []
    for g, rec in zip(gen, records):
        if rec["exit"] != 0 or rec["error"]:
            problems.append(f"{g['id']}: exit {rec['exit']} {rec['error'] or rec['stderr']}")
            continue
        if not mfcat.verify_mf(serialize.mf_from_obj(json.loads(rec["stdout"]))):
            problems.append(f"{g['id']}: generated factorization fails d^2 = w")
    return problems


def _check_model(job, obj):
    mfcat, _, serialize = _mfcat()
    qq = mfcat.QQ
    model = serialize.ainf_from_obj(obj, qq)
    if model.dimension != job["expect"]["dimension"]:
        return f"dimension {model.dimension} != {job['expect']['dimension']}"
    if model.product((0, 0)) != {0: qq.one}:
        return "m_2(1, 1) is not the unit"
    if not model.stasheff_holds(job["arity"]):
        return f"Stasheff identities fail up to arity {job['arity']}"
    w = potential(job)
    n = w.ctx.n_vars
    gens = [model.labels.index(f"D{i + 1}") for i in range(n)]
    for k in range(2, job["arity"] + 1):
        sign = -1 if k * (k + 1) // 2 % 2 else 1  # the frozen bar-shift convention
        for tup in combinations_with_replacement(range(n), k):
            exp = tuple(tup.count(i) for i in range(n))
            want = sign * w.terms.get(exp, qq.zero)
            got = model.product(tuple(gens[i] for i in tup)).get(0, qq.zero)
            if got != want:
                return f"m_{k}{tup} has unit component {got}, expected {want}"
    return None


def check_job(job, rec):
    """None if the job's answer is exactly right, else the reason it is not."""
    if rec["error"]:
        return "raised: " + rec["error"].strip().splitlines()[-1]
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}: {rec['stderr'].strip()[:200]}"
    try:
        obj = json.loads(rec["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if job["kind"] == "minimal-model":
        return _check_model(job, obj)
    if obj != job["expect"]["output"]:
        return f"got {obj}, expected {job['expect']['output']}"
    return None


# -- route predictions -------------------------------------------------------


def route_failures(jobs, traced) -> list:
    """Jobs of a traced pass whose spans contradict their route in workloads.py."""
    out = []
    for job, rec in zip(jobs, traced["jobs"]):
        spans = rec["spans"]
        linalg = sum(v["calls"] for k, v in spans.items() if k.startswith("linalg."))
        ungraded = spans.get("complexes.detect_grading", {}).get("ungraded", 0)
        route = job["route"]
        if route == "no-linalg" and linalg:
            out.append(f"{job['id']}: {linalg} linalg calls, predicted 0")
        if route == "strand" and "linalg.nullspace_dense" in spans:
            out.append(f"{job['id']}: nullspace_dense called, predicted the strand route")
        if route == "strand" and ungraded:
            out.append(f"{job['id']}: detect_grading returned None, predicted the strand route")
        if route == "two-cap" and ungraded < 1:
            out.append(f"{job['id']}: no detect_grading call returned None, predicted two-cap")
    return out


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "linalg.rank_sparse.calls": "count",
    "linalg.rank_sparse.self_s": "s",
    "linalg.rank_sparse.rows": "count",
    "linalg.rank_sparse.nnz": "count",
    "linalg.rank_sparse.pivot_ratio": "1",
    "linalg.nullspace_dense.calls": "count",
    "linalg.nullspace_dense.self_s": "s",
    "linalg.nullspace_dense.total_s": "s",
    "linalg.nullspace_dense.cells": "count",
    "linalg.rref_dense.calls": "count",
    "linalg.rref_dense.self_s": "s",
    "hochschild.jacobian_report.calls": "count",
    "hochschild.jacobian_report.self_s": "s",
    "complexes.detect_grading.calls": "count",
    "complexes.detect_grading.self_s": "s",
    "complexes.detect_grading.ungraded": "count",
    "complexes.cohomology_over_R.self_s": "s",
    "complexes.hom_complex.self_s": "s",
    "superops.SuperOp.mul.calls": "count",
    "superops.graded_commutator.calls": "count",
    "ainfinity.build_contraction.self_s": "s",
    "ainfinity.transfer_minimal_model.self_s": "s",
    "fields.ops": "count",
    "series.Series.mul.calls": "count",
    "factorization.RMatrix.mul.calls": "count",
    "stabilize.stabilize_residue_field.self_s": "s",
    "stabilize.stabilized_diagonal.self_s": "s",
    "serialize.self_s": "s",
    "cli.main.self_s": "s",
    "linalg.calls": "count",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


def layer_values(summary) -> dict:
    """Per-layer metrics of one traced pass (trace.* are filled in by the caller).

    Times are seconds of self (or total) time summed over the pass; a layer
    the pass never calls reads 0.
    """
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for metric in PER_LAYER_UNITS:
        name, _, key = metric.rpartition(".")
        if metric in COUNTED:
            out[metric] = counts.get(metric, 0)
        elif name in COUNTED:
            out[metric] = counts.get(name, 0)
        else:
            out[metric] = spans.get(name, {}).get(key, 0)
    sparse = spans.get("linalg.rank_sparse", {})
    out["linalg.rank_sparse.pivot_ratio"] = (
        sparse["rank"] / sparse["rows"] if sparse.get("rows") else 0.0)
    out["serialize.self_s"] = sum(
        v["self_s"] for k, v in spans.items() if k.startswith("serialize."))
    out["linalg.calls"] = sum(v["calls"] for k, v in spans.items() if k.startswith("linalg."))
    return out
