"""Job lists of the three workloads, their seeded inputs and exact expected answers.

Each job is one `mfcat` CLI command. The seed gives every monomial of every
potential a sign and fixes the job order. The signs never change the checked
values: over an algebraic closure, x_i -> zeta * x_i with a root of unity turns
a sign into any other sign for the quasi-homogeneous inputs, and for W12 every
nonzero modulus has the same Milnor and Tyurina numbers. Magnitudes stay 1 on
purpose: coefficients such as 3 or -2 make the exact rationals longer and moved
single jobs by 30-45% on a 2-vCPU Xeon KVM guest, which would turn the seed
into a hidden size knob.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Provenance of the fixed answers.
P_END_K = ("End(k^stab) has total k-dimension 2^n split evenly between the parities "
           "(Dyckerhoff arXiv:0904.4713: it is the Koszul dual exterior/Clifford algebra)")
P_END_DIAG = ("End of the stabilized diagonal is HH*(MF(w)) = Jacobian algebra, "
              "(mu, 0) for an even number of variables (Dyckerhoff arXiv:0904.4713)")
P_ADE = ("published ADE Milnor number mu = subscript; quasi-homogeneous so tau = mu "
         "(Saito 1971); mu re-derived by corpus.oracle_milnor at set-up")
P_W12 = ("W12 normal form x^4+y^5+a*x^2*y^3, a != 0: mu = 12, tau = mu - 1 = 11 "
         "(Arnold-Gusein-Zade-Varchenko vol. I); mu re-derived by corpus.oracle_milnor")
P_MODEL = ("minimal model of End(k^stab): dimension 2^n, m_2(1,1) = 1, Stasheff identities "
           "up to the arity cap, and the unit component of m_k on sorted generator tuples is "
           "(-1)^(k(k+1)/2) times the Taylor coefficient of w (Dyckerhoff arXiv:0904.4713; "
           "sign from mfcat's frozen bar-shift convention)")


@dataclass(frozen=True)
class JobDef:
    id: str
    kind: str  # "endo-k", "endo-diag", "hh" or "minimal-model"
    ring: str
    monomials: tuple
    expect: dict = field(default_factory=dict)
    arity: int = 0
    quick: bool = False  # part of the shrunken self-check list
    route: str = ""  # predicted route, checked on every traced pass (see ROUTES)


# Route predictions, read off the spans of one job in a traced pass.
ROUTES = {
    "strand": "no nullspace_dense call and no detect_grading call returning None",
    "two-cap": "at least one detect_grading call returning None",
    "no-linalg": "no call into linalg",
}


def _hh(id_, ring, monomials, mu, tau, provenance, route, quick=False):
    n_vars = len(ring.split(","))
    expect = {
        "output": {
            "hh_even": mu,
            "hh_odd": 0,
            "milnor": mu,
            "tyurina": tau,
            "hh_homology_parity": n_vars % 2,
            "hp": mu,
        },
        "oracle_mu": mu,
        "provenance": provenance,
    }
    return JobDef(id_, "hh", ring, tuple(monomials), expect, quick=quick, route=route)


def _endo(id_, kind, ring, monomials, even, odd, provenance, route, quick=False):
    expect = {
        "output": {"mode": "endomorphisms-over-ring", "even": even, "odd": odd},
        "provenance": provenance,
    }
    return JobDef(id_, kind, ring, tuple(monomials), expect, quick=quick, route=route)


def _model(id_, ring, monomials, arity, quick=False):
    expect = {"dimension": 2 ** len(ring.split(",")), "provenance": P_MODEL}
    return JobDef(id_, "minimal-model", ring, tuple(monomials), expect, arity, quick, "no-linalg")


# Why each workload exists, and which layer it isolates, is recorded in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "strand-endo": [
        _endo("endK-quadric3", "endo-k", "x,y,z", ["x^2", "y^2", "z^2"], 4, 4, P_END_K, "strand"),
        _endo("endK-D4", "endo-k", "x,y", ["x^2*y", "y^3"], 2, 2, P_END_K, "strand", quick=True),
        _endo("endK-cusp", "endo-k", "x,y", ["x^3", "y^3"], 2, 2, P_END_K, "strand", quick=True),
        _endo("endDiag-D4", "endo-diag", "x,y", ["x^2*y", "y^3"], 4, 0, P_END_DIAG, "strand"),
        _hh("hh-D4", "x,y", ["x^2*y", "y^3"], 4, 4, P_ADE, "strand", quick=True),
        _hh("hh-E6", "x,y", ["x^3", "y^4"], 6, 6, P_ADE, "strand", quick=True),
        _hh("hh-E8", "x,y", ["x^3", "y^5"], 8, 8, P_ADE, "strand", quick=True),
    ],
    # E7 and D5 are quasi-homogeneous with unequal weights: they take the
    # two-cap route only because detect_grading tries equal weights. A
    # weighted grading (ROADMAP item 4) moves them to "strand", and must
    # change their route here. W12 (mu != tau, so no grading by Saito) and
    # x^12+x^13 (no weight makes both monomials one degree) have no grading
    # at all and must stay on "two-cap".
    "two-cap": [
        _hh("hh-E7", "x,y", ["x^3", "x*y^3"], 7, 7, P_ADE, "two-cap"),
        _hh("hh-D5", "x,y", ["x^2*y", "y^4"], 5, 5, P_ADE, "two-cap", quick=True),
        _hh("hh-W12", "x,y", ["x^4", "y^5", "x^2*y^3"], 12, 11, P_W12, "two-cap"),
        _endo("endK-A12", "endo-k", "x", ["x^12", "x^13"], 1, 1, P_END_K, "two-cap", quick=True),
    ],
    "transfer": [
        _model("mm-fermat3", "x,y,z", ["x^3", "y^3", "z^3"], 4),
        _model("mm-D4", "x,y", ["x^2*y", "y^3"], 6, quick=True),
        _model("mm-E6", "x,y", ["x^3", "y^4"], 5),
        _model("mm-E7", "x,y", ["x^3", "x*y^3"], 5),
        _model("mm-quadric3", "x,y,z", ["x^2", "y^2", "z^2"], 4, quick=True),
        _model("mm-A-x2x3x5", "x", ["x^2", "x^3", "x^5"], 7, quick=True),
    ],
}


def signed_text(monomials, signs) -> str:
    text = ""
    for mono, sign in zip(monomials, signs):
        text += ("-" if sign < 0 else ("+" if text else "")) + mono
    return text


def build_jobs(workload: str, seed: int, workdir: str, quick: bool = False):
    """Concrete jobs for one run: (generation jobs, measured jobs).

    A measured job is {"id", "argv", "kind", "text", "ring", "expect", ...};
    a generation job writes the factorization file an endomorphism job reads.
    """
    rng = random.Random(seed)
    gen, jobs = [], []
    for d in WORKLOADS[workload]:
        signs = [rng.choice((-1, 1)) for _ in d.monomials]
        if quick and not d.quick:
            continue
        text = signed_text(d.monomials, signs)
        inline = ["--inline=" + text, "--ring", d.ring]
        job = {"id": d.id, "kind": d.kind, "ring": d.ring, "text": text,
               "monomials": list(d.monomials), "signs": signs, "expect": d.expect,
               "route": d.route}
        if d.kind in ("endo-k", "endo-diag"):
            path = f"{workdir}/{d.id}.json"
            sub = "stabilize" if d.kind == "endo-k" else "diagonal"
            gen.append({"id": "gen-" + d.id, "argv": [sub] + inline, "write": path})
            job["argv"] = ["cohomology", path, "--endomorphisms"]
        elif d.kind == "hh":
            job["argv"] = ["hh"] + inline
        else:
            job["argv"] = ["minimal-model"] + inline + ["--max-arity", str(d.arity)]
            job["arity"] = d.arity
        jobs.append(job)
    rng.shuffle(jobs)
    return gen, jobs
