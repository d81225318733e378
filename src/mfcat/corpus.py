"""Bundled example potentials and the acceptance battery the CLI can replay.

Every expected quantity carries its provenance: either a published value
for these classical singularities or the output of the brute-force monomial
reduction oracle implemented below, which predates and stays independent of
the production engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .ainfinity import build_contraction, clifford_check, transfer_minimal_model
from .complexes import (
    cohomology_mod_k,
    hom_cohomology,
    is_quasi_iso,
    scalar_action_nullhomotopy,
)
from .errors import MfcatError
from .factorization import (
    MatrixFactorization,
    MFMorphism,
    RMatrix,
    cone,
    direct_sum,
    dual,
    external_tensor,
    shift,
    trivial_mf,
    verify_mf,
)
from .fields import QQ
from .hochschild import (
    calabi_yau_parity_check,
    hochschild_cohomology,
    hochschild_homology,
)
from .linalg import rank_dense
from .series import RingCtx, Series, monomial_basis
from .serialize import parse_potential_text
from .stabilize import KoszulData, make_koszul_mf, stabilize_residue_field, stabilized_diagonal
from .superops import SuperOp
from .transform import transform_mod_k_dims


@dataclass
class Known:
    value: object
    provenance: str  # "published" or "derived-oracle"
    oracle: str | None = None


@dataclass
class CorpusEntry:
    name: str
    ring_names: tuple
    text: str
    isolated: bool
    known: dict = dc_field(default_factory=dict)

    def ctx(self) -> RingCtx:
        return RingCtx(self.ring_names, QQ)

    def potential(self) -> Series:
        return parse_potential_text(self.ctx(), self.text)


def build_corpus():
    entries = []
    for n in range(1, 7):
        entries.append(
            CorpusEntry(
                f"A{n}-1var",
                ("x",),
                f"x^{n + 1}",
                True,
                {"milnor": Known(n, "derived-oracle", "monomial-reduction")},
            )
        )
    entries.append(
        CorpusEntry(
            "D4-plane",
            ("x", "y"),
            "x^2*y + y^3",
            True,
            {"milnor": Known(4, "derived-oracle", "monomial-reduction")},
        )
    )
    entries.append(
        CorpusEntry(
            "quad-2var",
            ("x", "y"),
            "x^2 + y^2",
            True,
            {
                "milnor": Known(1, "derived-oracle", "monomial-reduction"),
                "clifford": Known(True, "published"),
            },
        )
    )
    entries.append(
        CorpusEntry(
            "quad-3var",
            ("x", "y", "z"),
            "x^2 + y^2 + z^2",
            True,
            {
                "milnor": Known(1, "derived-oracle", "monomial-reduction"),
                "clifford": Known(True, "published"),
            },
        )
    )
    entries.append(
        CorpusEntry(
            "cusp-pair",
            ("x", "y"),
            "x^3 + y^3",
            True,
            {"milnor": Known(4, "derived-oracle", "monomial-reduction")},
        )
    )
    entries.append(
        CorpusEntry(
            "elliptic-3x3",
            ("x", "y", "z"),
            "x^3 + y^3 + z^3 - 3*x*y*z",
            False,
            {"verifies": Known(True, "published")},
        )
    )
    return entries


# -- independent oracle --------------------------------------------------------


def oracle_milnor(w: Series, cap: int | None = None) -> int:
    """Brute-force monomial reduction for dim R/(partials), with a
    stability check at a strictly larger degree cap."""
    base = cap if cap is not None else 2 * max(1, w.total_degree())
    d1 = _bruteforce_quotient_dim(w, base)
    d2 = _bruteforce_quotient_dim(w, base + 2)
    if d1 != d2:
        raise MfcatError("oracle cap too low or singularity not isolated")
    return d1


def _bruteforce_quotient_dim(w: Series, cap: int) -> int:
    """dim R/(partials) in R/m^(cap+1) by dense elimination.

    The multiplication rows are built here on purpose instead of through
    complexes._quotient_dim or complexes._truncated_operator_rows, and
    eliminated densely: this is the independent oracle those engines are
    checked against.
    """
    ctx = w.ctx
    gens = [w.partial_derivative(i) for i in range(ctx.n_vars)]
    monos = monomial_basis(ctx, cap)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for alpha in monos:
            row = [QQ.zero] * len(monos)
            hit = False
            for exp, c in g.terms.items():
                if sum(alpha) + sum(exp) > cap:
                    continue
                row[index[tuple(a + b for a, b in zip(alpha, exp))]] = c
                hit = True
            if hit:
                rows.append(row)
    return len(monos) - rank_dense(rows, ctx.field)


# -- the elliptic verification matrix -------------------------------------------


def elliptic_factorization():
    entry = next(e for e in build_corpus() if e.name == "elliptic-3x3")
    ctx = entry.ctx()
    w = entry.potential()
    x, y, z = (Series.variable(ctx, i) for i in range(3))
    phi = RMatrix(ctx, [[x, y, z], [z, x, y], [y, z, x]])
    psi = phi.adjugate()
    return MatrixFactorization(ctx, w, phi, psi)


# -- acceptance battery ---------------------------------------------------------


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    details: list = dc_field(default_factory=list)


class _EntryData:
    """Per-entry cache of the derived objects the criteria share."""

    def __init__(self, entry: CorpusEntry):
        self.entry = entry
        self.ctx = entry.ctx()
        self.w = entry.potential()
        self._cache: dict = {}

    def kstab(self):
        return self._memo("kstab", lambda: stabilize_residue_field(self.w))

    def diagonal(self):
        return self._memo("diag", lambda: stabilized_diagonal(self.w))

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def test_objects(self):
        """Factorizations this entry contributes to object-level criteria."""
        objs = [("trivial", trivial_mf(self.ctx, self.w)), ("kstab", self.kstab())]
        objs.append(("kstab-shift", shift(self.kstab())))
        if self.ctx.n_vars == 1:
            d = self.w.total_degree()
            x = Series.variable(self.ctx, 0)
            for k in range(1, d):
                objs.append((f"node-{k}", _rank_one(self.ctx, self.w, x ** k, x ** (d - k))))
        return objs


def _rank_one(ctx, w, a, b):
    return MatrixFactorization(ctx, w, RMatrix(ctx, [[a]]), RMatrix(ctx, [[b]]))


def _random_series(rng, ctx, max_degree, min_degree=1):
    terms = {}
    for exp in monomial_basis(ctx, max_degree):
        if sum(exp) < min_degree:
            continue
        if rng.random() < 0.5:
            c = rng.randint(-2, 2)
            if c:
                terms[exp] = ctx.field.of(c)
    return Series(ctx, terms)


def _swap(dims, eps):
    return (dims[1], dims[0]) if eps else dims


def criterion_1(corpus, rng, quick=False) -> CriterionResult:
    details = []
    ok = True
    trials = 40 if quick else 200
    for t in range(trials):
        n = rng.randint(1, 3)
        ctx = RingCtx(n, QQ)
        m = rng.randint(1, min(3, n + 1))
        gens, wits = [], []
        for i in range(m):
            g = _random_series(rng, ctx, 2)
            if g.is_zero():
                g = Series.variable(ctx, rng.randrange(n))
            gens.append(g)
            wits.append(_random_series(rng, ctx, 2))
        kd = KoszulData(ctx, gens, wits)
        if not verify_mf(make_koszul_mf(kd)):
            ok = False
            details.append(f"random Koszul input {t} failed d^2 = w")
    details.append(f"{trials} randomized Koszul inputs verified")
    data = [_EntryData(e) for e in corpus]
    count = 0
    for ed in data:
        if not ed.entry.isolated:
            continue
        produced = {
            "kstab": ed.kstab(),
            "diagonal": ed.diagonal(),
            "dual": dual(ed.kstab()),
            "shift": shift(ed.kstab()),
            "sum": direct_sum(ed.kstab(), trivial_mf(ed.ctx, ed.w)),
            "cone": cone(MFMorphism.scalar(ed.kstab(), Series.variable(ed.ctx, 0))),
        }
        if ed.ctx.n_vars <= 2:
            produced["tensor"] = external_tensor(ed.kstab(), ed.kstab())
        for label, mf in produced.items():
            count += 1
            if not verify_mf(mf):
                ok = False
                details.append(f"{ed.entry.name}: constructor {label} failed")
    details.append(f"{count} corpus constructor outputs verified")
    ell = elliptic_factorization()
    if not verify_mf(ell):
        ok = False
        details.append("elliptic 3x3 failed")
    return CriterionResult(1, "factorization soundness", ok, details)


def criterion_2(corpus, rng) -> CriterionResult:
    mf = elliptic_factorization()
    det_ok = mf.phi.det() == mf.potential
    ok = det_ok and verify_mf(mf)
    return CriterionResult(
        2,
        "elliptic 3x3 example",
        ok,
        [f"det(phi) = w: {det_ok}", f"phi*adjugate verifies: {ok}"],
    )


def criterion_3(corpus, rng) -> CriterionResult:
    # morphisms out of the generator compute the k-reduction of the target,
    # up to the parity of the variable count; the morphism-complex side is
    # its cohomology over the ring (the mod-k reduction of a hom complex
    # only counts ranks and satisfies no such identity)
    details = []
    ok = True
    for entry in corpus:
        if not entry.isolated:
            continue
        ed = _EntryData(entry)
        eps = ed.ctx.n_vars % 2
        gen = ed.kstab()
        for label, x in ed.test_objects():
            lhs = hom_cohomology(gen, x)
            rhs = _swap(cohomology_mod_k(x), eps)
            if lhs != rhs:
                ok = False
                details.append(f"{entry.name}/{label}: {lhs} != swapped {rhs}")
        details.append(f"{entry.name}: duality dims agree (eps={eps})")
    return CriterionResult(3, "parity-shift duality", ok, details)


def criterion_4(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if not entry.isolated:
            continue
        ed = _EntryData(entry)
        if ed.ctx.n_vars > 2:
            continue
        for label, x in ed.test_objects():
            for k in range(ed.ctx.n_vars):
                if not scalar_action_nullhomotopy(x, x, k):
                    ok = False
                    details.append(f"{entry.name}/{label}: partial {k} not null-homotopic")
        details.append(f"{entry.name}: all partials act null-homotopically")
    return CriterionResult(4, "Jacobian annihilation", ok, details)


_HH_CASES = ("A1-1var", "A2-1var", "A3-1var", "A4-1var", "A5-1var", "A6-1var",
             "quad-2var", "cusp-pair", "D4-plane")


def criterion_5(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if entry.name not in _HH_CASES:
            continue
        ed = _EntryData(entry)
        mu_oracle = oracle_milnor(ed.w)
        expected = entry.known["milnor"].value
        if mu_oracle != expected:
            ok = False
            details.append(f"{entry.name}: oracle {mu_oracle} != recorded {expected}")
        # HH* two ways: the Koszul complex of the partials and End of the diagonal
        route1 = hochschild_cohomology(ed.w)
        diag = ed.diagonal()
        agree = route1 == hom_cohomology(diag, diag)
        if route1 != (mu_oracle, 0) or not agree:
            ok = False
            details.append(f"{entry.name}: routes disagree: {route1}, crosscheck={agree}")
        else:
            details.append(f"{entry.name}: both routes give ({mu_oracle}, 0)")
    return CriterionResult(5, "Hochschild cohomology = Jacobian algebra", ok, details)


def criterion_6(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if entry.name not in _HH_CASES:
            continue
        ed = _EntryData(entry)
        mu = entry.known["milnor"].value
        hh = hochschild_homology(ed.w)
        expected = (0, mu) if ed.ctx.n_vars % 2 else (mu, 0)
        if hh != expected:
            ok = False
            details.append(f"{entry.name}: homology {hh} != {expected}")
        else:
            details.append(f"{entry.name}: homology {hh} at parity {ed.ctx.n_vars % 2}")
    return CriterionResult(6, "Hochschild homology parity", ok, details)


def criterion_7(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    ctx = RingCtx(("x",), QQ)
    w = parse_potential_text(ctx, "x^2 + x^3 + x^5")
    model = transfer_minimal_model(w, 5)
    gen = model.label_subsets.index((0,))
    unit = model.label_subsets.index(())
    for arity, coeff in ((2, 1), (3, 1), (4, 0), (5, 1)):
        vec = model.product((gen,) * arity)
        got = abs(vec.get(unit, QQ.zero))
        rest = {k: v for k, v in vec.items() if k != unit}
        if got != coeff or rest:
            ok = False
            details.append(f"arity {arity}: value {vec}, wanted |{coeff}| scalar")
        else:
            details.append(f"|m_{arity}(D,..,D)| = {coeff}")
    ctx2 = RingCtx(("x", "y"), QQ)
    w2 = parse_potential_text(ctx2, "x^2*y + y^3")
    model2 = transfer_minimal_model(w2, 3)
    g1 = model2.label_subsets.index((0,))
    g2 = model2.label_subsets.index((1,))
    unit2 = model2.label_subsets.index(())
    vec = model2.product((g1, g1, g2))
    got = abs(vec.get(unit2, QQ.zero))
    if got != 1:
        ok = False
        details.append(f"mixed arity-3 product gave {vec}, wanted |1|")
    else:
        details.append("|m_3(D1,D1,D2)| = 1 for the plane-curve potential")
    return CriterionResult(7, "transferred coefficients recover the potential", ok, details)


def criterion_8(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if not entry.isolated:
            continue
        ed = _EntryData(entry)
        model = transfer_minimal_model(ed.w, 6)
        holds = model.stasheff_holds(6)
        if not holds:
            ok = False
            details.append(f"{entry.name}: associativity tower fails")
        else:
            details.append(f"{entry.name}: identities hold up to arity 6, m_1 = 0")
    return CriterionResult(8, "Stasheff identities to arity 6", ok, details)


def criterion_9(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    quad_1var = CorpusEntry("quad-1var", ("x",), "x^2", True, {})
    for entry in [quad_1var] + [e for e in corpus if e.known.get("clifford")]:
        ed = _EntryData(entry)
        good = clifford_check(ed.w, 6)
        if not good:
            ok = False
            details.append(f"{entry.name}: Clifford comparison failed")
        else:
            details.append(f"{entry.name}: m_2 is the Clifford table, m_3..m_6 vanish")
    return CriterionResult(9, "quadratic formality", ok, details)


def criterion_10(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if not entry.isolated:
            continue
        ed = _EntryData(entry)
        if ed.ctx.n_vars > 2:
            continue
        diag = ed.diagonal()
        for label, x in ed.test_objects():
            if x.rank > 2:
                continue
            lhs = transform_mod_k_dims(x, diag)
            rhs = cohomology_mod_k(x)
            if lhs != rhs:
                ok = False
                details.append(f"{entry.name}/{label}: {lhs} != {rhs}")
        details.append(f"{entry.name}: diagonal kernel acts as the identity on dims")
    return CriterionResult(10, "identity kernel", ok, details)


def criterion_11(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if not entry.isolated:
            continue
        ed = _EntryData(entry)
        if not calabi_yau_parity_check(ed.w):
            ok = False
            details.append(f"{entry.name}: dual/shift profiles differ")
        else:
            details.append(f"{entry.name}: dual diagonal matches shift^{ed.ctx.n_vars % 2}")
    return CriterionResult(11, "Calabi-Yau parity shadow", ok, details)


def criterion_12(corpus, rng) -> CriterionResult:
    details = []
    ctx = RingCtx(("x",), QQ)
    w = parse_potential_text(ctx, "x^3")
    k = stabilize_residue_field(w)
    ident = is_quasi_iso(MFMorphism.identity(k))
    zero = is_quasi_iso(MFMorphism.zero(k, k))
    total = direct_sum(k, trivial_mf(ctx, w))
    incl = is_quasi_iso(MFMorphism.inclusion_first(k, total))
    ok = ident and not zero and incl
    details.append(f"identity -> {ident}, zero -> {zero}, inclusion -> {incl}")
    return CriterionResult(12, "quasi-isomorphism tester", ok, details)


def criterion_13(corpus, rng) -> CriterionResult:
    details = []
    ok = True
    for entry in corpus:
        if not entry.isolated:
            continue
        ed = _EntryData(entry)
        contraction = build_contraction(ed.w)
        n = ed.ctx.n_vars
        bound = 2 if n >= 3 else ed.w.total_degree() + 1
        failures = 0
        checked = 0
        for exp in monomial_basis(ed.ctx, bound):
            for word in range(1 << 2 * n):
                elt = SuperOp(ed.ctx, {(exp, word): ed.ctx.field.one})
                checked += 1
                if not contraction.check_identity(elt):
                    failures += 1
        if failures:
            ok = False
            details.append(f"{entry.name}: {failures} spanning elements fail")
        else:
            details.append(f"{entry.name}: identity holds on {checked} spanning elements")
    return CriterionResult(13, "contracting homotopy identity", ok, details)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]


def run_acceptance(filter_text=None, seed=20240801, quick=False):
    corpus = build_corpus()
    if filter_text:
        corpus = [e for e in corpus if filter_text.lower() in e.name.lower()]
    rng = random.Random(seed)
    results = []
    for fn in CRITERIA:
        if fn is criterion_1:
            results.append(fn(corpus, rng, quick=quick))
        else:
            results.append(fn(corpus, rng))
    return results
