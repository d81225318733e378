import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcat.complexes import cohomology_mod_k, cohomology_over_R, hom_complex
from mfcat.errors import PreconditionError, VerificationError
from mfcat.factorization import RMatrix, dual, shift_power, verify_mf
from mfcat.fields import QQ, PrimeField
from mfcat.series import RingCtx, Series, monomial_basis
from mfcat.serialize import parse_potential_text
from mfcat.stabilize import (
    KoszulData,
    decompose_potential,
    make_koszul_mf,
    stabilize_residue_field,
    stabilized_diagonal,
)
from sorted_words import merge_sorted


def ring(*names):
    return RingCtx(names, QQ)


def test_decompose_examples():
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    assert decompose_potential(x ** 3).witnesses == [x ** 2]
    ctx2 = ring("x", "y")
    x, y = Series.variable(ctx2, 0), Series.variable(ctx2, 1)
    assert decompose_potential(x ** 2 + y ** 2).witnesses == [x, y]
    assert decompose_potential(x ** 2 * y + y ** 3).witnesses == [x * y, y ** 2]
    with pytest.raises(PreconditionError):
        decompose_potential(Series.one(ctx))


def test_koszul_rank_one_examples():
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    kd = KoszulData(ctx, [x], [x ** 2])
    mf = make_koszul_mf(kd)
    assert mf.phi == RMatrix(ctx, [[x]]) and mf.psi == RMatrix(ctx, [[x ** 2]])
    assert mf.potential == x ** 3
    sym = make_koszul_mf(KoszulData(ctx, [x], [x]))
    assert sym.phi == RMatrix(ctx, [[x]]) and sym.psi == RMatrix(ctx, [[x]])


def test_koszul_two_generators():
    ctx = ring("x", "y")
    x, y = Series.variable(ctx, 0), Series.variable(ctx, 1)
    mf = make_koszul_mf(KoszulData(ctx, [x, y], [x, y]))
    assert mf.rank == 2
    assert mf.potential == x ** 2 + y ** 2
    assert verify_mf(mf)


def test_koszul_witness_identity_checked():
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    with pytest.raises(VerificationError):
        KoszulData(ctx, [x], [x], potential=x ** 3)


def test_stabilize_residue_field_examples():
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    assert stabilize_residue_field(x ** 2).phi == RMatrix(ctx, [[x]])
    k3 = stabilize_residue_field(x ** 3)
    assert (k3.phi, k3.psi) == (RMatrix(ctx, [[x]]), RMatrix(ctx, [[x ** 2]]))
    ctx2 = ring("x", "y")
    q = parse_potential_text(ctx2, "x^2 + y^2")
    kq = stabilize_residue_field(q)
    assert kq.rank == 2
    assert cohomology_mod_k(kq) == (2, 2)
    with pytest.raises(PreconditionError):
        stabilize_residue_field(Series.variable(ctx, 0))  # not in m^2


def test_stabilized_diagonal_examples():
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    d2 = stabilized_diagonal(x ** 2)
    dbl = ctx.doubled()
    xx, yy = Series.variable(dbl, 0), Series.variable(dbl, 1)
    assert d2.phi == RMatrix(dbl, [[xx - yy]])
    assert d2.psi == RMatrix(dbl, [[-(xx + yy)]])
    assert d2.potential == yy ** 2 - xx ** 2
    assert verify_mf(d2)
    d3 = stabilized_diagonal(x ** 3)
    assert d3.rank == 1
    assert d3.psi == RMatrix(dbl, [[-(xx ** 2 + xx * yy + yy ** 2)]])
    with pytest.raises(PreconditionError):
        stabilized_diagonal(x)  # degenerate, not in m^2


def test_every_output_verifies_random():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 3)
        ctx = RingCtx(n, QQ)
        m = rng.randint(1, 3)
        gens = []
        wits = []
        for _ in range(m):
            terms = {}
            for exp in monomial_basis(ctx, 2):
                if sum(exp) >= 1 and rng.random() < 0.5:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[exp] = QQ.of(c)
            gens.append(Series(ctx, terms) if terms else Series.variable(ctx, 0))
            wits.append(Series.variable(ctx, rng.randrange(n)))
        mf = make_koszul_mf(KoszulData(ctx, gens, wits))
        assert verify_mf(mf)


def reference_koszul_mf(kd):
    """The Koszul factorization on sorted-tuple words: generator i contracts
    (f_i) or wedges (w_i), with the `merge_sorted` sign of the word (i,)
    followed by the word without i, added into zero matrices."""
    ctx, m = kd.ctx, kd.size
    words = [c for k in range(m + 1) for c in combinations(range(m), k)]
    even, odd = [s for s in words if len(s) % 2 == 0], [s for s in words if len(s) % 2]
    row_of = {s: r for part in (even, odd) for r, s in enumerate(part)}

    def differential(rows, cols):
        entries = [[Series.zero(ctx)] * len(cols) for _ in rows]
        for col, s in enumerate(cols):
            for i in range(m):
                if i in s:
                    rest = tuple(j for j in s if j != i)
                    (sign, _), target, entry = merge_sorted((i,), rest), rest, kd.generators[i]
                else:
                    (sign, target), entry = merge_sorted((i,), s), kd.witnesses[i]
                r = row_of[target]
                entries[r][col] = entries[r][col] + (entry if sign > 0 else -entry)
        return RMatrix(ctx, entries)

    return differential(even, odd), differential(odd, even)


@st.composite
def koszul_data(draw):
    field = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(7)]))
    ctx = RingCtx(draw(st.integers(1, 3)), field)
    exps = monomial_basis(ctx, 2)
    terms = st.dictionaries(st.sampled_from(exps), st.integers(-4, 4), max_size=3)

    def series():
        return Series(ctx, {e: field.of(c) for e, c in draw(terms).items()})

    m = draw(st.integers(1, 5))
    return KoszulData(ctx, [series() for _ in range(m)], [series() for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(kd=koszul_data())
def test_toggle_builder_matches_the_tuple_reference(kd):
    mf = make_koszul_mf(kd)
    assert (mf.phi, mf.psi) == reference_koszul_mf(kd)
    assert mf.potential == kd.potential


def test_endomorphism_data_dims():
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    for w, dims in ((x ** 2, (1, 1)), (x ** 3, (1, 1))):
        gen = stabilize_residue_field(w)
        hom = hom_complex(gen, gen)
        assert verify_mf(gen)
        assert cohomology_over_R(hom) == dims
    ctx2 = ring("x", "y")
    q = parse_potential_text(ctx2, "x^2 + y^2")
    gen = stabilize_residue_field(q)
    hom = hom_complex(gen, gen)
    dims = cohomology_over_R(hom)
    assert dims[0] + dims[1] == 4  # Clifford algebra on two generators


def test_generator_self_duality():
    for names, text in ((("x",), "x^2"), (("x",), "x^3"), (("x", "y"), "x^2 + y^2")):
        ctx = RingCtx(names, QQ)
        w = parse_potential_text(ctx, text)
        k = stabilize_residue_field(w)
        eps = ctx.n_vars % 2
        lhs = cohomology_mod_k(dual(k))
        rhs = cohomology_mod_k(shift_power(k, eps))
        assert lhs == rhs
    # one variable: the literal rank-1 identity up to sign
    ctx = ring("x")
    x = Series.variable(ctx, 0)
    k = stabilize_residue_field(x ** 3)
    d = dual(k)
    s = shift_power(k, 1)
    assert d.phi == RMatrix(ctx, [[x ** 2]]) and s.phi == RMatrix(ctx, [[-(x ** 2)]])
    assert d.psi == s.psi  # both are -x
