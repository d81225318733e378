"""Endomorphism dg algebra of the stabilized residue field and its minimal model.

The contracting homotopy peels one variable at a time; each stage divides
by x_i and left multiplies by theta_i. For the staged identities to close,
the witness for x_i must avoid the variables contracted after it, so this
module peels from the last variable down (w_i involves x_1..x_i only) and
contracts in that same order. With this choice the transferred products
recover the potential's coefficients on argument tuples grouped by
ascending generator index. Stages are spliced by sandwiching between the
earlier stages' projections, and the total homotopy satisfies
d h + h d = id - p exactly, which the tests assert on spanning sets.

Tree-sum signs follow the bar-construction shift: in the shifted world the
two-leaf product is b2(a, b) = (-1)^|a| a b, the recursion carries no other
signs, and transferred products are unshifted with the standard Koszul
factor. Reported coefficient identities are sign-agnostic; this
convention's signs are locked by regression tests only.
"""

from __future__ import annotations

from itertools import product as iter_product

from .errors import PreconditionError, VerificationError
from .exterior import insert_sorted, subsets_ordered
from .fields import accumulate
from .series import RingCtx, Series
from .superops import SuperOp, graded_commutator


def descending_witnesses(w: Series) -> list:
    """Witnesses with w = sum x_i w_i and w_i free of x_(i+1)..x_n.

    Obtained by peeling the last variable first; this is the decomposition
    the staged contraction needs, as opposed to the ascending peel used for
    the Koszul stabilizations.
    """
    ctx = w.ctx
    witnesses = [None] * ctx.n_vars
    rest = w
    for i in reversed(range(ctx.n_vars)):
        quot, rest = rest.split_by_variable(i)
        witnesses[i] = quot
    if not rest.is_zero():
        raise PreconditionError("potential must have zero constant term")
    return witnesses


class DgAlgebra:
    """Operator algebra with differential [delta, -] for a decomposed potential."""

    def __init__(self, w: Series):
        if not w.in_maximal_ideal_square() or w.is_zero():
            raise PreconditionError("potential must be nonzero and lie in m^2")
        self.ctx = w.ctx
        self.potential = w
        self.witnesses = descending_witnesses(w)
        delta = SuperOp.zero(self.ctx)
        for i in range(self.ctx.n_vars):
            xi = SuperOp.from_series(Series.variable(self.ctx, i))
            delta = delta + xi * SuperOp.del_theta(self.ctx, i)
            delta = delta + SuperOp.from_series(self.witnesses[i]) * SuperOp.theta(self.ctx, i)
        self.delta = delta

    def d(self, a: SuperOp) -> SuperOp:
        return graded_commutator(self.delta, a)


def build_dg_algebra(w: Series) -> DgAlgebra:
    return DgAlgebra(w)


def _stage_homotopy(ctx: RingCtx, i: int):
    """Division by x_i followed by left multiplication with theta_i."""

    def h(a: SuperOp) -> SuperOp:
        field = ctx.field
        out: dict = {}
        for (exp, th, dl), c in a.terms.items():
            if exp[i] == 0:
                continue
            ins = insert_sorted(th, i)
            if ins is None:
                continue
            sign, th_new = ins
            new_exp = list(exp)
            new_exp[i] -= 1
            val = c if sign > 0 else field.neg(c)
            accumulate(out, (tuple(new_exp), th_new, dl), val, field)
        return SuperOp(ctx, out)

    return h


class ContractionData:
    """Projection, inclusion, and homotopy contracting the algebra onto 2^n
    independent cycles indexed by subsets of the del generators."""

    def __init__(self, algebra: DgAlgebra):
        self.algebra = algebra
        ctx = algebra.ctx
        n = ctx.n_vars
        d = algebra.d
        # contract the last variable first: its witness is the only one
        # allowed to involve every variable
        stages = [_stage_homotopy(ctx, i) for i in reversed(range(n))]

        def stage_projection(h):
            def p(a):
                return a - d(h(a)) - h(d(a))

            return p

        projections = [stage_projection(h) for h in stages]

        def homotopy(a: SuperOp) -> SuperOp:
            total = SuperOp.zero(ctx)
            for i in range(n):
                mid = a
                for j in range(i):
                    mid = projections[j](mid)
                mid = stages[i](mid)
                for j in reversed(range(i)):
                    mid = projections[j](mid)
                total = total + mid
            return total

        def projection(a: SuperOp) -> SuperOp:
            return a - d(homotopy(a)) - homotopy(d(a))

        self.h = homotopy
        self.p = projection
        self.labels = subsets_ordered(n)
        self.basis_elements = [
            projection(SuperOp.word(ctx, dels=subset)) for subset in self.labels
        ]
        self.parities = [len(s) % 2 for s in self.labels]
        for subset, elt in zip(self.labels, self.basis_elements):
            if not d(elt).is_zero():
                raise VerificationError(f"projected generator {subset} is not a cycle")
        self._pivots = self._echelonize()

    def _echelonize(self):
        field = self.algebra.ctx.field
        pivots = []
        for idx, elt in enumerate(self.basis_elements):
            vec = dict(elt.terms)
            rep = {idx: field.one}
            for key, pvec, prep in pivots:
                c = vec.get(key)
                if c is None:
                    continue
                neg_c = field.neg(c)
                for k2, v2 in pvec.items():
                    accumulate(vec, k2, field.mul(neg_c, v2), field)
                for i2, v2 in prep.items():
                    accumulate(rep, i2, field.mul(neg_c, v2), field)
            if not vec:
                raise VerificationError("projected generators are linearly dependent")
            key = min(vec)
            inv = field.inv(vec[key])
            vec = {k: field.mul(inv, v) for k, v in vec.items()}
            rep = {k: field.mul(inv, v) for k, v in rep.items()}
            pivots.append((key, vec, rep))
        return pivots

    def iota(self, coords: dict) -> SuperOp:
        out = SuperOp.zero(self.algebra.ctx)
        for idx, c in coords.items():
            out = out + self.basis_elements[idx].scale(c)
        return out

    def coords(self, x: SuperOp) -> dict:
        """Coordinates of an element of the image in the projected basis."""
        field = self.algebra.ctx.field
        vec = dict(x.terms)
        out: dict = {}
        for key, pvec, prep in self._pivots:
            c = vec.get(key)
            if c is None:
                continue
            neg_c = field.neg(c)
            for k2, v2 in pvec.items():
                accumulate(vec, k2, field.mul(neg_c, v2), field)
            for i2, v2 in prep.items():
                accumulate(out, i2, field.mul(c, v2), field)
        if vec:
            raise VerificationError("element is not in the image of the projection")
        return out

    def check_identity(self, a: SuperOp) -> bool:
        """d h + h d = id - iota p, with p landing in the basis span.

        The factorization of p through the 2^n-dimensional image is the
        substantive claim; the two-sided identity then certifies the
        contraction on this element.
        """
        d = self.algebra.d
        lhs = d(self.h(a)) + self.h(d(a))
        try:
            coords = self.coords(self.p(a))
        except VerificationError:
            return False
        return lhs == a - self.iota(coords)


def build_contraction(w: Series) -> ContractionData:
    return ContractionData(DgAlgebra(w))


def _label_text(subset) -> str:
    if not subset:
        return "1"
    return "*".join(f"D{i + 1}" for i in subset)


class AInfStructure:
    """Finite minimal model: basis with parities and products m_2..m_K.

    Products are stored in the unshifted convention; `q_table` rebuilds the
    shifted one, in which the associativity-type identities are verified.
    """

    def __init__(self, labels, parities, field, max_arity, products):
        self.labels = [_label_text(s) for s in labels]
        self.label_subsets = list(labels)
        self.parities = list(parities)
        self.field = field
        self.max_arity = max_arity
        self.products = products  # {k: {args: {idx: coeff}}}

    @property
    def dimension(self):
        return len(self.labels)

    def product(self, args) -> dict:
        k = len(args)
        return dict(self.products.get(k, {}).get(tuple(args), {}))

    def _shift_sign(self, args) -> int:
        k = len(args)
        total = sum((k - i) * self.parities[a] for i, a in enumerate(args, start=1))
        return -1 if total % 2 else 1

    def q_table(self, k) -> dict:
        out = {}
        for args, vec in self.products.get(k, {}).items():
            sign = self._shift_sign(args)
            if sign > 0:
                out[args] = dict(vec)
            else:
                out[args] = {i: self.field.neg(c) for i, c in vec.items()}
        return out

    def stasheff_defect(self, total_arity: int) -> dict:
        """Accumulated coderivation-square terms at one arity; empty iff zero."""
        field = self.field
        acc: dict = {}
        vpar = [(p + 1) % 2 for p in self.parities]
        for s in range(2, total_arity):
            outer = total_arity - s + 1
            if outer < 2 or outer > self.max_arity or s > self.max_arity:
                continue
            q_in = self.q_table(s)
            q_out = self.q_table(outer)
            if not q_in or not q_out:
                continue
            for args_out, vec_out in q_out.items():
                for r in range(outer):
                    sign = -1 if sum(vpar[a] for a in args_out[:r]) % 2 else 1
                    slot = args_out[r]
                    for args_in, vec_in in q_in.items():
                        c = vec_in.get(slot)
                        if c is None:
                            continue
                        full = args_out[:r] + args_in + args_out[r + 1 :]
                        for tgt, co in vec_out.items():
                            val = field.mul(c, co)
                            if sign < 0:
                                val = field.neg(val)
                            bucket = acc.setdefault(full, {})
                            accumulate(bucket, tgt, val, field)
                            if not bucket:
                                acc.pop(full, None)
        return acc

    def stasheff_holds(self, cap=None) -> bool:
        cap = cap or self.max_arity
        return all(not self.stasheff_defect(m) for m in range(2, cap + 1))


class _Transfer:
    def __init__(self, contraction: ContractionData):
        self.C = contraction
        self.zero = SuperOp.zero(contraction.algebra.ctx)
        self._lam: dict = {}
        self._hlam: dict = {}
        self.base_par = [len(s) % 2 for s in contraction.labels]

    def vpar(self, args) -> int:
        # parity in the algebra of h(lam(args)), closed form over any split
        return (sum(self.base_par[a] for a in args) + len(args) - 1) % 2

    def hlam(self, args):
        if len(args) == 1:
            return self.C.basis_elements[args[0]]
        got = self._hlam.get(args)
        if got is None:
            lam = self.lam(args)
            got = self.zero if lam.is_zero() else self.C.h(lam)
            self._hlam[args] = got
        return got

    def lam(self, args):
        got = self._lam.get(args)
        if got is not None:
            return got
        total = self.zero
        for j in range(1, len(args)):
            left = self.hlam(args[:j])
            if left.is_zero():
                continue
            right = self.hlam(args[j:])
            if right.is_zero():
                continue
            prod = left * right
            if self.vpar(args[:j]):
                prod = -prod
            total = total + prod
        self._lam[args] = total
        return total


def _auto_raise_truncation(w: Series, max_arity: int) -> Series:
    cap = w.ctx.truncation
    if cap is None:
        return w
    need = max_arity * max(1, w.total_degree())
    if cap >= need:
        return w
    return Series(w.ctx.with_truncation(need), dict(w.terms))


def transfer_minimal_model(w: Series, max_arity: int) -> AInfStructure:
    """Transferred products m_2..m_max_arity on the projected generators."""
    if max_arity < 2:
        raise PreconditionError("max_arity must be at least 2")
    w = _auto_raise_truncation(w, max_arity)
    contraction = build_contraction(w)
    tr = _Transfer(contraction)
    dim = len(contraction.labels)
    field = w.ctx.field
    products: dict = {}
    parities = contraction.parities
    for k in range(2, max_arity + 1):
        table: dict = {}
        for args in iter_product(range(dim), repeat=k):
            lam = tr.lam(args)
            if lam.is_zero():
                continue
            vec = contraction.coords(contraction.p(lam))
            if not vec:
                continue
            # unshift: m_k = sign * q_k with the bar-shift Koszul factor
            total = sum((k - i) * parities[a] for i, a in enumerate(args, start=1))
            if total % 2:
                vec = {i: field.neg(c) for i, c in vec.items()}
            table[args] = vec
        if table:
            products[k] = table
    return AInfStructure(contraction.labels, parities, field, max_arity, products)


def _diagonal_quadratic_coeffs(w: Series):
    ctx = w.ctx
    coeffs = [None] * ctx.n_vars
    for exp, c in w.terms.items():
        if sum(exp) != 2 or max(exp) != 2:
            raise PreconditionError("potential is not a diagonal quadratic form")
        coeffs[exp.index(2)] = c
    if any(c is None for c in coeffs):
        raise PreconditionError("diagonal quadratic must involve every variable")
    return coeffs


def clifford_product(s_word, t_word, coeffs, field):
    """Product of generator words subject to D_i^2 = -a_i and anticommutation."""
    word = list(s_word)
    scalar = field.one
    for t in t_word:
        passes = sum(1 for j in word if j > t)
        if passes % 2:
            scalar = field.neg(scalar)
        if t in word:
            word.remove(t)
            scalar = field.mul(scalar, field.neg(coeffs[t]))
        else:
            word.append(t)
            word.sort()
    return scalar, tuple(word)


def clifford_check(w: Series, max_arity: int = 6) -> bool:
    """True iff the transferred m_2 is the Clifford table of the form and all
    higher transferred products vanish up to the arity cap."""
    if w.ctx.field.characteristic == 2:
        raise PreconditionError("characteristic 2 is rejected for the Clifford comparison")
    coeffs = _diagonal_quadratic_coeffs(w)
    field = w.ctx.field
    model = transfer_minimal_model(w, max_arity)
    index = {s: i for i, s in enumerate(model.label_subsets)}
    for i, s_word in enumerate(model.label_subsets):
        for j, t_word in enumerate(model.label_subsets):
            scalar, word = clifford_product(s_word, t_word, coeffs, field)
            expected = {index[word]: scalar} if scalar != field.zero else {}
            if model.product((i, j)) != expected:
                return False
    for k in range(3, max_arity + 1):
        if model.products.get(k):
            return False
    return True
