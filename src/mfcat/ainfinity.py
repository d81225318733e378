"""Endomorphism dg algebra of the stabilized residue field and its minimal model.

The contracting homotopy peels one variable at a time; each stage divides
by x_i and left multiplies by theta_i. For the staged identities to close,
the witness for x_i must avoid the variables contracted after it, so this
module peels from the last variable down (`peel_witnesses` in descending
order: w_i involves x_1..x_i only) and contracts in that same order. With
this choice the transferred products recover the potential's coefficients
on argument tuples grouped by ascending generator index. Stages are spliced
by sandwiching between the earlier stages' projections, and the total
homotopy satisfies d h + h d = id - p exactly, which the tests assert on
spanning sets.

The projection keeps the pure del-word coefficients, so they are the
coordinates on its image, read off with no elimination (`coords`).

d, h, p and the stage projections compute each single term's image once
and extend linearly (`cached_linear`); the tree transfer applies them to a
few hundred distinct terms tens of thousands of times. The caches are exact
because these maps are k-linear, and each belongs to its algebra or
contraction. Products of operators read each pair of words' normal form from
one table (`superops._word_product`), and lambda of a tuple sums all its
splits into one term dict (`superops.multiply_into`).

The transfer visits only the tuples whose lambda can be nonzero: a tuple of
arity k >= 2 is visited only if it is L + R with h(lambda(L)) and
h(lambda(R)) both nonzero (every single index counts). lambda(args) is the
sum over splits of +-h(lambda(left)) h(lambda(right)), so a tuple with
lambda != 0 has a split with both factors nonzero and, by induction on the
arity, is visited; `transfer_minimal_model` gives the proof in full.

Tree-sum signs follow the bar-construction shift: in the shifted world the
two-leaf product is b2(a, b) = (-1)^|a| a b, the recursion carries no other
signs, and transferred products are unshifted with the standard Koszul
factor. Reported coefficient identities are sign-agnostic; this
convention's signs are locked by regression tests only.
"""

from __future__ import annotations

from .errors import PreconditionError, VerificationError
from .exterior import merge_sorted, subsets_ordered
from .fields import accumulate
from .series import RingCtx, Series
from .stabilize import peel_witnesses
from .superops import SuperOp, graded_commutator, multiply_into


class DgAlgebra:
    """Operator algebra with differential [delta, -] for a decomposed potential."""

    def __init__(self, w: Series):
        if not w.in_maximal_ideal_square() or w.is_zero():
            raise PreconditionError("potential must be nonzero and lie in m^2")
        self.ctx = w.ctx
        self.potential = w
        # peel the last variable first: the staged contraction needs w_i
        # free of x_(i+1)..x_n, the opposite of the Koszul builder's peel
        self.witnesses = peel_witnesses(w, reversed(range(self.ctx.n_vars)))
        delta = SuperOp.zero(self.ctx)
        for i in range(self.ctx.n_vars):
            xi = SuperOp.from_series(Series.variable(self.ctx, i))
            delta = delta + xi * SuperOp.del_theta(self.ctx, i)
            delta = delta + SuperOp.from_series(self.witnesses[i]) * SuperOp.theta(self.ctx, i)
        self.delta = delta
        # graded_commutator is looked up at call time, so a wrapper bound to
        # the module name sees every call
        self.d = cached_linear(self.ctx, lambda t: graded_commutator(delta, t))


def cached_linear(ctx: RingCtx, f):
    """The k-linear map that agrees with `f` on single terms.

    Each term's image f(t) is computed once and kept in a dict owned by the
    returned closure, so it dies with the algebra or contraction holding the
    map. The cache is exact: d = [delta, -] and the stage homotopies are
    k-linear, and so are the stage projections, h and p built from them, so
    the sum of c f(t) over the terms c t of a is f(a), and no value changes.
    """
    field = ctx.field
    images: dict = {}

    def g(a: SuperOp) -> SuperOp:
        out: dict = {}
        for key, c in a.terms.items():
            image = images.get(key)
            if image is None:
                image = images[key] = f(SuperOp(ctx, {key: field.one})).terms
            for k, v in image.items():
                accumulate(out, k, field.mul(c, v), field)
        return SuperOp(ctx, out)

    return g


def _stage_homotopy(ctx: RingCtx, i: int):
    """Division by x_i followed by left multiplication with theta_i."""

    def h(a: SuperOp) -> SuperOp:
        field = ctx.field
        out: dict = {}
        for (exp, th, dl), c in a.terms.items():
            if exp[i] == 0:
                continue
            ins = merge_sorted((i,), th)
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

        def projection(h):
            return lambda a: a - d(h(a)) - h(d(a))

        # the stage projections a - d h_i a - h_i d a are cached like h and p
        self.stage_projections = projections = [cached_linear(ctx, projection(h)) for h in stages]

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

        self.h = cached_linear(ctx, homotopy)
        self.p = cached_linear(ctx, projection(self.h))
        self.labels = subsets_ordered(n)
        self.basis_elements = [self.p(SuperOp.word(ctx, dels=subset)) for subset in self.labels]
        self.parities = [len(s) % 2 for s in self.labels]
        for idx, (subset, elt) in enumerate(zip(self.labels, self.basis_elements)):
            if not d(elt).is_zero():
                raise VerificationError(f"projected generator {subset} is not a cycle")
            if self.coords(elt) != {idx: ctx.field.one}:
                raise VerificationError(f"projected generator {subset} lost its pure part")

    def iota(self, coords: dict) -> SuperOp:
        field = self.algebra.ctx.field
        out: dict = {}
        for idx, c in coords.items():
            for key, v in self.basis_elements[idx].terms.items():
                accumulate(out, key, field.mul(c, v), field)
        return SuperOp(self.algebra.ctx, out)

    def coords(self, x: SuperOp) -> dict:
        """Coordinates of an element of the image in the projected basis.

        They are the coefficients of the pure del-words D_S. Every term of
        delta has coefficient x_i or w_i, both in m because w is in m^2, so
        each term of d(t) has positive x-degree; each stage homotopy appends
        a theta. So neither h nor d outputs a pure word, and p = id - dh - hd
        keeps the pure part: p(D_S) has coefficient [S = T] on D_T, and
        coords(p(a)) is the pure part of a.
        """
        zero = (0,) * self.algebra.ctx.n_vars
        out = {}
        for idx, subset in enumerate(self.labels):
            c = x.terms.get((zero, (), subset))
            if c is not None:
                out[idx] = c
        if x != self.iota(out):
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


def _shift_sign(parities, args) -> int:
    """Bar-shift Koszul sign relating m_k(args) and q_k(args)."""
    k = len(args)
    total = sum((k - i) * parities[a] for i, a in enumerate(args, start=1))
    return -1 if total % 2 else 1


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

    def q_table(self, k) -> dict:
        out = {}
        for args, vec in self.products.get(k, {}).items():
            sign = _shift_sign(self.parities, args)
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
    """lambda and h(lambda) of argument tuples, kept arity by arity.

    lambda(args) is the sum over splits of +-hlam(left) hlam(right), where
    hlam of a single index is its basis element and hlam(args) = h(lambda(args)).
    `keep` records the nonzero hlam of one tuple; a tuple never kept reads
    zero. So `lam(args)` is exact once every shorter tuple with nonzero
    hlam has been kept.
    """

    def __init__(self, contraction: ContractionData):
        self.C = contraction
        self.ctx = contraction.algebra.ctx
        self._hlam = {(i,): elt for i, elt in enumerate(contraction.basis_elements)}
        self.parities = contraction.parities

    def lam(self, args) -> SuperOp:
        out: dict = {}
        hlam = self._hlam
        # parity in the algebra of hlam(args[:j]): the base parities of
        # args[:j] plus j - 1, one per product in the tree
        odd = 1
        for j in range(1, len(args)):
            odd ^= self.parities[args[j - 1]] ^ 1
            left = hlam.get(args[:j])
            if left is None:
                continue
            right = hlam.get(args[j:])
            if right is not None:
                multiply_into(out, left, right, -1 if odd else 1)
        return SuperOp(self.ctx, out)

    def keep(self, args, lam: SuperOp) -> bool:
        """Record hlam(args) = h(lam) for lam = lambda(args); True iff nonzero."""
        if lam.is_zero():
            return False
        image = self.C.h(lam)
        if image.is_zero():
            return False
        self._hlam[args] = image
        return True


def transfer_minimal_model(w: Series, max_arity: int) -> AInfStructure:
    """Transferred products m_2..m_max_arity on the projected generators.

    Arity k visits only the tuples L + R with L, R kept at lower arities
    (`_Transfer.keep`), in sorted order. This finds every tuple with
    lambda != 0, by induction on k. Every index is kept at arity 1. At
    arity k, lambda(args) is a sum over splits args = L + R of
    +-hlam(L) hlam(R); if it is nonzero, some split has hlam(L) != 0 and
    hlam(R) != 0, so by induction L and R were visited and kept, and args
    is visited. A tuple that is not visited has lambda = 0, so it has no
    product and hlam = 0. Sorted order is the lexicographic order of
    `itertools.product`, so each table keeps the order a walk over every
    tuple gives. Tuples of the top arity enter no later lambda, so their
    hlam is never computed.
    """
    if max_arity < 2:
        raise PreconditionError("max_arity must be at least 2")
    contraction = build_contraction(w)
    tr = _Transfer(contraction)
    field = w.ctx.field
    products: dict = {}
    parities = contraction.parities
    live = {1: [(i,) for i in range(len(contraction.labels))]}
    for k in range(2, max_arity + 1):
        visit = sorted(
            {left + right for j in range(1, k) for left in live[j] for right in live[k - j]}
        )
        live[k] = []
        table: dict = {}
        for args in visit:
            lam = tr.lam(args)
            if lam.is_zero():
                continue
            if k < max_arity and tr.keep(args, lam):
                live[k].append(args)
            vec = contraction.coords(contraction.p(lam))
            if not vec:
                continue
            # unshift: m_k = sign * q_k with the bar-shift Koszul factor
            if _shift_sign(parities, args) < 0:
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
