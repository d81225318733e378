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

The maps run on terms packed as ints (`superops.Packing`, `_Packed`), whose
words are `exterior` masks. d, the stage projections, h, p and the
coordinate map pi = coords o p compute each term's column once and extend
linearly, which is exact as all are k-linear. Filling pi(t) checks
p(t) = iota(pi(t)), so by linearity every product's coordinates are
checked, each distinct term once. An exponent that reaches the guard bit of
its field restarts the computation with the fields twice as wide
(`Contraction._exact`), so every result is exact. `build_contraction`
returns one `Contraction`: delta, the witnesses, the basis, and the maps on
`SuperOp`s. A `SuperOp` word is the low 2n bits of a packed term, so packing
adds the exponent fields to it and unpacking splits them off again.

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

from functools import partial, partialmethod

from .errors import PreconditionError, VerificationError
from .exterior import mask_of, subsets_ordered
from .fields import accumulate
from .series import Series
from .stabilize import peel_witnesses, require_potential
from .superops import ExponentOverflow, Packing, SuperOp


def _nonzero(terms: dict) -> dict:
    # field elements are ints or Fractions, false exactly when zero
    return terms if all(terms.values()) else {t: c for t, c in terms.items() if c}


def _linear(column):
    """The k-linear map a -> sum of c column(self, t, *args) over the terms
    c t of a. Each column is computed once, on first use, and kept in
    self.cols under the plain function, so `_Packed` holds no cycle."""

    def apply(self, a: dict, *args) -> dict:
        cols = self.cols.setdefault((column, args), {})
        add, mul = self.field.add, self.field.mul
        out: dict = {}
        for t, c in a.items():
            col = cols.get(t)
            if col is None:
                col = cols[t] = column(self, t, *args)
            for u, v in col.items():
                v = mul(c, v)
                out[u] = add(out[u], v) if u in out else v
        return _nonzero(out)

    return apply


class _Packed(Packing):
    """d and the contraction on packed terms: each map takes and returns a
    dict from packed terms to coefficients, with no zeros."""

    def __init__(self, delta: SuperOp, bits: int):
        super().__init__(delta.ctx, bits)
        self.delta = self.pack(delta)
        # contract the last variable first: its witness is the only one
        # allowed to involve every variable
        self.stages = list(reversed(range(self.n)))
        self.cols: dict = {}
        one, labels = self.field.one, subsets_ordered(self.n)
        self.pure = [mask_of(s, self.n) for s in labels]
        self.basis = [self.p({t: one}) for t in self.pure]
        for idx, (subset, elt) in enumerate(zip(labels, self.basis)):
            if self.d(elt):
                raise VerificationError(f"projected generator {subset} is not a cycle")
            if {i: elt[u] for i, u in enumerate(self.pure) if u in elt} != {idx: one}:
                raise VerificationError(f"projected generator {subset} lost its pure part")

    def combine(self, plus, minus=()) -> dict:
        """The sum of the dicts in `plus` minus the sum of those in `minus`."""
        add, sub, zero = self.field.add, self.field.sub, self.field.zero
        out: dict = {}
        for op, parts in ((add, plus), (sub, minus)):
            for a in parts:
                for u, c in a.items():
                    out[u] = op(out.get(u, zero), c)
        return _nonzero(out)

    def stage(self, v: int, a: dict) -> dict:
        """Division by x_v followed by left multiplication with theta_v."""
        neg, unit, mask = self.field.neg, self.units[v], (1 << self.bits) - 1
        out = {}
        for t, c in a.items():
            if t >> self.low + v * self.bits & mask and not t >> v & 1:
                out[t - unit | 1 << v] = neg(c) if (t & (1 << v) - 1).bit_count() % 2 else c
        return out

    def _projected(self, t: int, s) -> dict:
        """t - d s t - s d t for the homotopy s."""
        single = {t: self.field.one}
        return self.combine([single], [self.d(s(single)), s(self.d(single))])

    @_linear
    def d(self, t: int) -> dict:
        # [delta, t] = delta t - (-1)^|t| t delta, as delta is odd
        out: dict = {}
        single = {t: self.field.one}
        self.mul_into(out, self.delta, single, 1)
        self.mul_into(out, single, self.delta, 1 if (t & self.word_mask).bit_count() % 2 else -1)
        return _nonzero(out)

    @_linear
    def proj(self, t: int, i: int) -> dict:
        return self._projected(t, partial(self.stage, self.stages[i]))

    @_linear
    def h(self, t: int) -> dict:
        # the sum over stages i of P_0 .. P_(i-1) s_i P_(i-1) .. P_0 (t)
        parts, pre = [], {t: self.field.one}
        for i, v in enumerate(self.stages):
            if i:
                pre = self.proj(pre, i - 1)
            mid = self.stage(v, pre)
            for j in reversed(range(i)):
                mid = self.proj(mid, j)
            parts.append(mid)
        return self.combine(parts)

    @_linear
    def p(self, t: int) -> dict:
        return self._projected(t, self.h)

    @_linear
    def pi(self, t: int) -> dict:
        # coords checks p(t) = iota(pi(t)) as the column is filled
        return self.coords(self.p({t: self.field.one}))

    @_linear
    def iota(self, i: int) -> dict:
        return self.basis[i]

    def coords(self, a: dict) -> dict:
        """Coordinates of an element of the image in the projected basis.

        They are the coefficients of the pure del-words D_S. Every term of
        delta has coefficient x_i or w_i, both in m because w is in m^2, so
        each term of d(t) has positive x-degree; each stage homotopy appends
        a theta. So neither h nor d outputs a pure word, and p = id - dh - hd
        keeps the pure part: p(D_S) has coefficient [S = T] on D_T, and
        coords(p(a)) is the pure part of a.
        """
        vec = {i: a[u] for i, u in enumerate(self.pure) if u in a}
        if self.iota(vec) != a:
            raise VerificationError("element is not in the image of the projection")
        return vec

    def check_identity(self, a: dict) -> bool:
        """d h + h d = id - iota p on a, with p landing in the basis span: the
        factorization of p through the 2^n-dimensional image is the
        substantive claim, and the two-sided identity certifies it on a."""
        try:
            vec = self.coords(self.p(a))
        except VerificationError:
            return False
        return self.combine([self.d(self.h(a)), self.h(self.d(a)), self.iota(vec)]) == a


class Contraction:
    """The operator algebra with differential [delta, -] for a decomposed
    potential, contracted onto 2^n cycles indexed by subsets of the del
    generators. Its maps take `SuperOp`s and run on the packed contraction
    `_Packed`, under `_exact`."""

    def __init__(self, w: Series):
        require_potential(w)
        ctx = self.ctx = w.ctx
        n = ctx.n_vars
        # peel the last variable first: the staged contraction needs w_i
        # free of x_(i+1)..x_n, the opposite of the Koszul builder's peel
        self.witnesses = peel_witnesses(w, reversed(range(n)))
        # delta = sum x_i del_i + w_i theta_i: every term has its own word
        terms = {}
        for i, wit in enumerate(self.witnesses):
            terms[(tuple(int(j == i) for j in range(n)), 1 << n + i)] = ctx.field.one
            terms.update(((exp, 1 << i), c) for exp, c in wit.terms.items())
        self.delta = SuperOp(ctx, terms)
        self.labels = subsets_ordered(n)
        self.parities = [len(s) % 2 for s in self.labels]
        self._bits, self._ops = 8, None
        self._exact(lambda ops: ops)  # build and check the packed contraction now

    @property
    def basis_elements(self) -> list:
        """The 2^n projected generators, in the order of `labels`."""
        return self._exact(lambda ops: [ops.unpack(b) for b in ops.basis])

    def _exact(self, f, *args):
        """f(ops, *args) on the packed contraction `ops`. On an overflow the
        fields double and f starts again, so no inexact value escapes. The
        loop ends: `Packing.pack` rejects a negative exponent, and a field
        wider than every exponent's bit length holds the rest."""
        while True:
            try:
                if self._ops is None:
                    self._ops = _Packed(self.delta, self._bits)
                return f(self._ops, *args)
            except ExponentOverflow:
                self._bits, self._ops = 2 * self._bits, None

    def _map(self, name: str, a: SuperOp, *args, unpack=True):
        """The packed map `name` on a; a term dict comes back as a SuperOp."""
        out = self._exact(lambda ops: getattr(ops, name)(ops.pack(a), *args))
        return self._ops.unpack(out) if unpack else out

    d = partialmethod(_map, "d")
    h = partialmethod(_map, "h")
    p = partialmethod(_map, "p")
    proj = partialmethod(_map, "proj")  # proj(a, i): the projection of stage i
    coords = partialmethod(_map, "coords", unpack=False)
    check_identity = partialmethod(_map, "check_identity", unpack=False)


def build_contraction(w: Series) -> Contraction:
    return Contraction(w)


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


def _transfer_tables(ops: _Packed, parities, max_arity: int) -> dict:
    """The product tables of `transfer_minimal_model`, on packed terms."""
    neg = ops.field.neg
    # hlam of a kept tuple and (-1)^|hlam| with |hlam| its parity in the
    # algebra: the base parities plus j - 1 for arity j, one per product in
    # the tree; b2(a, b) = (-1)^|a| a b
    hlam = {(i,): (b, -1 if parities[i] else 1) for i, b in enumerate(ops.basis)}
    live = {1: list(hlam)}
    top = 1  # the highest arity with a kept tuple
    products: dict = {}
    for k in range(2, max_arity + 1):
        if k > 2 * top:
            break
        cuts = range(max(1, k - top), min(k - 1, top) + 1)
        visit = sorted({left + right for j in cuts for left in live[j] for right in live[k - j]})
        live[k] = []
        table: dict = {}
        for args in visit:
            lam: dict = {}
            for j in cuts:
                left = hlam.get(args[:j])
                if left is not None:
                    right = hlam.get(args[j:])
                    if right is not None:
                        ops.mul_into(lam, left[0], right[0], left[1])
            lam = _nonzero(lam)
            if not lam:
                continue
            if k < max_arity:
                image = ops.h(lam)
                if image:
                    hlam[args] = (image, -1 if (sum(parities[i] for i in args) + k - 1) % 2 else 1)
                    live[k].append(args)
                    top = k
            vec = ops.pi(lam)
            if not vec:
                continue
            # unshift: m_k = sign * q_k with the bar-shift Koszul factor
            sign = _shift_sign(parities, args)
            table[args] = {i: vec[i] if sign > 0 else neg(vec[i]) for i in sorted(vec)}
        if table:
            products[k] = table
    return products


def transfer_minimal_model(w: Series, max_arity: int) -> AInfStructure:
    """Transferred products m_2..m_max_arity on the projected generators.

    lambda(args) is the sum over splits args = L + R of +-hlam(L) hlam(R),
    where hlam of a single index is its basis element and hlam(args) =
    h(lambda(args)); a tuple is kept when its hlam is nonzero. Arity k
    visits only the tuples L + R with L, R kept at lower arities, in sorted
    order. This finds every tuple with lambda != 0, by induction on k. Every
    index is kept at arity 1. At arity k, if lambda(args) is nonzero, some
    split has hlam(L) != 0 and hlam(R) != 0, so by induction L and R were
    visited and kept, and args is visited. A tuple that is not visited has
    lambda = 0, so it has no product and hlam = 0. Sorted order is the
    lexicographic order of `itertools.product`, so each table keeps the
    order a walk over every tuple gives. Tuples of the top arity enter no
    later lambda, so their hlam is never computed.

    The walk stops after arity 2J, where J is the highest arity with a kept
    tuple. For k > 2J every split of a k-tuple has a half of arity > J,
    which is not kept, so no tuple is visited at k, none is kept, and J
    stays the same; so no tuple is visited at any later arity either, and
    every later table is empty. A huge `max_arity` therefore costs no more
    than arity 2J.
    """
    if max_arity < 2:
        raise PreconditionError("max_arity must be at least 2")
    contraction = build_contraction(w)
    parities = contraction.parities
    products = contraction._exact(_transfer_tables, parities, max_arity)
    return AInfStructure(contraction.labels, parities, w.ctx.field, max_arity, products)


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
