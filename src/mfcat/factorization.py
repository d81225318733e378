"""Matrix factorizations and their category-level operations.

Sign conventions, frozen so every output is bit-reproducible:
  * the differential of a factorization is the odd block matrix [[0, phi], [psi, 0]];
  * shift negates and swaps the blocks: shift(phi, psi) = (-psi, -phi);
  * the dual of (phi, psi) over w is (psi^T, -phi^T) over -w, and the double
    dual equals the original after conjugating by the parity involution;
  * tensor basis order: even = X0Y0 ++ X1Y1, odd = X1Y0 ++ X0Y1, with the
    pair (i, j) of basis indices at i * rank(Y) + j inside each block;
  * Hom(X, Y) is Y (x) dual(X) over the shared ring, so its basis is even =
    Hom(X0,Y0) ++ Hom(X1,Y1), odd = Hom(X0,Y1) ++ Hom(X1,Y0), each block a
    matrix read row-major;
  * a 2-periodic complex is a factorization of 0: `psi` is d even->odd and
    `phi` is d odd->even, so `verify_mf` is its d^2 = 0 check.

A matrix over R is stored as its column terms: per column i, the terms
(j, exp, coeff) of its entries (j, i). All arithmetic works on these terms,
and `entries` is a dense view for serialization and determinants. For a
factorization the pair (psi's, phi's), indexed by source parity
(`_columns`), is what the cohomology engines read. `_tensor_columns` places
each term of two factors straight into the tensor's columns, so a morphism
complex is built in this format from its objects.
"""

from __future__ import annotations

from operator import add

from .errors import ContextMismatchError, PreconditionError, VerificationError
from .fields import accumulate
from .series import RingCtx, Series, _check_ctx


class RMatrix:
    """Matrix over R, all entries sharing one context, held as its column
    terms: `columns[i]` lists the terms (j, exp, coeff) of the entries (j, i),
    one per monomial x^exp with coefficient coeff, each (j, exp) at most once
    and every coeff nonzero. Immutable."""

    __slots__ = ("ctx", "rows", "cols", "columns")

    def __init__(self, ctx: RingCtx, entries):
        """The matrix with the given grid of `Series` entries, checked."""
        grid = [list(row) for row in entries]
        cols = len(grid[0]) if grid else 0
        columns = [[] for _ in range(cols)]
        for j, row in enumerate(grid):
            if len(row) != cols:
                raise PreconditionError("ragged matrix")
            for col, e in zip(columns, row):
                if e.ctx != ctx:
                    raise ContextMismatchError("matrix entry context mismatch")
                col.extend((j, exp, coeff) for exp, coeff in e.terms.items())
        self.ctx, self.rows, self.cols, self.columns = ctx, len(grid), cols, columns

    @classmethod
    def from_columns(cls, ctx: RingCtx, rows: int, columns) -> "RMatrix":
        """The rows x len(columns) matrix with these column terms, unchecked."""
        m = cls.__new__(cls)
        m.ctx, m.rows, m.cols, m.columns = ctx, rows, len(columns), columns
        return m

    @property
    def entries(self):
        """Dense view: a new grid of `Series`, entry (j, i) at [j][i]."""
        terms = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
        for i, col in enumerate(self.columns):
            for j, exp, coeff in col:
                terms[j][i][exp] = coeff
        return tuple(tuple(Series(self.ctx, t) for t in row) for row in terms)

    @staticmethod
    def zero(ctx, rows, cols):
        return RMatrix.from_columns(ctx, rows, [[] for _ in range(cols)])

    @staticmethod
    def identity(ctx, n):
        return RMatrix.scalar(ctx, n, Series.one(ctx))

    @staticmethod
    def scalar(ctx, n, s: Series):
        return RMatrix.from_columns(ctx, n, [[(i, exp, c) for exp, c in s.terms.items()] for i in range(n)])

    def _summed(self, columns) -> "RMatrix":
        """A matrix with this one's row count whose column i sums the terms
        listed in columns[i], which may repeat a (row, exp) pair."""
        field = self.ctx.field
        out = []
        for col in columns:
            acc: dict = {}
            for j, exp, coeff in col:
                accumulate(acc, (j, exp), coeff, field)
            out.append([(j, exp, coeff) for (j, exp), coeff in acc.items()])
        return RMatrix.from_columns(self.ctx, self.rows, out)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("shape mismatch in matrix sum")
        _check_ctx(self, other)
        return self._summed(a + b for a, b in zip(self.columns, other.columns))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ctx.field.neg
        return RMatrix.from_columns(
            self.ctx, self.rows, [[(j, exp, neg(c)) for j, exp, c in col] for col in self.columns]
        )

    def __mul__(self, other):
        """Matrix product, or with a `Series` the product by that scalar.
        Column i of A B is the sum of c x^exp (column k of A) over the terms
        (k, exp, c) of column i of B."""
        if isinstance(other, Series):
            other = RMatrix.scalar(other.ctx, self.cols, other)
        if self.cols != other.rows:
            raise PreconditionError("shape mismatch in matrix product")
        _check_ctx(self, other)
        mul, left = self.ctx.field.mul, self.columns
        return self._summed(
            ((j, tuple(map(add, e1, e2)), mul(c1, c2)) for k, e2, c2 in col for j, e1, c1 in left[k])
            for col in other.columns
        )

    def transpose(self):
        out = [[] for _ in range(self.rows)]
        for i, col in enumerate(self.columns):
            for j, exp, coeff in col:
                out[j].append((i, exp, coeff))
        return RMatrix.from_columns(self.ctx, self.cols, out)

    def map_entries(self, fn, new_ctx=None):
        return RMatrix(new_ctx or self.ctx, [[fn(e) for e in row] for row in self.entries])

    def is_zero(self):
        return not any(self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.ctx == other.ctx
            and (self.rows, self.cols) == (other.rows, other.cols)
            and all(set(a) == set(b) for a, b in zip(self.columns, other.columns))
        )

    def det(self) -> Series:
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        return _det(self.ctx, self.entries)

    def adjugate(self) -> "RMatrix":
        """Transposed cofactor matrix: self * adjugate = det * identity."""
        n = self.rows
        if n != self.cols:
            raise PreconditionError("adjugate of a non-square matrix")
        grid = self.entries

        def cofactor(i, j):
            c = _det(self.ctx, [row[:j] + row[j + 1 :] for r, row in enumerate(grid) if r != i])
            return c if (i + j) % 2 == 0 else -c

        return RMatrix(self.ctx, [[cofactor(j, i) for j in range(n)] for i in range(n)])


def _det(ctx, grid) -> Series:
    """Determinant of a square grid of `Series`, by expansion along row 0."""
    if not grid:
        return Series.one(ctx)
    acc = Series.zero(ctx)
    for j, a in enumerate(grid[0]):
        if a.is_zero():
            continue
        term = a * _det(ctx, [row[:j] + row[j + 1 :] for row in grid[1:]])
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class MatrixFactorization:
    """A pair (phi, psi) of square matrices with phi psi = psi phi = w * id."""

    __slots__ = ("ctx", "potential", "rank", "phi", "psi")

    def __init__(self, ctx: RingCtx, potential: Series, phi: RMatrix, psi: RMatrix):
        if potential.ctx != ctx or phi.ctx != ctx or psi.ctx != ctx:
            raise ContextMismatchError("factorization data context mismatch")
        if not (phi.rows == phi.cols == psi.rows == psi.cols):
            raise PreconditionError("phi and psi must be square of equal size")
        self.ctx = ctx
        self.potential = potential
        self.rank = phi.rows
        self.phi = phi
        self.psi = psi

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFactorization)
            and self.ctx == other.ctx
            and self.potential == other.potential
            and self.phi == other.phi
            and self.psi == other.psi
        )


def verify_mf(mf: MatrixFactorization) -> bool:
    """True iff phi psi = psi phi = potential * id holds exactly."""
    return verify_mf_report(mf)[0]


def verify_mf_report(mf: MatrixFactorization):
    """(ok, offending (product, i, j) or None), for CLI diagnostics: the
    first entry (i, j) in row-major order where the product is not w * id."""
    w_id = RMatrix.scalar(mf.ctx, mf.rank, mf.potential)
    for label, prod in (("phi*psi", mf.phi * mf.psi), ("psi*phi", mf.psi * mf.phi)):
        wrong = [(j, i) for i, col in enumerate((prod - w_id).columns) for j, _, _ in col]
        if wrong:
            return False, (label, *min(wrong))
    return True, None


def trivial_mf(ctx: RingCtx, w: Series) -> MatrixFactorization:
    """The contractible rank-1 factorization (1, w)."""
    one = RMatrix.identity(ctx, 1)
    return MatrixFactorization(ctx, w, one, RMatrix(ctx, [[w]]))


def shift(mf: MatrixFactorization) -> MatrixFactorization:
    return MatrixFactorization(mf.ctx, mf.potential, -mf.psi, -mf.phi)


def shift_power(mf: MatrixFactorization, eps: int) -> MatrixFactorization:
    return shift(mf) if eps % 2 else mf


def dual(mf: MatrixFactorization) -> MatrixFactorization:
    """Dual factorization, an object over the opposite-sign potential."""
    return MatrixFactorization(
        mf.ctx, -mf.potential, mf.psi.transpose(), -mf.phi.transpose()
    )


def _block(ctx, tl, tr, bl, br) -> RMatrix:
    """The 2 x 2 block matrix [[tl, tr], [bl, br]]."""

    def stacked(top, bottom):
        shift = top.rows
        return [t + [(j + shift, exp, c) for j, exp, c in b] for t, b in zip(top.columns, bottom.columns)]

    return RMatrix.from_columns(ctx, tl.rows + bl.rows, stacked(tl, bl) + stacked(tr, br))


def direct_sum(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    if a.ctx != b.ctx:
        raise ContextMismatchError("direct sum across different contexts")
    if a.potential != b.potential:
        raise PreconditionError("direct sum requires equal potentials")
    z_ab = RMatrix.zero(a.ctx, a.rank, b.rank)
    z_ba = RMatrix.zero(a.ctx, b.rank, a.rank)
    phi = _block(a.ctx, a.phi, z_ab, z_ba, b.phi)
    psi = _block(a.ctx, a.psi, z_ab, z_ba, b.psi)
    return MatrixFactorization(a.ctx, a.potential, phi, psi)


class MFMorphism:
    """Morphism of factorizations over a shared potential.

    Even parity: a: X0 -> Y0 and b: X1 -> Y1. Odd parity: a: X0 -> Y1 and
    b: X1 -> Y0. Closedness is d_Y f - (-1)^|f| f d_X = 0. Both a and b
    are target.rank x source.rank (else PreconditionError).
    """

    __slots__ = ("source", "target", "parity", "a", "b")

    def __init__(self, source, target, parity, a, b, check_closed=False):
        if source.ctx != target.ctx:
            raise ContextMismatchError("morphism endpoints in different contexts")
        if source.potential != target.potential:
            raise PreconditionError("morphism endpoints must share the potential")
        if parity not in ("even", "odd"):
            raise PreconditionError("parity must be 'even' or 'odd'")
        for name, m in (("a", a), ("b", b)):
            if (m.rows, m.cols) != (target.rank, source.rank):
                raise PreconditionError(
                    f"morphism matrix {name} is {m.rows}x{m.cols}, "
                    f"not target rank x source rank = {target.rank}x{source.rank}"
                )
        self.source = source
        self.target = target
        self.parity = parity
        self.a = a
        self.b = b
        if check_closed and not self.is_closed():
            raise VerificationError("morphism is not closed")

    def is_closed(self) -> bool:
        X, Y = self.source, self.target
        if self.parity == "even":
            return Y.phi * self.b == self.a * X.phi and Y.psi * self.a == self.b * X.psi
        return (
            (Y.phi * self.a + self.b * X.psi).is_zero()
            and (Y.psi * self.b + self.a * X.phi).is_zero()
        )

    @staticmethod
    def identity(mf: MatrixFactorization) -> "MFMorphism":
        eye = RMatrix.identity(mf.ctx, mf.rank)
        return MFMorphism(mf, mf, "even", eye, eye)

    @staticmethod
    def zero(source, target) -> "MFMorphism":
        return MFMorphism(
            source,
            target,
            "even",
            RMatrix.zero(source.ctx, target.rank, source.rank),
            RMatrix.zero(source.ctx, target.rank, source.rank),
        )

    @staticmethod
    def scalar(mf: MatrixFactorization, s: Series) -> "MFMorphism":
        m = RMatrix.scalar(mf.ctx, mf.rank, s)
        return MFMorphism(mf, mf, "even", m, m)

    @staticmethod
    def inclusion_first(summand, total) -> "MFMorphism":
        """Inclusion of X into X (+) Y built by direct_sum."""
        eye = RMatrix.identity(summand.ctx, summand.rank)
        inc = RMatrix.from_columns(summand.ctx, total.rank, eye.columns)
        return MFMorphism(summand, total, "even", inc, inc)


def cone(f: MFMorphism) -> MatrixFactorization:
    """Mapping cone of a closed even morphism; rank adds, d^2 = w holds."""
    if f.parity != "even":
        raise PreconditionError("cone is defined for even morphisms")
    if not f.is_closed():
        raise VerificationError("cone of a non-closed morphism")
    X, Y = f.source, f.target
    ctx = X.ctx
    z_xy = RMatrix.zero(ctx, X.rank, Y.rank)
    # cone even = X1 ++ Y0, cone odd = X0 ++ Y1
    phi_c = _block(ctx, -X.psi, z_xy, f.a, Y.phi)
    psi_c = _block(ctx, -X.phi, z_xy, f.b, Y.psi)
    return MatrixFactorization(ctx, X.potential, phi_c, psi_c)


# -- graded tensor over the ground field ---------------------------------------


def _combined_ctx(cx: RingCtx, cy: RingCtx) -> RingCtx:
    if cx.field != cy.field:
        raise ContextMismatchError("tensor factors over different fields")
    names = list(cx.names)
    for n in cy.names:
        fresh = n
        while fresh in names:
            fresh += "'"
        names.append(fresh)
    return RingCtx(tuple(names), cx.field)


def _columns(mf: MatrixFactorization):
    """The column terms of d by source parity: (psi's, phi's)."""
    return mf.psi.columns, mf.phi.columns


def _tensor_columns(x, y, rx, ry, field):
    """Column terms (by source parity, as `_columns` gives them) of the graded
    tensor differential of X and Y, given the same way, in the frozen basis
    order.

    The vector e_a (x) f_b with f_b of parity k sits at k * N + a * ry + b,
    N = rx * ry, in its parity p. Its image d_X e_a (x) f_b + (-1)^|e_a|
    e_a (x) d_Y f_b has the X terms in block k and the Y terms in block 1 - k
    of parity 1 - p. Each term of X and Y is placed once per basis vector of
    the other factor; nothing is summed, since the two kinds of term land in
    different blocks.
    """
    n = rx * ry
    out = ([], [])
    for p in (0, 1):
        for k in (0, 1):
            x_cols, y_cols = x[p ^ k], y[k]
            if p ^ k:
                y_cols = [[(j, exp, field.neg(c)) for j, exp, c in col] for col in y_cols]
            for a in range(rx):
                for b in range(ry):
                    out[p].append(
                        [(k * n + j * ry + b, exp, c) for j, exp, c in x_cols[a]]
                        + [((1 - k) * n + a * ry + j, exp, c) for j, exp, c in y_cols[b]]
                    )
    return out


def external_tensor(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    """Graded tensor of factorizations, over the sum of the potentials."""
    ctx = _combined_ctx(x.ctx, y.ctx)
    nx, ny = x.ctx.n_vars, y.ctx.n_vars

    def lifted(mf, before, after):
        # the terms of mf in the combined ring: its variables sit after `before` others
        pad, tail = (0,) * before, (0,) * after
        lift = lambda cols: [[(j, pad + exp + tail, c) for j, exp, c in col] for col in cols]
        return tuple(map(lift, _columns(mf)))

    w = x.potential.relabel(ctx, range(nx)) + y.potential.relabel(ctx, range(nx, nx + ny))
    columns = _tensor_columns(lifted(x, 0, ny), lifted(y, nx, 0), x.rank, y.rank, ctx.field)
    psi, phi = (RMatrix.from_columns(ctx, len(cols), cols) for cols in columns)
    return MatrixFactorization(ctx, w, phi, psi)
