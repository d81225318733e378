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
"""

from __future__ import annotations

from .errors import ContextMismatchError, PreconditionError, VerificationError
from .series import RingCtx, Series


class RMatrix:
    """Dense matrix with Series entries, all sharing one context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: RingCtx, entries):
        self.ctx = ctx
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise PreconditionError("ragged matrix")
            for e in row:
                if e.ctx != ctx:
                    raise ContextMismatchError("matrix entry context mismatch")

    @staticmethod
    def zero(ctx, rows, cols):
        z = Series.zero(ctx)
        return RMatrix(ctx, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(ctx, n):
        z, o = Series.zero(ctx), Series.one(ctx)
        return RMatrix(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(ctx, n, s: Series):
        z = Series.zero(ctx)
        return RMatrix(ctx, [[s if i == j else z for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("shape mismatch in matrix sum")
        return RMatrix(
            self.ctx,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RMatrix(self.ctx, [[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, Series):
            return RMatrix(self.ctx, [[e * other for e in row] for row in self.entries])
        if self.cols != other.rows:
            raise PreconditionError("shape mismatch in matrix product")
        z = Series.zero(self.ctx)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RMatrix(self.ctx, out)

    def transpose(self):
        return RMatrix(
            self.ctx, [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def map_entries(self, fn, new_ctx=None):
        return RMatrix(new_ctx or self.ctx, [[fn(e) for e in row] for row in self.entries])

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def det(self) -> Series:
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Series.one(self.ctx)
        if n == 1:
            return self.entries[0][0]
        acc = Series.zero(self.ctx)
        for j in range(n):
            a = self.entries[0][j]
            if a.is_zero():
                continue
            minor = RMatrix(
                self.ctx,
                [[self.entries[i][k] for k in range(n) if k != j] for i in range(1, n)],
            )
            term = a * minor.det()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def adjugate(self) -> "RMatrix":
        """Transposed cofactor matrix: self * adjugate = det * identity."""
        n = self.rows
        if n != self.cols:
            raise PreconditionError("adjugate of a non-square matrix")
        if n == 1:
            return RMatrix.identity(self.ctx, 1)
        out = RMatrix.zero(self.ctx, n, n)
        for i in range(n):
            for j in range(n):
                minor = RMatrix(
                    self.ctx,
                    [
                        [self.entries[r][c] for c in range(n) if c != j]
                        for r in range(n)
                        if r != i
                    ],
                )
                cof = minor.det()
                out.entries[j][i] = cof if (i + j) % 2 == 0 else -cof
        return RMatrix(self.ctx, out.entries)

    def residue_matrix(self):
        """Constant terms of all entries, as a list of field-scalar rows."""
        return [[e.residue() for e in row] for row in self.entries]


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
    """(ok, offending (product, i, j) or None), for CLI diagnostics."""
    w_id = RMatrix.scalar(mf.ctx, mf.rank, mf.potential)
    for label, prod in (("phi*psi", mf.phi * mf.psi), ("psi*phi", mf.psi * mf.phi)):
        for i in range(mf.rank):
            for j in range(mf.rank):
                if prod.entries[i][j] != w_id.entries[i][j]:
                    return False, (label, i, j)
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
    top = [r1 + r2 for r1, r2 in zip(tl.entries, tr.entries)]
    bot = [r1 + r2 for r1, r2 in zip(bl.entries, br.entries)]
    return RMatrix(ctx, top + bot)


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
    b: X1 -> Y0. Closedness is d_Y f - (-1)^|f| f d_X = 0.
    """

    __slots__ = ("source", "target", "parity", "a", "b")

    def __init__(self, source, target, parity, a, b, check_closed=False):
        if source.ctx != target.ctx:
            raise ContextMismatchError("morphism endpoints in different contexts")
        if source.potential != target.potential:
            raise PreconditionError("morphism endpoints must share the potential")
        if parity not in ("even", "odd"):
            raise PreconditionError("parity must be 'even' or 'odd'")
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
        ctx = summand.ctx
        top = RMatrix.identity(ctx, summand.rank)
        bottom = RMatrix.zero(ctx, total.rank - summand.rank, summand.rank)
        inc = RMatrix(ctx, top.entries + bottom.entries)
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


def _tensor_blocks(xphi, xpsi, yphi, ypsi, ctx, rx, ry):
    """Blocks of the graded tensor differential in the frozen basis order."""
    z = Series.zero(ctx)

    def kron_eye(m, n, m_first, sign=1):
        # m (x) I_n if m_first, else I_n (x) m; each entry of m copied or negated
        out = [[z] * (m.cols * n) for _ in range(m.rows * n)]
        for i, row in enumerate(m.entries):
            for j, e in enumerate(row):
                if e.is_zero():
                    continue
                if sign < 0:
                    e = -e
                for k in range(n):
                    if m_first:
                        out[i * n + k][j * n + k] = e
                    else:
                        out[k * m.rows + i][k * m.cols + j] = e
        return RMatrix(ctx, out)

    phi_xy = _block(
        ctx,
        kron_eye(xphi, ry, True),
        kron_eye(yphi, rx, False),
        kron_eye(ypsi, rx, False, sign=-1),
        kron_eye(xpsi, ry, True),
    )
    psi_xy = _block(
        ctx,
        kron_eye(xpsi, ry, True),
        kron_eye(yphi, rx, False, sign=-1),
        kron_eye(ypsi, rx, False),
        kron_eye(xphi, ry, True),
    )
    return phi_xy, psi_xy


def external_tensor(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    """Graded tensor of factorizations, over the sum of the potentials."""
    ctx = _combined_ctx(x.ctx, y.ctx)
    nx = x.ctx.n_vars
    ny = y.ctx.n_vars
    lift_x = lambda s: s.relabel(ctx, tuple(range(nx)))
    lift_y = lambda s: s.relabel(ctx, tuple(range(nx, nx + ny)))
    xphi = x.phi.map_entries(lift_x, ctx)
    xpsi = x.psi.map_entries(lift_x, ctx)
    yphi = y.phi.map_entries(lift_y, ctx)
    ypsi = y.psi.map_entries(lift_y, ctx)
    w = lift_x(x.potential) + lift_y(y.potential)
    phi_xy, psi_xy = _tensor_blocks(xphi, xpsi, yphi, ypsi, ctx, x.rank, y.rank)
    return MatrixFactorization(ctx, w, phi_xy, psi_xy)
