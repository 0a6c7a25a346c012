"""Fractional ideals of orders in K and the colon/index calculus.

A fractional ideal is stored as an HNF numerator matrix over A (columns
are A-generators in the power basis) plus a monic denominator, with the
common content stripped; equality of ideals is equality of these
normalized representations.  Every local object downstream is represented
by such a global lattice.
"""

from .errors import InputError, NotContained
from .fqpoly import FqPoly, poly_lcm, gcd_list
from .context import KElement, memoized
from . import amatrix


class FracIdeal:
    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        F = ctx.field
        lead = den.lead()
        if lead != 1:
            c = FqPoly.const(F, F.inv(lead))
            num = [[e * c for e in row] for row in num]
            den = den.monic()
        h = amatrix.hnf([list(row) for row in num])
        entries = [e for row in h for e in row if not e.is_zero()]
        g = gcd_list([den] + entries, F)
        if not (g.is_one() or g.is_zero()):
            h = [[e.exact_div(g) if not e.is_zero() else e for e in row]
                 for row in h]
            den = den.exact_div(g)
        self.ctx = ctx
        self.num = tuple(tuple(row) for row in h)
        self.den = den

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_columns(ctx, columns, den):
        """Lattice spanned over A by the given numerator columns / den."""
        r = ctx.r
        mat = [[columns[j][i] for j in range(len(columns))] for i in range(r)]
        return FracIdeal(ctx, mat, den)

    @staticmethod
    def from_elements(ctx, elements):
        """Smallest R-module containing the given elements of K.

        R here is the monogenic base order: the lattice is spanned by
        z * pi^k over all generators z and 0 <= k < r.
        """
        den = FqPoly.one(ctx.field)
        for z in elements:
            den = poly_lcm(den, z.den)
        cols = []
        for z in elements:
            scale = den.exact_div(z.den)
            base = tuple(c * scale for c in z.num)
            for k in range(ctx.r):
                cols.append(ctx.mult_vectors(base, ctx.power_vectors[k]))
        return FracIdeal.from_columns(ctx, cols, den)

    @staticmethod
    @memoized
    def unit_ideal(ctx):
        """The monogenic order R = A[pi] as a lattice."""
        return FracIdeal(ctx, amatrix.mat_identity(ctx.field, ctx.r),
                         FqPoly.one(ctx.field))

    # -- structure ----------------------------------------------------------

    def basis_columns(self):
        r = self.ctx.r
        return [tuple(self.num[i][j] for i in range(r)) for j in range(r)]

    def basis_elements(self):
        return [KElement(self.ctx, col, self.den) for col in self.basis_columns()]

    def __eq__(self, other):
        return (isinstance(other, FracIdeal) and self.ctx is other.ctx
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def covolume(self):
        """deg det of an A-basis, read off the HNF diagonal, so that
        deg [L:M] = M.covolume() - L.covolume() for M <= L."""
        diagonal = sum(int(row[i].degree) for i, row in enumerate(self.num))
        return diagonal - self.ctx.r * int(self.den.degree)

    def canonical_key(self):
        """Deterministic sort key (degree-graded encoding of the HNF)."""
        enc = []
        for row in self.num:
            for e in row:
                enc.append((len(e.coeffs), e.coeffs))
        return (len(self.den.coeffs), self.den.coeffs, tuple(enc))

    # -- membership ---------------------------------------------------------

    def coordinates(self, vec, vden):
        """Coordinates x over A of vec / vden in the basis of self, or None
        when it lies outside the lattice: y = vden x solves num y = vec den,
        and x is y divided exactly by vden."""
        y = amatrix.solve_upper_triangular(self.num, [v * self.den for v in vec])
        if y is None:
            return None
        x = [e.divmod(vden) for e in y]
        return None if any(rem for _, rem in x) else [q for q, _ in x]

    def contains_vector(self, vec, vden):
        """Is (vec / vden) in the lattice?"""
        return self.coordinates(vec, vden) is not None

    def contains_element(self, z):
        return self.contains_vector(z.num, z.den)

    def contains_one(self):
        return self.contains_element(KElement.one(self.ctx))

    def contains(self, other):
        """other subseteq self."""
        return all(self.contains_vector(col, other.den)
                   for col in other.basis_columns())

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check_ctx(other)
        D = poly_lcm(self.den, other.den)
        a = D.exact_div(self.den)
        b = D.exact_div(other.den)
        cols = [tuple(e * a for e in col) for col in self.basis_columns()]
        cols += [tuple(e * b for e in col) for col in other.basis_columns()]
        return FracIdeal.from_columns(self.ctx, cols, D)

    def __mul__(self, other):
        if isinstance(other, KElement):
            return self.scale(other)
        self._check_ctx(other)
        ctx = self.ctx
        cols = []
        for u in self.basis_columns():
            for v in other.basis_columns():
                cols.append(ctx.mult_vectors(u, v))
        return FracIdeal.from_columns(ctx, cols, self.den * other.den)

    def scale(self, z):
        """z * I for a nonzero element z of K."""
        if z.is_zero():
            raise InputError("cannot scale an ideal by zero")
        ctx = self.ctx
        cols = [ctx.mult_vectors(z.num, col) for col in self.basis_columns()]
        return FracIdeal.from_columns(ctx, cols, self.den * z.den)

    def intersect(self, other):
        """I cap J = (I* + J*)*: dual is an inclusion-reversing involution
        on full lattices, so it turns sums into intersections."""
        self._check_ctx(other)
        return (self.dual() + other.dual()).dual()

    def dual(self):
        """I* = {v in K^r : u.v in A for every u in I}, where u.v is the
        coordinate pairing of the power basis.

        For I = H A^r / d this is d H^{-T} A^r.  With delta the product of
        the pivots of H, delta H^{-T} is the transposed adjugate of H, so
        forward substitution on the lower-triangular H^T divides exactly.
        """
        r = self.ctx.r
        h = self.num
        zero = FqPoly.zero(self.ctx.field)
        delta = FqPoly.one(self.ctx.field)
        for i in range(r):
            delta = delta * h[i][i]
        cols = []
        for k in range(r):
            x = [zero] * r
            x[k] = delta.exact_div(h[k][k])
            for i in range(k + 1, r):
                acc = zero
                for j in range(k, i):
                    acc = acc + h[j][i] * x[j]
                x[i] = (-acc).exact_div(h[i][i])
            cols.append(tuple(e * self.den for e in x))
        return FracIdeal.from_columns(self.ctx, cols, delta)

    def colon(self, other):
        """(self : other) = {z in K : z * other subseteq self}.

        z * b lies in I exactly when y.(z * b) = (M_b^T y).z lies in A for
        every y in I*, with M_b the matrix of multiplication by b.  So
        (I:J) is the dual of the lattice spanned by M_b^T y over the
        generators b of J and y of I*.
        """
        self._check_ctx(other)
        ctx = self.ctx
        dual = self.dual()
        ys = dual.basis_columns()
        cols = []
        for b in other.basis_columns():
            # the columns of M_b: b * pi^j
            images = [ctx.mult_vectors(b, pv) for pv in ctx.power_vectors]
            for y in ys:
                cols.append(tuple(_dot(m, y) for m in images))
        return FracIdeal.from_columns(ctx, cols, dual.den * other.den).dual()

    def change_of_basis(self, sub):
        """Matrix X over A with (basis of sub) = (basis of self) * X.

        Raises NotContained, naming a generator of sub, unless sub lies in
        self.
        """
        self._check_ctx(sub)
        r = self.ctx.r
        x_cols = []
        for col in sub.basis_columns():
            sol = self.coordinates(col, sub.den)
            if sol is None:
                witness = KElement(self.ctx, col, sub.den)
                raise NotContained(
                    f"generator {witness.to_str()} lies outside the bigger lattice")
            x_cols.append(sol)
        return [[x_cols[j][i] for j in range(r)] for i in range(r)]

    def index_in(self, sub):
        """[self : sub] for sub subseteq self, as a monic element of A.

        The index ideal is generated by the determinant of the
        change-of-basis matrix.
        """
        return amatrix.det(self.change_of_basis(sub)).monic()

    def _check_ctx(self, other):
        if self.ctx is not other.ctx:
            raise InputError("ideals belong to different algebra contexts")

    # -- io -------------------------------------------------------------------

    def to_json_dict(self):
        tvar = self.ctx.tvar
        return {
            "den": self.den.to_str(tvar),
            "num": [[e.to_str(tvar) for e in row] for row in self.num],
        }

    def __repr__(self):
        return f"FracIdeal(den={self.den.to_str()}, num={self.num})"


def _dot(u, v):
    acc = FqPoly.zero(u[0].field)
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


class Order:
    """An A-order in K, wrapped around its lattice."""

    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal

    @staticmethod
    def monogenic(ctx):
        """R = A[x]/f with the power basis."""
        return Order(FracIdeal.unit_ideal(ctx))

    @property
    def ctx(self):
        return self.ideal.ctx

    def basis_elements(self):
        return self.ideal.basis_elements()

    def __eq__(self, other):
        return isinstance(other, Order) and self.ideal == other.ideal

    def __hash__(self):
        return hash(self.ideal)

    def canonical_key(self):
        return self.ideal.canonical_key()

    def to_json_dict(self):
        return self.ideal.to_json_dict()

    def __repr__(self):
        return f"Order({self.ideal!r})"
