"""Bivariate polynomials f(T, x) in A[x], A = F_q[T], stored by x-degree.

These carry the defining polynomials of the orders under study.  Only the
operations the pipeline needs are provided: ring arithmetic, division by
a divisor monic in x and the x-derivative, all run by gpoly over
fqpoly.poly_ring, then reduction mod a prime of A, the resultant-based
discriminant, the rescaled model at infinity, and coefficient maps into
extension fields.
"""

from .errors import InputError, InseparableError
from .fqpoly import FqPoly, poly_ring
from .residue import ResidueField
from . import amatrix, gpoly


class BiPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @staticmethod
    def zero(field):
        return BiPoly(field, ())

    @staticmethod
    def one(field):
        return BiPoly(field, (FqPoly.one(field),))

    @staticmethod
    def const(c):
        return BiPoly(c.field, (c,))

    @property
    def deg_x(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return FqPoly.zero(self.field)

    def is_zero(self):
        return not self.coeffs

    def is_monic_in_x(self):
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def max_coeff_degree(self):
        degs = [c.degree for c in self.coeffs if not c.is_zero()]
        return max(degs) if degs else -1

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        return BiPoly(self.field, gpoly.add(poly_ring(self.field), self.coeffs,
                                            other.coeffs))

    def __neg__(self):
        return BiPoly(self.field, gpoly.neg(poly_ring(self.field), self.coeffs))

    def __sub__(self, other):
        return BiPoly(self.field, gpoly.sub(poly_ring(self.field), self.coeffs,
                                            other.coeffs))

    def __mul__(self, other):
        return BiPoly(self.field, gpoly.mul(poly_ring(self.field), self.coeffs,
                                            other.coeffs))

    def scale(self, c):
        return BiPoly(self.field, gpoly.scale(poly_ring(self.field), self.coeffs, c))

    def divmod_monic(self, other):
        """Division by a divisor monic in x; stays inside A[x]."""
        if not other.is_monic_in_x():
            raise InputError("bivariate division needs a divisor monic in x")
        quot, rem = gpoly.divmod_poly(poly_ring(self.field), self.coeffs,
                                      other.coeffs)
        return BiPoly(self.field, quot), BiPoly(self.field, rem)

    def derivative_x(self):
        return BiPoly(self.field, gpoly.derivative(poly_ring(self.field),
                                                   self.coeffs))

    def reduce_mod(self, p):
        """Image in (A/p)[x] as a generic coefficient list."""
        R = ResidueField(p, check=False)
        return R, [(c % p).coeffs for c in self.coeffs]

    def reduce_coeffs_mod(self, modulus):
        return BiPoly(self.field, [c % modulus for c in self.coeffs])

    def map_coefficients(self, fn, new_field):
        out = []
        for c in self.coeffs:
            out.append(FqPoly(new_field, [fn(e) for e in c.coeffs]))
        return BiPoly(new_field, out)

    def to_str(self, tvar="T", xvar="x"):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(c.to_str(tvar))
                continue
            xs = xvar if i == 1 else f"{xvar}^{i}"
            if c.is_one():
                parts.append(xs)
            elif c.is_constant() and "+" not in c.to_str(tvar):
                parts.append(f"{c.to_str(tvar)}*{xs}")
            else:
                parts.append(f"({c.to_str(tvar)})*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self.to_str()})"


def resultant_x(f, g):
    """res_x(f, g) in A via the Sylvester matrix."""
    n, m = f.deg_x, g.deg_x
    if n < 0 or m < 0:
        return FqPoly.zero(f.field)
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    field = f.field
    z = FqPoly.zero(field)
    size = n + m
    rows = []
    for i in range(m):
        row = [z] * size
        for j in range(n + 1):
            row[i + j] = f.coeffs[n - j]
        rows.append(row)
    for i in range(n):
        row = [z] * size
        for j in range(m + 1):
            row[i + j] = g.coeffs[m - j]
        rows.append(row)
    return amatrix.det(rows)


def discriminant(f):
    """Monic associate of disc(f) = res_x(f, df/dx); f must be separable."""
    fx = f.derivative_x()
    if fx.is_zero():
        raise InseparableError()
    d = resultant_x(f, fx)
    if d.is_zero():
        raise InseparableError(
            "f has a repeated factor (disc = 0); it is reducible or inseparable")
    return d.monic()


def infinity_model(f):
    """Monic integral model at infinity.

    Substitutes T = 1/U and y = U^e x with the least e making every
    coefficient polynomial in U; returns (g, e) with g in F_q[U][y] monic
    in y of the same degree.
    """
    r = f.deg_x
    if r < 1 or not f.is_monic_in_x():
        raise InputError("infinity model needs f monic in x")
    field = f.field
    e = 0
    for i in range(r):
        c = f.coeffs[i] if i < len(f.coeffs) else FqPoly.zero(field)
        if c.is_zero():
            continue
        d = int(c.degree)
        need = -(-d // (r - i))  # ceil
        e = max(e, need)
    out = []
    for i in range(r + 1):
        c = f.coeff(i)
        # coefficient of y^i is U^((r-i)e) * c(1/U)
        shift = (r - i) * e
        coeffs = [0] * (shift + 1)
        for j, cj in enumerate(c.coeffs):
            coeffs[shift - j] = cj
        out.append(FqPoly(field, coeffs))
    return BiPoly(field, out), e
