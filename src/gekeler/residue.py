"""Residue fields A/p for p a monic irreducible of A = F_q[T].

Exposes the same element protocol as gf.GF (zero/one/add/mul/inv/...),
with element values being the coefficient tuples of the canonical
representatives of degree < deg p, which are gpoly polynomials over F_q:
the field operations are gpoly's, reduced mod p.  This lets every generic
polynomial routine run over A/p exactly as it runs over F_q.
"""

from .errors import InputError
from .fqpoly import FqPoly, is_irreducible
from . import gpoly


class ResidueField:
    """The field A/p, |A/p| = q^deg(p)."""

    def __init__(self, p, check=True):
        if check and not (p.is_monic() and is_irreducible(p)):
            raise InputError(f"{p.to_str()} is not a monic irreducible")
        self.base = p.field
        self.p = p
        self.d = int(p.degree)
        self.q = self.base.q ** self.d
        self.order = self.q
        self.char = self.base.p

    # element values: coeff tuples of FqPoly reps reduced mod p

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def lift(self, a):
        return FqPoly(self.base, a)

    def project(self, poly):
        return (poly % self.p).coeffs

    def add(self, a, b):
        return gpoly.add(self.base, a, b)

    def neg(self, a):
        return gpoly.neg(self.base, a)

    def sub(self, a, b):
        return gpoly.sub(self.base, a, b)

    def mul(self, a, b):
        prod = gpoly.mul(self.base, a, b)
        if len(prod) <= self.d:
            return prod
        return gpoly.rem(self.base, prod, self.p.coeffs)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in residue field")
        g, u, _ = gpoly.xgcd(self.base, a, self.p.coeffs)
        if g != (1,):  # pragma: no cover - p is irreducible
            raise ZeroDivisionError("non-invertible residue")
        return u

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def element(self, n):
        """The n-th element in ``elements()`` order: base-q digits of n."""
        q = self.base.q
        coeffs = []
        for _ in range(self.d):
            coeffs.append(n % q)
            n //= q
        return gpoly.normalize(coeffs)

    def elements(self):
        return map(self.element, range(self.q))

    def from_int(self, n):
        c = self.base.from_int(n)
        return (c,) if c else ()

    def element_str(self, a):
        return self.lift(a).to_str()

    def __repr__(self):
        return f"ResidueField({self.p.to_str()})"

    def __hash__(self):
        return hash((self.base, self.p.coeffs))

    def __eq__(self, other):
        return (isinstance(other, ResidueField) and self.base is other.base
                and self.p == other.p)
