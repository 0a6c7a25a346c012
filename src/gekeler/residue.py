"""Residue fields A/p for p a monic irreducible of A = F_q[T].

Both classes expose the same element protocol as gf.GF
(zero/one/add/mul/inv/...), plus lift into A and project from A, so that
every generic polynomial routine runs over A/p exactly as it runs over
F_q.  `residue_field(p)` picks the class.  At a prime p = T - c of degree
1, A/p is F_q itself through T -> c: the elements are the ints of the
base field, every operation is the base field's own, and projecting a
polynomial evaluates it at c.  At a prime of degree >= 2, ResidueField's
element values are the coefficient tuples of the canonical
representatives of degree < deg p, which are gpoly polynomials over F_q:
the field operations are gpoly's, reduced mod p, and a power is gpoly's
powmod mod p.  The int c of F_q and the tuple (c,) sort alike under
gpoly.elt_key, and element(n) is the same n-th element in both, so the
two classes factor alike at a degree-1 prime.
"""

from .fqpoly import FqPoly
from . import gpoly


class ResidueField:
    """The field A/p, |A/p| = q^deg(p); the caller has proved p irreducible."""

    def __init__(self, p):
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
            a, n = self.inv(a), -n
        return gpoly.powmod(self.base, a, n, self.p.coeffs)

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


class LinearResidueField:
    """The field A/p for a prime p = T - c of degree 1: F_q, with T -> c."""

    def __init__(self, p):
        base = self.base = p.field
        self.p = p
        self.order, self.char = base.q, base.p
        self.c = base.neg(p.coeffs[0])
        self.zero, self.one = base.zero, base.one
        self.add, self.neg, self.sub = base.add, base.neg, base.sub
        self.mul, self.inv, self.pow = base.mul, base.inv, base.pow
        self.element, self.elements = base.element, base.elements
        self.from_int, self.element_str = base.from_int, base.element_str

    def lift(self, a):
        return FqPoly(self.base, (a,))

    def project(self, poly):
        return gpoly.eval_poly(self.base, poly.coeffs, self.c)

    def __repr__(self):
        return f"LinearResidueField({self.p.to_str()})"


def residue_field(p):
    """A/p for a monic irreducible p: F_q itself when deg p = 1."""
    return LinearResidueField(p) if p.degree == 1 else ResidueField(p)
