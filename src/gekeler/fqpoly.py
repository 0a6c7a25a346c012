"""Dense univariate polynomials over a finite field.

The coefficient tuple lists coefficients by increasing degree; the zero
polynomial is the empty tuple and its degree is the sentinel NEG_INF,
which compares below every integer so degree bounds never need a special
case.  Values are immutable and hashable.  The arithmetic is gpoly's: an
operator whose answer is an operand (x + 0, x - 0, x * 1, 0 * x, 0 // b,
x // 1, x % b for deg x < deg b) returns it at once; any other passes
the coefficient tuples to gpoly and wraps the normalised tuple it returns
without scanning or copying it again.  The extended gcd and modular
powers are gpoly.xgcd and gpoly.powmod, on coefficient tuples.
"""

import functools
import itertools
import operator

from .errors import BudgetExceeded, InputError
from . import gpoly

NEG_INF = float("-inf")
SIEVE_LIMIT = 2 ** 20   # candidates one sieve may hold, bounding its memory


class FqPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = gpoly.normalize(coeffs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field):
        return FqPoly(field, ())

    @staticmethod
    def one(field):
        return FqPoly(field, (1,))

    @staticmethod
    def const(field, c):
        return FqPoly(field, (c,))

    @staticmethod
    def gen(field):
        """The variable itself (T)."""
        return FqPoly(field, (0, 1))

    # -- basic structure --------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lead(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return _wrap(self.field, gpoly.add(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        return _wrap(self.field, gpoly.neg(self.field, self.coeffs))

    def __sub__(self, other):
        if not other.coeffs:
            return self
        return _wrap(self.field, gpoly.sub(self.field, self.coeffs, other.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or b == (1,):
            return self
        if not b or a == (1,):
            return other
        return _wrap(self.field, gpoly.mul(self.field, a, b))

    def scale(self, c):
        return _wrap(self.field, gpoly.scale(self.field, self.coeffs, c))

    def shift(self, k):
        """Multiply by T^k."""
        if not self.coeffs:
            return self
        return _wrap(self.field, (0,) * k + self.coeffs)

    def __pow__(self, n):
        out = FqPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other):
        a, b = self.coeffs, other.coeffs
        if b == (1,):
            return self, _wrap(self.field, ())
        if len(a) < len(b):   # deg a < deg b, so b != 0
            return (_wrap(self.field, ()) if a else self), self
        quot, rem = gpoly.divmod_poly(self.field, a, b)
        return _wrap(self.field, quot), _wrap(self.field, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InputError("division is not exact")
        return q

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return _wrap(self.field, gpoly.monic(self.field, self.coeffs))

    # -- rendering --------------------------------------------------------

    def to_str(self, var="T"):
        F = self.field
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            cs = F.element_str(c)
            if i == 0:
                terms.append(cs if F.e == 1 else f"({cs})" if ("+" in cs) else cs)
                continue
            v = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                terms.append(v)
            elif F.e > 1 and ("+" in cs or cs.startswith("a")):
                terms.append(f"({cs})*{v}")
            else:
                terms.append(f"{cs}*{v}")
        return " + ".join(terms)

    def __repr__(self):
        return f"FqPoly({self.to_str()})"


def _wrap(field, coeffs):
    """FqPoly around a gpoly result, which is already a normalised tuple."""
    out = object.__new__(FqPoly)
    out.field = field
    out.coeffs = coeffs
    return out


class PolyRing:
    """A = F_q[T] under gpoly's element protocol, with FqPoly elements.

    gpoly runs over it to give A[x].  It has no inv: A[x] is only ever
    divided by divisors monic in x, which gpoly never inverts.
    """

    add, sub, neg, mul = operator.add, operator.sub, operator.neg, operator.mul

    def __init__(self, field):
        self.field = field
        self.char = field.char

    def zero(self):
        return _wrap(self.field, ())

    def one(self):
        return _wrap(self.field, (1,))

    def from_int(self, n):
        return FqPoly(self.field, (self.field.from_int(n),))


@functools.cache
def poly_ring(field):
    """The shared PolyRing of F_q[T] over the given field."""
    return PolyRing(field)


def poly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    return _wrap(a.field, gpoly.gcd(a.field, a.coeffs, b.coeffs))


def poly_lcm(a, b):
    if a.is_zero() or b.is_zero():
        return FqPoly.zero(a.field)
    g = poly_gcd(a, b)
    return (a * b).exact_div(g).monic()


def gcd_list(polys, field):
    """Monic gcd of the polys, 0 when none is nonzero; it starts from the
    first nonzero one and stops at 1."""
    g = FqPoly.zero(field)
    for p in polys:
        if p:
            g = poly_gcd(g, p) if g else p.monic()
            if g.is_one():
                return g
    return g


def is_irreducible(f):
    """Rabin irreducibility test for a nonconstant polynomial over F_q."""
    return gpoly.is_irreducible(f.field, f.coeffs)


def monic_irreducibles(field, degree):
    """An iterator over the monic irreducibles of the given degree, in
    encoding order; they are sieved once per field and degree."""
    return iter(_sieve(field, degree))


@functools.cache
def _sieve(field, degree):
    """Strike out each product of a monic irreducible of degree <= degree/2
    with a monic cofactor, indexed by its lower coefficients as base-q digits."""
    q = field.q
    if q ** degree > SIEVE_LIMIT:
        raise BudgetExceeded(f"listing the primes of degree {degree} over F_{q} "
                             f"sieves {q}^{degree} > {SIEVE_LIMIT} polynomials")
    composite = bytearray(q ** degree)
    for d in range(1, degree // 2 + 1):
        cofactors = list(_monics(q, degree - d))
        for p in _sieve(field, d):
            for c in cofactors:
                n = 0
                for coeff in reversed(gpoly.mul(field, p.coeffs, c)[:-1]):
                    n = n * q + coeff
                composite[n] = 1
    return tuple(_wrap(field, c) for n, c in enumerate(_monics(q, degree))
                 if not composite[n])


def _monics(q, degree):
    """The monic polynomials of the given degree, in encoding order."""
    return (c[::-1] + (1,) for c in itertools.product(range(q), repeat=degree))


def poly_order_key(p):
    """Sort key: degree first, then coefficient encoding."""
    return (len(p.coeffs), tuple(reversed(p.coeffs)))
