"""Algebra context for K = Frac(A[x]/f) and exact elements of K.

The context fixes q and an irreducible f monic in x of degree r and the
power sums needed for traces.  Elements of K are numerator coordinate
vectors over A in the power basis 1, pi, ..., pi^(r-1) together with a
monic denominator.  A product in K is a product in A[x] followed by the
remainder mod f, both run by gpoly over fqpoly.poly_ring.
"""

from .errors import InputError, ReducibleError, InseparableError
from .fqpoly import FqPoly, gcd_list, poly_ring
from .bifactor import is_irreducible_bivariate
from . import gpoly


class AlgebraContext:
    def __init__(self, field, f, seed=0, check=True, tvar="T", xvar="x"):
        if f.deg_x < 1:
            raise InputError("f must have degree >= 1 in x")
        if not f.is_monic_in_x():
            raise InputError("f must be monic in x")
        self.field = field
        self.ring = poly_ring(field)
        self.f = f
        self.r = f.deg_x
        self.seed = seed
        self.tvar = tvar
        self.xvar = xvar
        self.separable = not f.derivative_x().is_zero()
        # results derived from f (orders, splittings, places), keyed by kind
        self.cache = {}
        if check and not is_irreducible_bivariate(f, seed=seed):
            raise ReducibleError(f"f = {f.to_str(tvar, xvar)} is reducible over "
                                 f"F_{field.q}({tvar})")
        zero, one = self.ring.zero(), self.ring.one()
        # the power basis 1, pi, ..., pi^(r-1) as unit vectors
        self.power_vectors = tuple(
            tuple(one if i == k else zero for i in range(self.r))
            for k in range(self.r))
        self._build_trace_table()

    def _build_trace_table(self):
        # Newton's identities give s_k = Tr(pi^k) from the coefficients of f.
        r = self.r
        F = self.field
        c = [self.f.coeff(i) for i in range(r)]  # f = x^r + c_{r-1}x^{r-1}+...+c_0
        s = [FqPoly.const(F, F.from_int(r))]
        for k in range(1, 2 * r - 1):
            acc = FqPoly.zero(F)
            for i in range(1, min(k - 1, r) + 1):
                acc = acc + c[r - i] * s[k - i]
            if k <= r:
                acc = acc + c[r - k].scale(k % F.p)
            s.append(-acc)
        self.trace_powers = s

    def eval_at_pi(self, g):
        """Numerator vector of g(pi) for the x-coefficients g of an element
        of A[x]: its remainder mod the monic f, padded to length r."""
        out = gpoly.rem(self.ring, g, self.f.coeffs)
        return out + (self.ring.zero(),) * (self.r - len(out))

    def mult_vectors(self, u, v):
        """Product of two numerator vectors in the power basis."""
        return self.eval_at_pi(gpoly.mul(self.ring, u, v))

    def trace_of_vector(self, vec):
        """Trace of the element with numerator vector vec (denominator 1)."""
        F = self.field
        out = FqPoly.zero(F)
        for k, c in enumerate(vec):
            if not c.is_zero():
                out = out + c * self.trace_powers[k]
        return out

    def require_separable(self):
        if not self.separable:
            raise InseparableError()

    def __repr__(self):
        return (f"AlgebraContext(q={self.field.q}, "
                f"f={self.f.to_str(self.tvar, self.xvar)})")


class KElement:
    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=None, normalize=True):
        F = ctx.field
        if den is None:
            den = FqPoly.one(F)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in K")
        if normalize:
            lead = den.lead()
            if lead != 1:
                c = FqPoly.const(F, F.inv(lead))
                num = tuple(n * c for n in num)
                den = den.monic()
            g = gcd_list([den, *num], F)
            if not g.is_one() and not g.is_zero():
                num = tuple(n.exact_div(g) for n in num)
                den = den.exact_div(g)
        self.ctx = ctx
        self.num = tuple(num)
        self.den = den

    @staticmethod
    def zero(ctx):
        z = FqPoly.zero(ctx.field)
        return KElement(ctx, tuple(z for _ in range(ctx.r)), normalize=False)

    @staticmethod
    def one(ctx):
        F = ctx.field
        vec = [FqPoly.zero(F)] * ctx.r
        vec[0] = FqPoly.one(F)
        return KElement(ctx, tuple(vec), normalize=False)

    @staticmethod
    def gen(ctx):
        """pi, the class of x."""
        x = (ctx.ring.zero(), ctx.ring.one())
        return KElement(ctx, ctx.eval_at_pi(x), normalize=False)

    @staticmethod
    def from_fqpoly(ctx, c):
        vec = [FqPoly.zero(ctx.field)] * ctx.r
        vec[0] = c
        return KElement(ctx, tuple(vec))

    def is_zero(self):
        return all(c.is_zero() for c in self.num)

    def __eq__(self, other):
        return (isinstance(other, KElement) and self.ctx is other.ctx
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        a, b = self, other
        num = tuple(a.num[i] * b.den + b.num[i] * a.den for i in range(a.ctx.r))
        return KElement(a.ctx, num, a.den * b.den)

    def __neg__(self):
        return KElement(self.ctx, tuple(-c for c in self.num), self.den,
                        normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ctx = self.ctx
        num = ctx.mult_vectors(self.num, other.num)
        return KElement(ctx, num, self.den * other.den)

    def trace(self):
        """Tr_{K/F}; returns (numerator poly, denominator poly)."""
        t = self.ctx.trace_of_vector(self.num)
        return t, self.den

    def to_str(self):
        ctx = self.ctx
        terms = []
        for i, c in enumerate(self.num):
            if c.is_zero():
                continue
            base = "1" if i == 0 else (ctx.xvar if i == 1 else f"{ctx.xvar}^{i}")
            cs = c.to_str(ctx.tvar)
            if i == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append(base)
            else:
                terms.append(f"({cs})*{base}")
        num = " + ".join(terms) if terms else "0"
        if self.den.is_one():
            return num
        return f"({num}) / ({self.den.to_str(ctx.tvar)})"

    def __repr__(self):
        return f"KElement({self.to_str()})"
