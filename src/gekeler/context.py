"""Algebra context for K = Frac(A[x]/f) and exact elements of K.

The context fixes q and an irreducible f monic in x of degree r.
Elements of K are numerator coordinate vectors over A in the power basis
1, pi, ..., pi^(r-1) together with a monic denominator.  A product in K
is a product in A[x] followed by the remainder mod f, both run by gpoly
over fqpoly.poly_ring.

The context is the one gate for separability: an f with df/dx = 0 raises
InseparableError before the irreducibility test runs, with or without
check, so every later stage may take K separable over F_q(T).
"""

import contextlib
import functools

from .errors import (InputError, InternalCheckError, ReducibleError,
                     InseparableError)
from .fqpoly import FqPoly, gcd_list, poly_ring
from .bifactor import is_irreducible_bivariate
from . import bipoly, gpoly


def _internal(ctx, stage, what, p=None, error=InternalCheckError):
    """An InternalCheckError, or the given error type, naming the stage and
    instance (q, f) and, when given, the prime p; p may be text."""
    if isinstance(p, FqPoly):
        p = p.to_str(ctx.tvar)
    where = "" if p is None else f", p = {p}"
    return error(f"{stage}: {what} for q = {ctx.field.q}, "
                 f"f = {ctx.f.to_str(ctx.tvar, ctx.xvar)}{where}")


@contextlib.contextmanager
def _naming(ctx, stage, p=None):
    """Re-raise a helper's bare InternalCheckError (bifactor, kalgebra,
    quotient, LPolynomial) through _internal, naming the stage and the
    instance."""
    try:
        yield
    except InternalCheckError as exc:
        raise _internal(ctx, stage, str(exc), p) from None


def memoized(fn):
    """Cache fn(ctx, *args) in ctx.cache under (fn, *args): the one memo
    rule for what a context derives from f.  A call that raises caches
    nothing, so it raises again when asked again."""
    @functools.wraps(fn)
    def cached(ctx, *args):
        key = (fn, *args)
        if key not in ctx.cache:
            ctx.cache[key] = fn(ctx, *args)
        return ctx.cache[key]
    return cached


class AlgebraContext:
    def __init__(self, field, f, seed=0, check=True, tvar="T", xvar="x"):
        if f.deg_x < 1:
            raise InputError("f must have degree >= 1 in x")
        if not f.is_monic_in_x():
            raise InputError("f must be monic in x")
        if f.derivative_x().is_zero():
            raise InseparableError()
        self.field = field
        self.ring = poly_ring(field)
        self.f = f
        self.r = f.deg_x
        self.seed = seed
        self.tvar = tvar
        self.xvar = xvar
        # results derived from f (orders, splittings, places), kept by memoized
        self.cache = {}
        with _naming(self, "is_irreducible_bivariate"):
            if check and not is_irreducible_bivariate(f, seed=seed,
                                                      res=self.resultant()):
                raise ReducibleError(f"f = {f.to_str(tvar, xvar)} is reducible "
                                     f"over F_{field.q}({tvar})")
        zero, one = self.ring.zero(), self.ring.one()
        # the power basis 1, pi, ..., pi^(r-1) as unit vectors
        self.power_vectors = tuple(
            tuple(one if i == k else zero for i in range(self.r))
            for k in range(self.r))

    def eval_at_pi(self, g):
        """Numerator vector of g(pi) for the x-coefficients g of an element
        of A[x]: its remainder mod the monic f, padded to length r."""
        out = gpoly.rem(self.ring, g, self.f.coeffs)
        return out + (self.ring.zero(),) * (self.r - len(out))

    def mult_vectors(self, u, v):
        """Product of two numerator vectors in the power basis."""
        return self.eval_at_pi(gpoly.mul(self.ring, u, v))

    @memoized
    def resultant(self):
        """res_x(f, df/dx), built once: the irreducibility test's
        repeated-factor guard and disc(f) both read it."""
        return bipoly.resultant_x(self.f, self.f.derivative_x())

    def __repr__(self):
        return (f"AlgebraContext(q={self.field.q}, "
                f"f={self.f.to_str(self.tvar, self.xvar)})")


class KElement:
    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=None):
        F = ctx.field
        if den is None:
            den = FqPoly.one(F)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in K")
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
    def one(ctx):
        F = ctx.field
        vec = [FqPoly.zero(F)] * ctx.r
        vec[0] = FqPoly.one(F)
        return KElement(ctx, tuple(vec))

    @staticmethod
    def gen(ctx):
        """pi, the class of x."""
        x = (ctx.ring.zero(), ctx.ring.one())
        return KElement(ctx, ctx.eval_at_pi(x))

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

    def __mul__(self, other):
        ctx = self.ctx
        num = ctx.mult_vectors(self.num, other.num)
        return KElement(ctx, num, self.den * other.den)

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
