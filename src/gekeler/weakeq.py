"""Weak equivalence classes and the local ideal class monoid at p.

Let O be the p-saturation of R and S a p-overorder.  A Gorenstein S has
the one weak class [S] (Bass 1963; Marseglia 2020, "Computing the ideal
class monoid of an order"); `is_gorenstein` needs two colons and one
product, and every order of rank 2 passes it.  For any other S, every
weak class has a representative in S's own window (S:O) <= I <= O: its
S-module lattices with (I:I) = S are collapsed once by 1 in (I:J)(J:I),
which is weak equivalence at p since they all equal R away from p.
[S] comes first, represented by S; every other class is represented by
its canonically first lattice in the window, in canonical order.  The
local class monoid at p is the disjoint union of the weak classes over
the p-overorders, since local Picard groups are trivial.
"""

from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .fqpoly import FqPoly
from .ideals import FracIdeal, Order
from .quotient import submodule_lattices
from .primes import kummer_dedekind, p_saturation, singular_primes, _require_prime
from .overorders import p_overorders


@dataclass(frozen=True)
class WeakClassRep:
    ideal: FracIdeal
    mult_ring: Order

    def to_json_dict(self):
        return self.ideal.to_json_dict()


@dataclass(frozen=True)
class LocalICMReport:
    p: FqPoly
    by_overorder: tuple   # of (Order, tuple of WeakClassRep)
    m_p: int

    def to_json_dict(self):
        return {
            "m_p": self.m_p,
            "by_overorder": [
                {
                    "order": order.to_json_dict(),
                    "classes": [c.to_json_dict() for c in classes],
                }
                for order, classes in self.by_overorder
            ],
        }


def globally_weakly_equivalent(i, j):
    """1 in (I:J)(J:I)."""
    return (i.colon(j) * j.colon(i)).contains_one()


def is_gorenstein(s_order):
    """Is the overorder S of the monogenic R Gorenstein?

    R^t = f'(pi)^{-1} R gives S^t = f'(pi)^{-1} (R:S), so S^t is an
    invertible S-ideal iff (S:J)J = S for J = (R:S); the scalar cancels.
    """
    s = s_order.ideal
    j = FracIdeal.unit_ideal(s.ctx).colon(s)
    return s.colon(j) * j == s


def weak_classes(base, s_order, p):
    """Pairwise inequivalent representatives of the weak classes at p with
    multiplicator ring S, for a p-overorder S; [S] comes first.

    A Gorenstein S has the single class [S].  Otherwise the S-module
    lattices (S:O) <= I <= O with (I:I) = S are taken in canonical order,
    and each one not weakly equivalent to an earlier representative
    starts a class.  Every such lattice equals R away from p, so global
    weak equivalence of two of them is weak equivalence at p.
    """
    ctx = base.ctx
    if base.ideal != FracIdeal.unit_ideal(ctx):
        raise InputError("weak class search needs the monogenic base order")
    _require_prime(ctx, p)
    cache_key = ("weak", p, s_order.canonical_key())
    if cache_key in ctx.cache:
        return ctx.cache[cache_key]
    sat = p_saturation(ctx, p)
    s = s_order.ideal
    if not (s.contains(base.ideal) and sat.ideal.contains(s)):
        raise InputError("S must satisfy R subseteq S subseteq O")
    reps = [s]
    if not is_gorenstein(s_order):
        window = submodule_lattices(sat.ideal, s.colon(sat.ideal), s_order)
        window.sort(key=lambda l: l.canonical_key())
        for lat in window:
            if lat.colon(lat) == s and not any(
                    globally_weakly_equivalent(lat, rep) for rep in reps):
                reps.append(lat)
    out = tuple(WeakClassRep(rep, s_order) for rep in reps)
    ctx.cache[cache_key] = out
    return out


def locally_weakly_equivalent(i, j, p):
    """I_p ~ J_p: the product (I:J)(J:I) meets R outside every prime above p."""
    ctx = i.ctx
    _require_prime(ctx, p)
    prod = i.colon(j) * j.colon(i)
    base = Order.monogenic(ctx)
    inside = prod.intersect(base.ideal)
    for q in kummer_dedekind(base, p).primes:
        if q.ideal.contains(inside):
            return False
    return True


def local_icm(ctx, p):
    """ICM of the completion at p as a disjoint union of local weak classes."""
    ctx.require_separable()
    _require_prime(ctx, p)
    base = Order.monogenic(ctx)
    if p not in singular_primes(ctx):
        cls = WeakClassRep(base.ideal, base)
        return LocalICMReport(p, ((base, (cls,)),), 1)
    groups = []
    total = 0
    for s_order in p_overorders(ctx, p).orders:
        classes = weak_classes(base, s_order, p)
        total += len(classes)
        groups.append((s_order, classes))
    if total < 1:
        raise InternalCheckError(
            f"local_icm: class monoid came out empty for q = {ctx.field.q}, "
            f"f = {ctx.f.to_str(ctx.tvar, ctx.xvar)}, p = {p.to_str(ctx.tvar)}")
    return LocalICMReport(p, tuple(groups), total)
