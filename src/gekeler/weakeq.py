"""Weak equivalence classes and the local ideal class monoid.

Representatives of W_S(R) are found inside the window (S:O_K) <= I <= O_K
by enumerating R-submodules of the finite quotient, keeping those with
multiplicator ring exactly S, and collapsing by the global weak
equivalence test 1 in (I:J)(J:I).  The local class monoid at p is the
disjoint union over the p-overorders of the local collapse of W_S(R),
since local Picard groups are trivial.
"""

from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .fqpoly import FqPoly
from .context import KElement
from .ideals import FracIdeal, Order
from .quotient import LatticeQuotient, invariant_subspaces
from .primes import kummer_dedekind, maximal_order, singular_primes, _require_prime
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


def _window_candidates(ctx):
    """R-submodule lattices (R:O_K) <= I <= O_K with their multiplicator rings.

    Every weak class of every overorder S has a representative with
    (S:O_K) <= I <= O_K, and (R:O_K) <= (S:O_K), so this single window
    covers all of them.  Cached per context, sorted canonically.
    """
    if "window" in ctx.cache:
        return ctx.cache["window"]
    base = Order.monogenic(ctx)
    ok = maximal_order(ctx)
    conductor = base.ideal.colon(ok.ideal)
    quo = LatticeQuotient(ok.ideal, conductor)
    lattices = []
    if quo.dim == 0:
        lattices.append(ok.ideal)
    else:
        t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
        pi = KElement.gen(ctx)
        mats = [quo.action_matrix(t_el), quo.action_matrix(pi)]
        for sub in invariant_subspaces(ctx.field, quo.dim, mats):
            lattices.append(quo.pullback(sub))
    lattices.sort(key=lambda l: l.canonical_key())
    window = [(lat, lat.colon(lat)) for lat in lattices]
    ctx.cache["window"] = window
    return window


def weak_classes(base, s_order):
    """Pairwise inequivalent representatives of the classes with ring S."""
    ctx = base.ctx
    if base.ideal != FracIdeal.unit_ideal(ctx):
        raise InputError("weak class search needs the monogenic base order")
    cache_key = ("weak", s_order.canonical_key())
    if cache_key in ctx.cache:
        return ctx.cache[cache_key]
    ok = maximal_order(ctx)
    if not (s_order.ideal.contains(base.ideal)
            and ok.ideal.contains(s_order.ideal)):
        raise InputError("S must satisfy R subseteq S subseteq O_K")
    kept = [lat for lat, mult in _window_candidates(ctx)
            if mult == s_order.ideal]
    groups = []
    for lat in kept:
        for group in groups:
            if globally_weakly_equivalent(lat, group[0]):
                group.append(lat)
                break
        else:
            groups.append([lat])
    s_conductor = s_order.ideal.colon(ok.ideal)
    reps = []
    for group in groups:
        rep = None
        for lat in group:
            if lat.contains(s_conductor):
                rep = lat
                break
        if rep is None:  # pragma: no cover - every class meets the S-window
            raise InternalCheckError("no representative inside the S-window")
        reps.append(WeakClassRep(rep, s_order))
    ctx.cache[cache_key] = reps
    return reps


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


def local_weak_classes(base, s_order, p):
    """Image of W_S(R) in the weak classes of the completion at p."""
    classes = weak_classes(base, s_order)
    reps = []
    for c in classes:
        if not any(locally_weakly_equivalent(c.ideal, r.ideal, p) for r in reps):
            reps.append(c)
    return reps


def local_icm(ctx, p, force_full=False):
    """ICM of the completion at p as a disjoint union of local weak classes."""
    ctx.require_separable()
    _require_prime(ctx, p)
    base = Order.monogenic(ctx)
    if not force_full and p not in singular_primes(ctx):
        cls = WeakClassRep(base.ideal, base)
        return LocalICMReport(p, ((base, (cls,)),), 1)
    groups = []
    total = 0
    for s_order in p_overorders(ctx, p).orders:
        classes = tuple(local_weak_classes(base, s_order, p))
        total += len(classes)
        groups.append((s_order, classes))
    if total < 1:  # pragma: no cover
        raise InputError("class monoid came out empty")
    return LocalICMReport(p, tuple(groups), total)
