"""Weak equivalence classes and the local ideal class monoid at p.

Let O be the p-saturation of R.  Representatives of the weak classes of
a p-overorder S are found inside the window (S:O) <= I <= O by
enumerating the R-module lattices between (R:O) and O, keeping those
with multiplicator ring exactly S, and collapsing by the weak
equivalence test 1 in (I:J)(J:I).  These lattices all equal R away from
p, so that test is weak equivalence at p.  The local class monoid at p
is the disjoint union of the weak classes over the p-overorders, since
local Picard groups are trivial.
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


def _window_candidates(ctx, p):
    """R-module lattices (R:O) <= I <= O, O the p-saturation, with their
    multiplicator rings.

    Every weak class of a p-overorder S has a representative with
    (S:O) <= I <= O, and (R:O) <= (S:O), so this single window covers all
    of them.  Cached per context and prime, sorted canonically.
    """
    key = ("window", p)
    if key in ctx.cache:
        return ctx.cache[key]
    sat = p_saturation(ctx, p)
    conductor = FracIdeal.unit_ideal(ctx).colon(sat.ideal)
    lattices = submodule_lattices(sat.ideal, conductor)
    lattices.sort(key=lambda l: l.canonical_key())
    window = [(lat, lat.colon(lat)) for lat in lattices]
    ctx.cache[key] = window
    return window


def weak_classes(base, s_order, p):
    """Pairwise inequivalent representatives of the weak classes at p with
    multiplicator ring S, for a p-overorder S.

    Every window lattice equals R away from p, so global weak equivalence
    of two of them is weak equivalence of their completions at p.
    """
    ctx = base.ctx
    if base.ideal != FracIdeal.unit_ideal(ctx):
        raise InputError("weak class search needs the monogenic base order")
    _require_prime(ctx, p)
    cache_key = ("weak", p, s_order.canonical_key())
    if cache_key in ctx.cache:
        return ctx.cache[cache_key]
    sat = p_saturation(ctx, p)
    if not (s_order.ideal.contains(base.ideal)
            and sat.ideal.contains(s_order.ideal)):
        raise InputError("S must satisfy R subseteq S subseteq O")
    kept = [lat for lat, mult in _window_candidates(ctx, p)
            if mult == s_order.ideal]
    groups = []
    for lat in kept:
        for group in groups:
            if globally_weakly_equivalent(lat, group[0]):
                group.append(lat)
                break
        else:
            groups.append([lat])
    s_conductor = s_order.ideal.colon(sat.ideal)
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
        classes = tuple(weak_classes(base, s_order, p))
        total += len(classes)
        groups.append((s_order, classes))
    if total < 1:  # pragma: no cover
        raise InputError("class monoid came out empty")
    return LocalICMReport(p, tuple(groups), total)
