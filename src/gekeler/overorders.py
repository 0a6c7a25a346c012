"""Enumeration of the p-overorders of the monogenic order R.

These are exactly the rings between R and the p-saturation O of R inside
O_K; they correspond one-to-one with the overorders of the completed
order at p, which is what the downstream class-monoid computation
consumes.  Candidates come from R-submodules of O/R; a candidate survives
if its pullback lattice is multiplicatively closed.
"""

from dataclasses import dataclass

from .errors import InputError
from .fqpoly import FqPoly
from .context import KElement
from .ideals import FracIdeal, Order, index_ideal
from .quotient import LatticeQuotient, invariant_subspaces
from .primes import maximal_order, _require_prime


@dataclass(frozen=True)
class POverorderSet:
    p: FqPoly
    orders: tuple

    def to_json_list(self):
        return [s.to_json_dict() for s in self.orders]


def p_saturation(ctx, p):
    """O = {z in O_K : p^n z in R for some n}, the largest p-overorder."""
    ok = maximal_order(ctx)
    base = Order.monogenic(ctx)
    idx = index_ideal(ok.ideal, base.ideal)
    e = 0
    while True:
        q, r = idx.divmod(p)
        if not r.is_zero():
            break
        idx = q
        e += 1
    if e == 0:
        return base
    pe = p ** e
    cut = base.ideal.intersect(ok.ideal.scale_poly(pe))
    cols = cut.basis_columns()
    sat = FracIdeal.from_columns(ctx, cols, cut.den * pe)
    return Order(sat, check=False)


def p_overorders(ctx, p):
    """All p-overorders of R, canonically sorted; contains R and O."""
    ctx.require_separable()
    _require_prime(ctx, p)
    base = Order.monogenic(ctx)
    sat = p_saturation(ctx, p)
    if sat.ideal == base.ideal:
        return POverorderSet(p, (base,))
    quo = LatticeQuotient(sat.ideal, base.ideal)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    pi = KElement.gen(ctx)
    mats = [quo.action_matrix(t_el), quo.action_matrix(pi)]
    orders = []
    for sub in invariant_subspaces(ctx.field, quo.dim, mats):
        lat = quo.pullback(sub)
        if lat.is_order_lattice():
            orders.append(Order(lat, check=False))
    orders.sort(key=lambda s: s.canonical_key())
    out = POverorderSet(p, tuple(orders))
    if base not in out.orders or sat not in out.orders:  # pragma: no cover
        raise InputError("enumeration lost an endpoint order")
    return out
