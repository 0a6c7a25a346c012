"""The p-overorders of the monogenic order R.

With O the p-saturation of R (`primes.p_saturation`), the p-overorders
are exactly the rings between R and O; they correspond one-to-one with
the overorders of the completed order at p, which is what the downstream
class-monoid computation consumes.  Candidates are the R-module lattices
between R and O; a candidate survives if it is multiplicatively closed.
"""

from dataclasses import dataclass

from .errors import InputError
from .fqpoly import FqPoly
from .ideals import Order
from .quotient import submodule_lattices
from .primes import p_saturation, _require_prime


@dataclass(frozen=True)
class POverorderSet:
    p: FqPoly
    orders: tuple

    def to_json_list(self):
        return [s.to_json_dict() for s in self.orders]


def p_overorders(ctx, p):
    """All p-overorders of R, canonically sorted; contains R and O."""
    ctx.require_separable()
    _require_prime(ctx, p)
    base = Order.monogenic(ctx)
    sat = p_saturation(ctx, p)
    orders = [Order(lat, check=False)
              for lat in submodule_lattices(sat.ideal, base.ideal)
              if lat.is_order_lattice()]
    orders.sort(key=lambda s: s.canonical_key())
    out = POverorderSet(p, tuple(orders))
    if base not in out.orders or sat not in out.orders:  # pragma: no cover
        raise InputError("enumeration lost an endpoint order")
    return out
