"""The p-overorders of the monogenic order R.

With O the p-saturation of R (`primes.p_saturation`), the p-overorders
are exactly the rings between R and O; they correspond one-to-one with
the overorders of the completed order at p, which is what the downstream
class-monoid computation consumes.  Candidates are the R-module lattices
between R and O; a candidate survives if it is multiplicatively closed,
and the endpoints R and O, which are rings, are not tested.
"""

from dataclasses import dataclass

from .fqpoly import FqPoly
from .ideals import Order
from .quotient import submodule_lattices
from .primes import _internal, _naming, p_saturation, _require_prime


@dataclass(frozen=True)
class POverorderSet:
    p: FqPoly
    orders: tuple

    def to_json_list(self):
        return [s.to_json_dict() for s in self.orders]


def p_overorders(ctx, p):
    """All p-overorders of R, canonically sorted; contains R and O.

    The R-module lattices between R and O are walked once; each one other
    than R and O is kept when it is a ring containing 1.  Losing either
    endpoint is an internal fault.
    """
    ctx.require_separable()
    _require_prime(ctx, p)
    base = Order.monogenic(ctx)
    sat = p_saturation(ctx, p)
    ends = (base.ideal, sat.ideal)
    with _naming(ctx, "p_overorders", p):
        lattices = submodule_lattices(sat.ideal, base.ideal, base)
    orders = [Order(lat, check=False) for lat in lattices
              if lat in ends or lat.is_order_lattice()]
    orders.sort(key=lambda s: s.canonical_key())
    if base not in orders or sat not in orders:
        raise _internal(ctx, "p_overorders", "enumeration lost an endpoint order", p)
    return POverorderSet(p, tuple(orders))
