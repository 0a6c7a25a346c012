"""The p-overorders of the monogenic order R.

With O the p-saturation of R (`primes.p_saturation`), the p-overorders
are exactly the rings between R and O; they correspond one-to-one with
the overorders of the completed order at p, which is what the downstream
class-monoid computation consumes.  Candidates are the R-submodules W of
O/R.  The lattice L = R + lift(W) is the F_q-span of R and the lifts of a
basis of W, as W is T-invariant, and R*L lies in L, so L is a ring
exactly when the product of the lifts of any two basis vectors of W
reduces mod R into W.  That is tested on O/R, and only the rings are
pulled back; the endpoints R and O are the zero and the full subspace.
As R = A[pi], W is walked under T and pi, with p nilpotent on O/R; at
p = T the matrix of T serves as the nilpotent one.
"""

from collections import namedtuple

from .ideals import Order
from .quotient import LatticeQuotient, invariant_subspaces
from .context import KElement, _internal, _naming
from .primes import p_saturation, _require_prime
from .fqpoly import FqPoly
from . import kalgebra
from . import klinalg


class POverorderSet(namedtuple("POverorderSet", "p orders")):
    """The p-overorders of R, a canonically sorted tuple of Order."""
    __slots__ = ()

    def to_json_list(self):
        return [s.to_json_dict() for s in self.orders]


def p_overorders(ctx, p):
    """All p-overorders of R, canonically sorted; contains R and O.

    The R-submodules of O/R are walked once; the zero and the full one
    are R and O, and each other one is pulled back when it is closed
    under the products of lifts.  A walk without both endpoints is an
    internal fault.
    """
    _require_prime(ctx, p)
    base = Order.monogenic(ctx)
    sat = p_saturation(ctx, p)
    with _naming(ctx, "p_overorders", p):
        quo = LatticeQuotient(sat.ideal, base.ideal)
        t = FqPoly.gen(ctx.field)
        mats = [quo.action_matrix(z) for z in
                (KElement.from_fqpoly(ctx, t), KElement.gen(ctx))]
        nil = (mats[0] if p == t
               else quo.action_matrix(KElement.from_fqpoly(ctx, p)))
        subs = invariant_subspaces(ctx.field, mats, nil)
        table = quo.product_table()
    if subs[0] or len(subs[-1]) != quo.dim:
        raise _internal(ctx, "p_overorders", "enumeration lost an endpoint order", p)
    orders = [base] + [Order(quo.pullback(w)) for w in subs[1:-1]
                       if _closed(ctx.field, table, w)]
    if quo.dim:
        orders.append(sat)
    orders.sort(key=lambda s: s.canonical_key())
    return POverorderSet(p, tuple(orders))


def _closed(k, table, w):
    """Does every product of two vectors of the RREF basis w, under the
    product table of the slot lifts, lie in the span of w?"""
    piv = klinalg.rref(k, w)[1]
    for a, u in enumerate(w):
        for v in w[a:]:
            prod = kalgebra.table_product(k, table, u, v)
            if not klinalg.in_span(k, w, piv, prod):
                return False
    return True
