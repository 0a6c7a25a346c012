"""Slot-by-slot forms of the A-linear maps of `quotient.LatticeQuotient`,
kept as oracles: each solves for the coordinates of every slot (or pair
of slots) on its own, where the program solves once per basis column of
top (or pair of columns) and shifts."""

from gekeler.context import KElement


def action_matrix(quo, z):
    """F_q matrix of multiplication by z on V, one solve per slot."""
    ctx = quo.ctx
    cols = quo.top.basis_columns()
    out_cols = []
    for i, j in quo.slots:
        shifted = tuple(e.shift(j) for e in cols[i])
        coords = quo.top.coordinates(ctx.mult_vectors(z.num, shifted),
                                     z.den * quo.top.den)
        assert coords is not None
        out_cols.append(quo.reduce_top_coords(coords))
    return [tuple(out_cols[c][rw] for c in range(quo.dim)) for rw in range(quo.dim)]


def image_vectors(quo, lattice):
    """The reduced vectors of the A-basis of a lattice times T^j, j < dim,
    one solve each."""
    return [quo.reduce_top_coords(quo.top.coordinates(
                tuple(e.shift(j) for e in col), lattice.den))
            for col in lattice.basis_columns() for j in range(quo.dim)]


def product_table(quo):
    """The residues of the products of the lifts of every pair of slots,
    one solve per pair."""
    ctx = quo.ctx
    F = ctx.field
    basis = [tuple(F.one() if t == s else F.zero() for t in range(quo.dim))
             for s in range(quo.dim)]
    lifts = quo.lift_columns(basis)
    den2 = quo.top.den * quo.top.den
    return [[quo.reduce_top_coords(quo.top.coordinates(
                 ctx.mult_vectors(lifts[a], lifts[b]), den2))
             for b in range(quo.dim)] for a in range(quo.dim)]


def one_vector(quo):
    one = KElement.one(quo.ctx)
    return quo.reduce_top_coords(quo.top.coordinates(one.num, one.den))
