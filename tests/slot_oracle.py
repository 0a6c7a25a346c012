"""Slot-by-slot forms of the maps of `quotient.LatticeQuotient`, kept as
oracles: each solves for the coordinates of every slot (or pair of slots)
on its own, where the program solves once per basis column of top (or
pair of columns) and shifts; and the pullback as an A-HNF of bottom and
the lifted vectors, where the program reads it off an echelon form."""

from gekeler.context import KElement
from gekeler.fqpoly import FqPoly, poly_lcm
from gekeler.ideals import FracIdeal


def reduce_top_coords(quo, coords):
    """F_q coordinate tuple of an element given in top coordinates."""
    y = quo._residue(coords)
    return tuple(y[i][j] for i, j in quo.slots)


def lift_columns(quo, fq_vectors):
    """Power-basis numerator columns (den = top.den) lifting F_q vectors."""
    ctx = quo.ctx
    F = ctx.field
    cols = quo.top.basis_columns()
    out = []
    for w in fq_vectors:
        acc = [FqPoly.zero(F)] * ctx.r
        for s, c in enumerate(w):
            if c == 0:
                continue
            i, j = quo.slots[s]
            lift = FqPoly(F, (0,) * j + (c,))
            for t in range(ctx.r):
                acc[t] = acc[t] + cols[i][t] * lift
        out.append(tuple(acc))
    return out


def pullback(quo, fq_vectors):
    """The lattice bottom + A-span of the lifted vectors, by an A-HNF of
    all of their columns: the preimage of their span when that span is
    invariant under T."""
    D = poly_lcm(quo.bottom.den, quo.top.den)
    a = D.exact_div(quo.bottom.den)
    b = D.exact_div(quo.top.den)
    cols = [tuple(e * a for e in col) for col in quo.bottom.basis_columns()]
    cols += [tuple(e * b for e in col) for col in lift_columns(quo, fq_vectors)]
    return FracIdeal.from_columns(quo.ctx, cols, D)


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
        out_cols.append(reduce_top_coords(quo, coords))
    return [tuple(out_cols[c][rw] for c in range(quo.dim)) for rw in range(quo.dim)]


def image_vectors(quo, lattice):
    """The reduced vectors of the A-basis of a lattice times T^j, j < dim,
    one solve each."""
    return [reduce_top_coords(quo, quo.top.coordinates(
                tuple(e.shift(j) for e in col), lattice.den))
            for col in lattice.basis_columns() for j in range(quo.dim)]


def product_table(quo):
    """The residues of the products of the lifts of every pair of slots,
    one solve per pair."""
    ctx = quo.ctx
    F = ctx.field
    basis = [tuple(F.one() if t == s else F.zero() for t in range(quo.dim))
             for s in range(quo.dim)]
    lifts = lift_columns(quo, basis)
    den2 = quo.top.den * quo.top.den
    return [[reduce_top_coords(quo, quo.top.coordinates(
                 ctx.mult_vectors(lifts[a], lifts[b]), den2))
             for b in range(quo.dim)] for a in range(quo.dim)]


def one_vector(quo):
    one = KElement.one(quo.ctx)
    return reduce_top_coords(quo, quo.top.coordinates(one.num, one.den))
