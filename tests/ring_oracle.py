"""The ring test of a lattice, kept as an oracle: the package builds no
Order it has not shown to be a ring, and the product table of S/pS that
opens each radical step fails unless S is one."""


def is_multiplicatively_closed(ideal):
    """Does the lattice hold the product of any two of its basis vectors?"""
    ctx, cols = ideal.ctx, ideal.basis_columns()
    den2 = ideal.den * ideal.den
    return all(ideal.contains_vector(ctx.mult_vectors(u, v), den2)
               for i, u in enumerate(cols) for v in cols[i:])


def is_order_lattice(ideal):
    """Is the lattice a ring containing 1?"""
    return ideal.contains_one() and is_multiplicatively_closed(ideal)
