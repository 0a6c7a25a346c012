"""Linear algebra over a finite field given by the gf.GF element protocol.

Vectors are tuples of element values; matrices are lists of row tuples.
Everything here is exact Gaussian elimination at desk scale.
"""


def rref(k, rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    zero = k.zero()
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != zero:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = k.inv(rows[rank][col])
        rows[rank] = [k.mul(inv, e) for e in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != zero:
                c = rows[i][col]
                rows[i] = [k.sub(a, k.mul(c, b)) if b != zero else a
                           for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return [tuple(r) for r in rows[:rank]], pivots


def span_basis(k, vectors):
    """Canonical (RREF) basis of the span of the given vectors."""
    basis, _ = rref(k, vectors)
    return basis


def reduce(k, basis_rref, pivots, vec):
    """vec reduced by an RREF basis: zero on the pivot columns, the same
    for the whole coset of the span, and zero exactly on the span."""
    v = tuple(vec)
    zero = k.zero()
    for row, piv in zip(basis_rref, pivots):
        c = v[piv]
        if c != zero:
            v = tuple(k.sub(a, k.mul(c, b)) if b != zero else a
                      for a, b in zip(v, row))
    return v


def in_span(k, basis_rref, pivots, vec):
    """Membership against an RREF basis."""
    return all(e == k.zero() for e in reduce(k, basis_rref, pivots, vec))


def kernel(k, rows):
    """Basis of the right kernel of an m x n matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    r, pivots = rref(k, rows)
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for fcol in free:
        vec = [k.zero()] * ncols
        vec[fcol] = k.one()
        for row, piv in zip(r, pivots):
            vec[piv] = k.neg(row[fcol])
        out.append(tuple(vec))
    return out


def solve(k, rows, rhs):
    """One solution x of rows @ x = rhs, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(k, aug)
    x = [k.zero()] * ncols
    for row, piv in zip(red, pivots):
        if piv == ncols:
            return None
        x[piv] = row[ncols]
    return tuple(x)


def matmul(k, a, b):
    """Product of two generic matrices (lists of rows)."""
    n, inner, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = [k.zero()] * m
        for t in range(inner):
            ait = a[i][t]
            if ait == k.zero():
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != k.zero():
                    row[j] = k.add(row[j], k.mul(ait, bt[j]))
        out.append(tuple(row))
    return out


def matmul_vec(k, rows, vec):
    zero = k.zero()
    support = [(j, b) for j, b in enumerate(vec) if b != zero]
    out = []
    for row in rows:
        acc = zero
        for j, b in support:
            a = row[j]
            if a != zero:
                acc = k.add(acc, k.mul(a, b))
        out.append(acc)
    return tuple(out)

