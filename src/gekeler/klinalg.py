"""Linear algebra over a finite field given by the gf.GF element protocol.

Vectors are tuples of element values; matrices are lists of row tuples.
Everything here is exact Gaussian elimination at desk scale.
"""


def rref(k, rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != k.zero():
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = k.inv(rows[rank][col])
        rows[rank] = [k.mul(inv, e) for e in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != k.zero():
                c = rows[i][col]
                rows[i] = [k.sub(rows[i][j], k.mul(c, rows[rank][j]))
                           for j in range(ncols)]
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
    for row, piv in zip(basis_rref, pivots):
        c = v[piv]
        if c != k.zero():
            v = tuple(k.sub(a, k.mul(c, b)) for a, b in zip(v, row))
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
    out = []
    for row in rows:
        acc = k.zero()
        for a, b in zip(row, vec):
            if a != k.zero() and b != k.zero():
                acc = k.add(acc, k.mul(a, b))
        out.append(acc)
    return tuple(out)


def intersect_spans(k, basis1, basis2):
    """Basis of the intersection of two spans inside k^n."""
    if not basis1 or not basis2:
        return []
    n = len(basis1[0])
    # rows of [B1; B2]^T stacked: kernel of [B1^T | -B2^T]
    cols = len(basis1) + len(basis2)
    rows = []
    for i in range(n):
        row = [b[i] for b in basis1] + [k.neg(b[i]) for b in basis2]
        rows.append(row)
    out = []
    for kv in kernel(k, rows):
        vec = [k.zero()] * n
        for c, b in zip(kv[: len(basis1)], basis1):
            if c != k.zero():
                for j in range(n):
                    vec[j] = k.add(vec[j], k.mul(c, b[j]))
        if any(e != k.zero() for e in vec):
            out.append(tuple(vec))
    return span_basis(k, out)
