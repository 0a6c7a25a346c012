"""Exact linear algebra over A = F_q[T] and its fraction field.

Matrices are lists of rows of FqPoly.  The Hermite normal form here is
upper triangular with monic diagonal and every off-diagonal entry reduced
below its row pivot's degree, obtained by unimodular column operations;
two matrices have equal column span over A iff their HNFs are identical.
"""

from .errors import InputError
from .fqpoly import FqPoly, NEG_INF


def mat_zero(field, rows, cols):
    z = FqPoly.zero(field)
    return [[z for _ in range(cols)] for _ in range(rows)]


def mat_identity(field, n):
    z = FqPoly.zero(field)
    o = FqPoly.one(field)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    field = a[0][0].field
    out = mat_zero(field, rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik.is_zero():
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if not bk[j].is_zero():
                    oi[j] = oi[j] + aik * bk[j]
    return out


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_col(m, dst, src, c):
    """col_dst += c * col_src."""
    if c.is_zero():
        return
    for row in m:
        row[dst] = row[dst] + row[src] * c


def _scale_col(m, j, c):
    for row in m:
        row[j] = row[j] * c


def hnf(mat, transform=False):
    """Column-style Hermite normal form of an r x n matrix over A.

    The columns must span a full-rank lattice (rank = number of rows);
    otherwise InputError reports the achieved rank.  Returns the square
    HNF matrix, or (hnf, U) with U unimodular n x n and mat @ U having
    the HNF in its trailing columns when transform=True (the leading
    columns of mat @ U are zero; the corresponding columns of U span the
    kernel).
    """
    r = len(mat)
    n = len(mat[0])
    field = mat[0][0].field
    m = [list(row) for row in mat]
    u = mat_identity(field, n) if transform else None
    # process rows bottom-up; `limit` is one past the last usable column
    limit = n
    for i in range(r - 1, -1, -1):
        while True:
            # find columns with nonzero entry in row i among [0, limit)
            nz = [j for j in range(limit) if not m[i][j].is_zero()]
            if not nz:
                got = rank_over_fractions(mat)
                raise InputError(
                    f"matrix columns span a rank-{got} lattice, need rank {r}")
            if len(nz) == 1:
                piv = nz[0]
                break
            # reduce all entries by the minimal-degree one
            piv = min(nz, key=lambda j: m[i][j].degree)
            for j in nz:
                if j == piv:
                    continue
                q = m[i][j] // m[i][piv]
                _addmul_col(m, j, piv, -q)
                if u is not None:
                    _addmul_col(u, j, piv, -q)
        dest = limit - 1
        if piv != dest:
            _swap_cols(m, piv, dest)
            if u is not None:
                _swap_cols(u, piv, dest)
        limit = dest
    # columns [0, limit) are zero in all processed rows: they are zero columns
    h = [[m[i][limit + j] for j in range(r)] for i in range(r)]
    # make pivots monic
    for j in range(r):
        lead = h[j][j].lead()
        if lead != 1:
            c = FqPoly.const(field, field.inv(lead))
            for i in range(r):
                h[i][j] = h[i][j] * c
            if u is not None:
                _scale_col(u, limit + j, c)
    # reduce above-pivot entries modulo the row pivot
    for j in range(r):
        for i in range(j - 1, -1, -1):
            q = h[i][j] // h[i][i]
            if q.is_zero():
                continue
            for k in range(i + 1):
                h[k][j] = h[k][j] - h[k][i] * q
            if u is not None:
                _addmul_col(u, limit + j, limit + i, -q)
    if transform:
        return h, u, limit
    return h


def kernel_basis(mat):
    """Basis of the right kernel lattice of an r x n matrix over A.

    Works for matrices whose column span has full rank r; the kernel is
    spanned by the transform columns that zero out.
    """
    _, u, limit = hnf(mat, transform=True)
    n = len(mat[0])
    return [[u[i][j] for i in range(n)] for j in range(limit)]


def is_hnf(m):
    r = len(m)
    for i in range(r):
        if not m[i][i].is_monic():
            return False
        for j in range(r):
            if j < i and not m[i][j].is_zero():
                return False
            if j > i and m[i][j].degree >= m[i][i].degree:
                return False
    return True


def solve_upper_triangular(h, rhs):
    """Solve h @ x = rhs over A for upper-triangular h, or None.

    Returns None when the unique solution over the fraction field is not
    integral; back-substitution detects this through a failed exact
    division.
    """
    r = len(h)
    x = [None] * r
    work = list(rhs)
    for i in range(r - 1, -1, -1):
        q, rem = work[i].divmod(h[i][i])
        if not rem.is_zero():
            return None
        x[i] = q
        for k in range(i):
            work[k] = work[k] - h[k][i] * q
    return x


def det(mat):
    """Exact determinant over A by fraction-free (Bareiss) elimination."""
    n = len(mat)
    field = mat[0][0].field
    m = [list(row) for row in mat]
    sign = 1
    prev = FqPoly.one(field)
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    piv = i
                    break
            if piv is None:
                return FqPoly.zero(field)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = FqPoly.zero(field)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    if sign < 0:
        d = -d
    return d


def rank_over_fractions(mat):
    """Rank over F_q(T) by Bareiss fraction-free elimination."""
    field = mat[0][0].field
    rows = [list(r) for r in mat]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    col = 0
    prev = FqPoly.one(field)
    while rank < nrows and col < ncols:
        piv = None
        best = None
        for i in range(rank, nrows):
            d = rows[i][col].degree
            if d is not NEG_INF and (best is None or d < best):
                best = d
                piv = i
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, nrows):
            c = rows[i][col]
            rows[i] = [(rows[i][j] * pv - rows[rank][j] * c).exact_div(prev)
                       for j in range(ncols)]
        prev = pv
        rank += 1
        col += 1
    return rank

