"""Exact linear algebra over A = F_q[T] and its fraction field.

Matrices are lists of rows of FqPoly.  The Hermite normal form here is
upper triangular with monic diagonal and every off-diagonal entry reduced
below its row pivot's degree, obtained by unimodular column operations;
two matrices have equal column span over A iff their HNFs are identical.
The determinant and the rank over F_q(T) share one fraction-free (Bareiss)
elimination.
"""

from .errors import InputError
from .fqpoly import FqPoly


def mat_identity(field, n):
    z = FqPoly.zero(field)
    o = FqPoly.one(field)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


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


def _bareiss(mat):
    """(rank over F_q(T), sign of the row swaps, last pivot) of the
    fraction-free echelon form of mat (Bareiss, Math. Comp. 22, 1968).  A
    column's pivot is its first nonzero entry at or below the current row,
    and a column with none is skipped; each division is exact."""
    rows = [list(row) for row in mat]
    nrows, ncols = len(rows), len(rows[0])
    rank, sign = 0, 1
    prev = FqPoly.one(mat[0][0].field)
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if not rows[i][col].is_zero()),
                   None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        pv = top[col]
        for row in rows[rank + 1:]:
            c = row[col]
            for j in range(col + 1, ncols):
                row[j] = (pv * row[j] - c * top[j]).exact_div(prev)
        prev = pv
        rank += 1
    return rank, sign, prev


def det(mat):
    """Exact determinant over A: the signed last Bareiss pivot at full rank."""
    rank, sign, last = _bareiss(mat)
    if rank < len(mat):
        return FqPoly.zero(last.field)
    return -last if sign < 0 else last


def rank_over_fractions(mat):
    """Rank over F_q(T), by Bareiss elimination."""
    return _bareiss(mat)[0]
