"""Brute-force validators over truncations A/p^n.

Everything here exists to gate closed forms by exhaustive enumeration:
matrix counts with prescribed characteristic polynomial, conjugacy orbit
counts under GL_r, SL/GL group sizes, and the commutant dimension of the
companion matrix over the rational function field.
"""

from itertools import product as iter_product

from .errors import DEFAULT_BUDGET, InputError, BudgetExceeded
from .fqpoly import FqPoly, is_irreducible
from . import amatrix


class TruncatedRing:
    """A/p^n with tabulated arithmetic; elements are ints below q^(n deg p)."""

    def __init__(self, p, n):
        self.size = self.checked_size(p, n)
        self.p, self.n, self.field = p, n, p.field
        self.modulus = p ** n
        self.d = n * int(p.degree)
        self._build()

    @staticmethod
    def checked_size(p, n):
        """|A/p^n| = q^(n deg p) for a valid p and n, known before a table is."""
        if not p.is_monic() or not is_irreducible(p):
            raise InputError(f"{p.to_str()} is not a monic irreducible of F_q[T]")
        if n < 1:
            raise InputError("truncation level must be >= 1")
        size = p.field.q ** (n * int(p.degree))
        if size > 4096:
            raise BudgetExceeded(f"|A/p^n| = {size} is too large to tabulate")
        return size

    def _decode(self, idx):
        q = self.field.q
        coeffs = []
        for _ in range(self.d):
            coeffs.append(idx % q)
            idx //= q
        return FqPoly(self.field, coeffs)

    def _encode(self, poly):
        q = self.field.q
        out = 0
        for c in reversed(poly.coeffs):
            out = out * q + c
        return out

    def _build(self):
        s = self.size
        polys = [self._decode(i) for i in range(s)]
        self.add_table = [[0] * s for _ in range(s)]
        self.mul_table = [[0] * s for _ in range(s)]
        self.neg_table = [0] * s
        for i in range(s):
            self.neg_table[i] = self._encode(-polys[i])
            for j in range(i, s):
                a = self._encode(polys[i] + polys[j])
                self.add_table[i][j] = a
                self.add_table[j][i] = a
                mpoly = (polys[i] * polys[j]) % self.modulus
                mv = self._encode(mpoly)
                self.mul_table[i][j] = mv
                self.mul_table[j][i] = mv
        self.zero = 0
        self.one = self._encode(FqPoly.one(self.field))
        self.units = [i for i in range(s)
                      if not (polys[i] % self.p).is_zero()]
        self._polys = polys

    def from_fqpoly(self, poly):
        return self._encode(poly % self.modulus)

    def lift(self, idx):
        return self._polys[idx]


def companion_matrix(ctx):
    """The rational canonical form matrix with characteristic polynomial f."""
    r = ctx.r
    F = ctx.field
    zero = FqPoly.zero(F)
    one = FqPoly.one(F)
    m = [[zero for _ in range(r)] for _ in range(r)]
    for i in range(1, r):
        m[i][i - 1] = one
    for i in range(r):
        m[i][r - 1] = -ctx.f.coeff(i)
    return m


def _target_charpoly(ctx, ring):
    """Coefficients c_0..c_{r-1} of f reduced into A/p^n."""
    return tuple(ring.from_fqpoly(ctx.f.coeff(i)) for i in range(ctx.r))


def _ring_charpoly_coeffs(ring, mat, r):
    """Coefficients c_0..c_{r-1} of det(xI - M) (x^r implied monic)."""
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    if r == 2:
        a, b, c, d = mat[0][0], mat[0][1], mat[1][0], mat[1][1]
        tr = add[a][d]
        det = add[mul[a][d]][neg[mul[b][c]]]
        return (det, neg[tr])
    # generic: expand det(xI - M) by permutations, polynomials as tuples
    from itertools import permutations

    def pmul(u, v):
        out = [ring.zero] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            if ui == ring.zero:
                continue
            for j, vj in enumerate(v):
                if vj != ring.zero:
                    out[i + j] = add[out[i + j]][mul[ui][vj]]
        return out

    acc = [ring.zero] * (r + 1)
    for perm in permutations(range(r)):
        sign = _perm_sign(perm)
        prod = [ring.one]
        for i in range(r):
            j = perm[i]
            if i == j:
                entry = [neg[mat[i][j]], ring.one]
            else:
                entry = [neg[mat[i][j]]]
            prod = pmul(prod, entry)
        for t, coeff in enumerate(prod):
            if sign > 0:
                acc[t] = add[acc[t]][coeff]
            else:
                acc[t] = add[acc[t]][neg[coeff]]
    return tuple(acc[:r])


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def check_matrix_budget(p, n, r, budget):
    """Refuse, before any table is built, to enumerate the r x r matrices
    over A/p^n when there are more than the budget."""
    total = TruncatedRing.checked_size(p, n) ** (r * r)
    if total > budget:
        raise BudgetExceeded(
            f"enumerating {total} matrices exceeds the budget {budget}")


def _budgeted_ring(p, n, r, budget):
    """A/p^n, tabulated only once its r x r matrices fit the budget."""
    check_matrix_budget(p, n, r, budget)
    return TruncatedRing(p, n)


def count_matrices_with_charpoly(ctx, p, n, budget=DEFAULT_BUDGET):
    """|{M in Mat_r(A/p^n) : charpoly(M) = f mod p^n}| by exhaustion."""
    r = ctx.r
    if r != 2:
        return len(_matching_matrices(ctx, p, n, budget)[1])
    ring = _budgeted_ring(p, n, r, budget)
    target = _target_charpoly(ctx, ring)
    s = ring.size
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    want_tr = neg[target[1]]
    want_det = target[0]
    count = 0
    for a in range(s):
        row_a = mul[a]
        for d in range(s):
            if add[a][d] != want_tr:
                continue
            ad = row_a[d]
            for b in range(s):
                row_b = mul[b]
                for c in range(s):
                    if add[ad][neg[row_b[c]]] == want_det:
                        count += 1
    return count


def _matching_matrices(ctx, p, n, budget):
    r = ctx.r
    ring = _budgeted_ring(p, n, r, budget)
    target = _target_charpoly(ctx, ring)
    out = []
    for entries in iter_product(range(ring.size), repeat=r * r):
        mat = tuple(tuple(entries[i * r:(i + 1) * r]) for i in range(r))
        if _ring_charpoly_coeffs(ring, [list(row) for row in mat], r) == target:
            out.append(mat)
    return ring, out


def _gl_with_inverses(ring, r, budget):
    """All of GL_r(A/p^n) with inverses, via the adjugate."""
    total = ring.size ** (r * r)
    if total > budget:
        raise BudgetExceeded(
            f"enumerating {total} candidate conjugators exceeds the budget")
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    unit_inv = {}
    for u in ring.units:
        for v in ring.units:
            if mul[u][v] == ring.one:
                unit_inv[u] = v
                break
    units = set(ring.units)
    out = []
    if r == 2:
        for a, b, c, d in iter_product(range(ring.size), repeat=4):
            det = add[mul[a][d]][neg[mul[b][c]]]
            if det not in units:
                continue
            di = unit_inv[det]
            inv = ((mul[di][d], mul[di][neg[b]]),
                   (mul[di][neg[c]], mul[di][a]))
            out.append((((a, b), (c, d)), inv))
        return out
    raise InputError("orbit enumeration is implemented for r = 2 only")


def _mat_mul_ring(ring, x, y, r):
    add, mul = ring.add_table, ring.mul_table
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = ring.zero
            for t in range(r):
                acc = add[acc][mul[x[i][t]][y[t][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def brute_orbit_count(ctx, p, n, budget=DEFAULT_BUDGET):
    """Number of GL_r(A/p^n)-conjugacy orbits with charpoly f mod p^n."""
    ring, matching = _matching_matrices(ctx, p, n, budget)
    r = ctx.r
    gl = _gl_with_inverses(ring, r, budget)
    if len(matching) * len(gl) > 50 * budget:
        raise BudgetExceeded("orbit sweep exceeds the budget")
    remaining = set(matching)
    orbits = 0
    for mat in matching:
        if mat not in remaining:
            continue
        orbits += 1
        for g, gi in gl:
            conj = _mat_mul_ring(ring, _mat_mul_ring(ring, g, mat, r), gi, r)
            remaining.discard(conj)
    return orbits


def sl_order_closed_form(r, big_q, n):
    """|SL_r(A/p^n)| = Q^((n-1)(r^2-1)) * Q^(r(r-1)/2) * prod_{i=2}^r (Q^i - 1)."""
    out = big_q ** ((n - 1) * (r * r - 1)) * big_q ** (r * (r - 1) // 2)
    for i in range(2, r + 1):
        out *= big_q ** i - 1
    return out


def brute_sl_count(r, p, n, budget=DEFAULT_BUDGET):
    """Exhaustive |SL_r|, |GL_r| and unit count over A/p^n.

    Also checks |GL| = |(A/p^n)^x| * |SL| (the determinant-scaling map is
    a units-to-1 surjection).
    """
    if r < 1:
        raise InputError("rank must be >= 1")
    ring = _budgeted_ring(p, n, r, budget)
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    units = set(ring.units)
    sl = 0
    gl = 0
    if r == 2:
        for a, b, c, d in iter_product(range(ring.size), repeat=4):
            det = add[mul[a][d]][neg[mul[b][c]]]
            if det in units:
                gl += 1
                if det == ring.one:
                    sl += 1
    else:
        for entries in iter_product(range(ring.size), repeat=r * r):
            mat = [list(entries[i * r:(i + 1) * r]) for i in range(r)]
            cp = _ring_charpoly_coeffs(ring, mat, r)
            det = cp[0] if r % 2 == 0 else neg[cp[0]]
            if det in units:
                gl += 1
                if det == ring.one:
                    sl += 1
    n_units = len(ring.units)
    if gl != n_units * sl:
        raise InputError("determinant fibration check failed")  # pragma: no cover
    return sl, gl, n_units


def commutant_dimension(ctx):
    """dim over F_q(T) of {M : M M_0 = M_0 M} for the companion matrix M_0."""
    r = ctx.r
    F = ctx.field
    m0 = companion_matrix(ctx)
    zero = FqPoly.zero(F)
    rows = []
    # unknowns a_{ij} flattened as i*r + j; equation (i,j):
    # sum_k a_{ik} m0[k][j] - sum_k a_{kj} m0[i][k] = 0
    for i in range(r):
        for j in range(r):
            row = [zero] * (r * r)
            for k in range(r):
                row[i * r + k] = row[i * r + k] + m0[k][j]
                row[k * r + j] = row[k * r + j] - m0[i][k]
            rows.append(row)
    rank = amatrix.rank_over_fractions(rows)
    return r * r - rank
