"""Finite commutative algebras over a finite field k, via structure constants.

Built over k = F_q by `quotient.LatticeQuotient.algebra`.  For S/pS: the
nilradical as the kernel of an iterated Frobenius Phi: x -> x^|k| (which
is k-linear), and the local components of O_K/pO_K by Berlekamp's split:
the fixed space of Phi is the k-span of the primitive idempotents, so its
dimension counts the components and its elements split them.  For
V = O/(S:O): the order of its unit group, and one unit per coset of the
units of S/(S:O), built layer by layer along the powers of the nilradical.
"""

from .errors import InternalCheckError
from . import klinalg
from . import gpoly


def table_product(k, struct, u, v):
    """The sum of u_i v_j struct[i][j]: the product of u and v under the
    structure constants struct, which need not be those of a ring."""
    n = len(struct)
    out = [k.zero()] * n
    for i in range(n):
        ui = u[i]
        if ui == k.zero():
            continue
        row = struct[i]
        for j in range(n):
            vj = v[j]
            if vj == k.zero():
                continue
            c = k.mul(ui, vj)
            bij = row[j]
            for t in range(n):
                if bij[t] != k.zero():
                    out[t] = k.add(out[t], k.mul(c, bij[t]))
    return tuple(out)


class FiniteAlgebra:
    """dim-n commutative k-algebra with basis b_0..b_{n-1}."""

    def __init__(self, k, struct, one):
        self.k = k
        self.struct = struct          # struct[i][j] = coords of b_i * b_j
        self.one = tuple(one)
        self.dim = len(struct)
        self._frobenius = None
        self._nilradical = None

    def mul(self, u, v):
        return table_product(self.k, self.struct, u, v)

    def scale(self, c, u):
        k = self.k
        return tuple(k.mul(c, x) for x in u)

    def add(self, u, v):
        k = self.k
        return tuple(k.add(a, b) for a, b in zip(u, v))

    def sub(self, u, v):
        k = self.k
        return tuple(k.sub(a, b) for a, b in zip(u, v))

    def mult_matrix(self, z):
        """Matrix (rows) of multiplication by z in the chosen basis, read off
        the structure constants: entry (i, j) is sum_a z_a struct[a][j][i]."""
        k, zero = self.k, self.k.zero()
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for za, table in zip(z, self.struct):
            if za != zero:
                for j, prod in enumerate(table):
                    for i, c in enumerate(prod):
                        if c != zero:
                            rows[i][j] = k.add(rows[i][j], k.mul(za, c))
        return [tuple(row) for row in rows]

    def pow(self, z, n):
        out = self.one
        base = z
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def subalgebra(self, basis, pivots):
        """The subalgebra spanned by an RREF basis that holds 1 and is
        closed under products, in that basis: a vector of the span has the
        entries at the pivots as its coordinates."""
        struct = [[tuple(self.mul(u, v)[c] for c in pivots) for v in basis]
                  for u in basis]
        return FiniteAlgebra(self.k, struct, [self.one[c] for c in pivots])

    def basis_vector(self, i):
        k = self.k
        vec = [k.zero()] * self.dim
        vec[i] = k.one()
        return tuple(vec)

    def frobenius_matrix(self):
        """Matrix (rows) of Phi: x -> x^|k| in the chosen basis, built once."""
        if self._frobenius is None:
            k = self.k
            cols = [self.pow(self.basis_vector(j), k.order) for j in range(self.dim)]
            self._frobenius = [tuple(cols[j][i] for j in range(self.dim))
                               for i in range(self.dim)]
        return self._frobenius

    def nilradical_basis(self):
        """RREF basis of the nilradical (kernel of an iterated Frobenius),
        built once."""
        if self._nilradical is None:
            k = self.k
            phi = self.frobenius_matrix()
            j = 0
            power = 1
            while power < self.dim:
                power *= k.order
                j += 1
            j = max(j, 1)
            mat = phi
            for _ in range(j - 1):
                mat = klinalg.matmul(k, mat, phi)
            self._nilradical = tuple(klinalg.span_basis(k, klinalg.kernel(k, mat)))
        return self._nilradical

    def minimal_polynomial(self, z):
        """Monic minimal polynomial of z (as generic gpoly coeff list)."""
        k = self.k
        powers = [self.one]
        while True:
            mat = [[powers[m][i] for m in range(len(powers))]
                   for i in range(self.dim)]
            nxt = self.mul(powers[-1], z)
            sol = klinalg.solve(k, mat, nxt)
            if sol is not None:
                coeffs = [k.neg(c) for c in sol] + [k.one()]
                return gpoly.normalize(coeffs)
            powers.append(nxt)
            if len(powers) > self.dim + 1:  # pragma: no cover
                raise InternalCheckError("minimal polynomial search ran away")


def split_local_components(alg):
    """Orthogonal idempotents of the local components of a commutative
    algebra B over k, in canonical order.

    Berlekamp's split (Bell Syst. Tech. J. 46, 1967; Cohen, GTM 138,
    Sec. 3.4).  On a local component with residue field E an element
    fixed by Phi: x -> x^|k| is a root of X^|k| - X, which is separable
    and has its |k| roots in k inside E, so it is a constant: the fixed
    space ker(Phi - 1) is the k-span of the c primitive idempotents.  So
    B is local exactly when that space is a line.  Otherwise an element z
    of it takes a value in k on each component, its minimal polynomial is
    the product of X - a over those values, and the Lagrange products
    prod_(b != a) (z - b)/(a - b) are the idempotents of the components
    where z is a; the elements of a basis of the fixed space, taken in
    turn, separate every two components.
    """
    k = alg.k
    phi = alg.frobenius_matrix()
    fixed = klinalg.kernel(k, [
        tuple(k.sub(e, k.one()) if i == j else e for j, e in enumerate(row))
        for i, row in enumerate(phi)])
    idempotents = [alg.one] if fixed else []   # the zero ring has none
    for z in fixed:
        if len(idempotents) == len(fixed):
            break
        roots = [k.neg(g[0]) for g, _ in gpoly.factor(k, alg.minimal_polynomial(z))]
        parts = [_lagrange_idempotent(alg, z, a, roots) for a in roots]
        idempotents = [e for eps in idempotents for part in parts
                       for e in [alg.mul(eps, part)]
                       if any(c != k.zero() for c in e)]
    if len(idempotents) != len(fixed):  # pragma: no cover
        raise InternalCheckError("the Frobenius-fixed space did not split")
    idempotents.sort(key=lambda v: [gpoly.elt_key(c) for c in v])
    return idempotents


def _lagrange_idempotent(alg, z, a, roots):
    """prod over the roots b != a of (z - b)/(a - b)."""
    k = alg.k
    out = alg.one
    for b in roots:
        if b != a:
            shifted = alg.sub(z, alg.scale(b, alg.one))
            out = alg.scale(k.inv(k.sub(a, b)), alg.mul(out, shifted))
    return out


def local_components(alg):
    """(dim eps*B, dim of its residue field) for each local component
    eps*B of B, in the order of split_local_components.  eps*B meets the
    nilradical J in eps*J, so its residue field has dimension
    dim eps*B - dim eps*J."""
    k = alg.k
    nil = alg.nilradical_basis()
    out = []
    for eps in split_local_components(alg):
        comp = klinalg.span_basis(
            k, [alg.mul(eps, alg.basis_vector(j)) for j in range(alg.dim)])
        rad = klinalg.span_basis(k, [alg.mul(eps, v) for v in nil])
        out.append((len(comp), len(comp) - len(rad)))
    return out


def unit_count(alg):
    """|B^x| = |J| prod (|E_i| - 1) over the residue fields E_i of B, read
    off the local components without building a unit."""
    q = alg.k.order
    count = q ** len(alg.nilradical_basis())
    for _, f_dim in local_components(alg):
        count *= q ** f_dim - 1
    return count


def unit_transversal(alg, basis):
    """One unit of B per coset of B^x modulo H = C^x, for the subalgebra C
    spanned by the given basis, which holds 1.

    With J the nilradical, B^x > 1 + J > 1 + J^2 > ... ends at 1, and as
    B^x is abelian the products of one element from each layer below form
    a transversal of B^x/H.  Layer 0 holds one unit of B/J per coset of
    the units of (C + J)/J, found by listing B/J once: z is a unit when
    eps*z lies outside J for every primitive idempotent eps.  For i >= 1,
    1 + x -> x makes (1 + J^i)/(1 + J^(i+1)) the additive group
    J^i/J^(i+1), in which H has the image of (C meet J^i) + J^(i+1); the
    basis vectors c of J^i taken while independent modulo C + J^(i+1)
    span a complement of it (modular law), so layer i is 1 + span(c).
    """
    k = alg.k
    rad = alg.nilradical_basis()
    rad_piv = klinalg.rref(k, rad)[1]
    lifts = klinalg.span_basis(k, [
        klinalg.reduce(k, rad, rad_piv, alg.basis_vector(j))
        for j in range(alg.dim)])
    idempotents = split_local_components(alg)
    units = [z for z in _span(alg, lifts)   # B/J, reduced mod J
             if not any(klinalg.in_span(k, rad, rad_piv, alg.mul(eps, z))
                        for eps in idempotents)]
    sub_rad, sub_piv = klinalg.rref(k, list(basis) + list(rad))
    sub_units = [z for z in units if klinalg.in_span(k, sub_rad, sub_piv, z)]
    out, covered = [], set()
    for z in units:
        if z not in covered:
            out.append(z)
            covered.update(klinalg.reduce(k, rad, rad_piv, alg.mul(z, h))
                           for h in sub_units)
    power = rad
    while power:
        nxt = klinalg.span_basis(k, [alg.mul(a, b) for a in rad for b in power])
        span, piv = klinalg.rref(k, list(basis) + nxt)
        layer = []
        for c in power:
            if not klinalg.in_span(k, span, piv, c):
                layer.append(c)
                span, piv = klinalg.rref(k, span + [c])
        out = [alg.mul(u, alg.add(alg.one, c))
               for c in _span(alg, layer) for u in out]
        power = nxt
    return out


def _span(alg, vectors):
    """Every k-linear combination of the vectors, 0 first."""
    k = alg.k
    out = [tuple(k.zero() for _ in range(alg.dim))]
    for v in vectors:
        out = [alg.add(u, alg.scale(c, v)) for c in k.elements() for u in out]
    return out
