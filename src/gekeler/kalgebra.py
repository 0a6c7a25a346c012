"""Finite commutative algebras over a finite field k, via structure constants.

Built over k = F_q by `quotient.LatticeQuotient.algebra`.  For S/pS: the
nilradical as the kernel of an iterated Frobenius (the |k|-power map is
k-linear), and the local components of O_K/pO_K through idempotents from
coprime factorizations of minimal polynomials.  For O/(S:O): generators
and the order of its unit group.
"""

import itertools

from .errors import InternalCheckError
from . import klinalg
from . import gpoly


class FiniteAlgebra:
    """dim-n commutative k-algebra with basis b_0..b_{n-1}."""

    def __init__(self, k, struct, one):
        self.k = k
        self.struct = struct          # struct[i][j] = coords of b_i * b_j
        self.one = tuple(one)
        self.dim = len(struct)

    def mul(self, u, v):
        k = self.k
        n = self.dim
        out = [k.zero()] * n
        for i in range(n):
            ui = u[i]
            if ui == k.zero():
                continue
            row = self.struct[i]
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
        """Matrix (rows) of multiplication by z in the chosen basis."""
        cols = [self.mul(z, self.basis_vector(j)) for j in range(self.dim)]
        return [tuple(col[i] for col in cols) for i in range(self.dim)]

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
        """Matrix (rows) of x -> x^|k| in the chosen basis."""
        k = self.k
        cols = [self.pow(self.basis_vector(j), k.order) for j in range(self.dim)]
        return [tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim)]

    def nilradical_basis(self):
        """RREF basis of the nilradical (kernel of an iterated Frobenius)."""
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
        return klinalg.span_basis(k, klinalg.kernel(k, mat))

    def minimal_polynomial(self, z, identity=None):
        """Monic minimal polynomial of z (as generic gpoly coeff list).

        `identity` replaces 1 when working inside a component e*B.
        """
        k = self.k
        one = self.one if identity is None else identity
        powers = [one]
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

    def eval_poly(self, coeffs, z, identity=None):
        """Evaluate a generic k[x] polynomial at z, with `identity` as 1."""
        k = self.k
        one = self.one if identity is None else identity
        out = tuple(k.zero() for _ in range(self.dim))
        for c in reversed(coeffs):
            out = self.mul(out, z)
            if c != k.zero():
                out = self.add(out, self.scale(c, one))
        return out


def split_local_components(alg):
    """Orthogonal idempotents of the local components of a commutative algebra.

    Splits along coprime primary parts of minimal polynomials of a
    deterministic element sequence (basis vectors, then pairwise products
    of basis vectors); a component with no splitting element is local.
    """
    k = alg.k

    def sequence_for(comp_basis):
        seq = list(comp_basis)
        n = len(comp_basis)
        for i in range(n):
            for j in range(i, n):
                seq.append(alg.mul(comp_basis[i], comp_basis[j]))
        return seq

    def component_basis(eps):
        vecs = [alg.mul(eps, alg.basis_vector(j)) for j in range(alg.dim)]
        return klinalg.span_basis(k, [v for v in vecs
                                      if any(c != k.zero() for c in v)])

    final = []
    work = [alg.one]
    while work:
        eps = work.pop()
        basis = component_basis(eps)
        split = None
        for z in sequence_for(basis):
            m = alg.minimal_polynomial(z, identity=eps)
            parts = _primary_parts(k, m)
            if len(parts) > 1:
                split = (z, m, parts)
                break
        if split is None:
            final.append(eps)
            continue
        z, m, parts = split
        for part in parts:
            cof = gpoly.divmod_poly(k, m, part)[0]
            g, u, _ = gpoly.xgcd(k, cof, part)
            if gpoly.deg(g) != 0:  # pragma: no cover - parts are coprime
                raise InternalCheckError("primary parts not coprime")
            e_new = alg.mul(alg.eval_poly(u, z, identity=eps),
                            alg.eval_poly(cof, z, identity=eps))
            if alg.mul(e_new, e_new) != e_new:  # pragma: no cover
                raise InternalCheckError("split produced a non-idempotent")
            work.append(e_new)
    final.sort(key=lambda v: [gpoly.elt_key(c) for c in v])
    return final


def unit_group(alg):
    """Generators of the unit group of a commutative algebra B over
    k = GF(q), and its order.

    With J the nilradical, B^x maps onto (B/J)^x with kernel 1 + J.  So a
    lift of a generator of each residue field of B/J, 1 off its local
    component, and 1 + c*b for c in an F_p-basis of k and b in a basis of
    J adapted to J > J^2 > ... generate B^x: (1 + J^i)/(1 + J^(i+1)) is
    the additive group J^i/J^(i+1).  The order is |J| prod (|E_i| - 1)
    over the residue fields E_i, that is |B| prod (1 - 1/|E_i|).
    """
    k = alg.k
    rad = alg.nilradical_basis()
    rad_piv = klinalg.rref(k, rad)[1]
    gens = []
    order = k.order ** len(rad)
    for eps in split_local_components(alg):
        z, size = _residue_generator(alg, eps, rad, rad_piv)
        order *= size - 1
        if z is not None:
            gens.append(alg.add(z, alg.sub(alg.one, eps)))
    powers = [rad]
    while powers[-1]:
        powers.append(klinalg.span_basis(
            k, [alg.mul(a, b) for a in rad for b in powers[-1]]))
    adapted, span, piv = [], [], []
    for basis in reversed(powers):
        for b in basis:
            if not klinalg.in_span(k, span, piv, b):
                adapted.append(b)
                span, piv = klinalg.rref(k, span + [b])
    for c in [k.element(k.p ** i) for i in range(k.e)]:
        gens += [alg.add(alg.one, alg.scale(c, b)) for b in adapted]
    return gens, order


def _residue_generator(alg, eps, rad, rad_piv):
    """An element of eps*B whose image generates the multiplicative group of
    the residue field of that local component, or None if it is F_2; and
    the size of that residue field."""
    k = alg.k
    comp_rad, comp_piv = klinalg.rref(k, [alg.mul(eps, v) for v in rad])
    lifts = klinalg.span_basis(k, [
        klinalg.reduce(k, comp_rad, comp_piv, alg.mul(eps, alg.basis_vector(j)))
        for j in range(alg.dim)])
    n = k.order ** len(lifts) - 1
    if n == 1:
        return None, 2
    exps = [n // r for r in gpoly.prime_divisors(n)]
    for coeffs in itertools.product(list(k.elements()), repeat=len(lifts)):
        if all(c == k.zero() for c in coeffs):
            continue
        z = tuple(k.zero() for _ in range(alg.dim))
        for c, v in zip(coeffs, lifts):
            z = alg.add(z, alg.scale(c, v))
        if not any(klinalg.in_span(k, rad, rad_piv, alg.sub(alg.pow(z, m), eps))
                   for m in exps):
            return z, n + 1
    raise InternalCheckError("residue field has no primitive element")  # pragma: no cover


def _primary_parts(k, m):
    """m = prod of pairwise coprime primary parts g_i^(a_i); returns the parts."""
    parts = {}
    for fac, mult in gpoly.factor(k, m):
        key = tuple(fac)
        parts[key] = parts.get(key, 0) + mult
    out = []
    for fac in sorted(parts,
                      key=lambda t: (len(t), [gpoly.elt_key(c) for c in t])):
        power = (k.one(),)
        for _ in range(parts[fac]):
            power = gpoly.mul(k, power, fac)
        out.append(power)
    return out
