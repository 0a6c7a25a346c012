"""Finite quotients top/bottom of lattices in K, as F_q-spaces with lifts.

`invariant_subspaces` is the one enumeration the pipeline runs: the
subspaces invariant under given matrices, by a walk up by covers from a
start subspace, canonicalized via RREF, so results are deterministic.
Each caller walks its window under the ring that acts on it: O/R (O the
p-saturation of R) under T and pi, as R = A[pi], for `overorders`; the
ring V = O/(S:O) (`LatticeQuotient.algebra`) of a non-Gorenstein
overorder S under the images of T and of S's A-basis, for `weakeq`.
Both find covers with the action of p, nilpotent on both windows as
[O:R] and [O:(S:O)] are powers of p.
`LatticeQuotient.algebra` is the one construction of S/pS (whose
nilradical is pulled back by the saturation in `primes`) and O/f.
The F_q basis of V is the slots T^j b_i, j < deg h_ii, of the HNF h of
bottom in a basis b of top.  Multiplication by an element, products and
images are A-linear, so they are solved once per basis column b_i (or
pair of columns), not once per slot.
`LatticeQuotient.pullback` is the one map from F_q vectors back to
lattices.  In top's coordinates the slots are the standard monomials of
A^r/h, so the preimage of a T-invariant W is read off the RREF of W with
the slots ordered largest term first: per component i, the last row led
there is column i of the preimage's triangular basis over top, and the
HNF of those r columns takes no gcd step.
"""

import itertools

from .errors import InternalCheckError
from .fqpoly import FqPoly
from .context import KElement
from .ideals import FracIdeal
from . import amatrix
from . import kalgebra
from . import klinalg

# the product table's fault where top is not closed under multiplication
NOT_A_RING = "the top lattice is not a ring"


class LatticeQuotient:
    """V = top/bottom for bottom subseteq top, with explicit F_q coordinates."""

    def __init__(self, top, bottom):
        ctx = top.ctx
        self.ctx = ctx
        self.top = top
        self.bottom = bottom
        r = ctx.r
        self.h = amatrix.hnf(top.change_of_basis(bottom))
        self.slot_degrees = [int(self.h[i][i].degree) for i in range(r)]
        self.slots = []
        for i in range(r):
            for j in range(self.slot_degrees[i]):
                self.slots.append((i, j))
        self.dim = len(self.slots)

    # -- coordinates -----------------------------------------------------

    def _residue(self, coords):
        """Canonical representative of a top-coordinate vector mod bottom."""
        r = self.ctx.r
        y = list(coords)
        for i in range(r - 1, -1, -1):
            q = y[i] // self.h[i][i]
            if not q.is_zero():
                for t in range(i + 1):
                    y[t] = y[t] - self.h[t][i] * q
        return y

    def _shifted_residues(self, coords, count):
        """The F_q vectors of T^j y for j < count, for y given by its top
        coordinates.  bottom is an A-lattice, so T^(j+1) y reduces as T
        times the residue of T^j y, whose entries have low degree."""
        y = self._residue(coords)
        out = [tuple(y[i][j] for i, j in self.slots)]
        for _ in range(count - 1):
            y = self._residue([e.shift(1) for e in y])
            out.append(tuple(y[i][j] for i, j in self.slots))
        return out

    def pullback(self, fq_vectors):
        """The preimage L in top of the span W of F_q vectors, for W
        invariant under T, read off the echelon form of W.

        Order the slots largest term first (i descending, then j
        descending) and take the RREF of W.  T maps a vector led by T^j b_i
        with j + 1 < d_i to one led by T^(j+1) b_i, so the pivots in
        component i are the T^j b_i with e_i <= j < d_i, for some e_i, and
        sum (d_i - e_i) = dim W.  The last row led in component i, read as
        polynomials, is an element of L whose coordinates over top vanish
        after position i and are monic of degree e_i at i; a component
        without a pivot (e_i = d_i) takes column i of h.  These r columns
        lie in L and are upper triangular with monic diagonal, so they span
        a lattice M in L with deg [top:M] = sum e_i = dim V - dim W =
        deg [top:L], and M = L.  Their HNF only reduces above the diagonal
        and strips the content.
        """
        ctx = self.ctx
        F = ctx.field
        r = ctx.r
        cols = [[self.h[t][i] for t in range(r)] for i in range(r)]
        rows, pivots = klinalg.rref(F, [v[::-1] for v in fq_vectors])
        starts = list(itertools.accumulate([0] + self.slot_degrees))
        for row, piv in zip(rows, pivots):   # the last row led at i stays
            v = row[::-1]
            i = self.slots[self.dim - 1 - piv][0]
            cols[i] = [FqPoly(F, v[starts[t]:starts[t + 1]]) for t in range(r)]
        basis = self.top.basis_columns()
        out = []
        for i, col in enumerate(cols):
            acc = [FqPoly.zero(F)] * r
            for t in range(i + 1):
                if not col[t].is_zero():
                    acc = [a + b * col[t] for a, b in zip(acc, basis[t])]
            out.append(tuple(acc))
        return FracIdeal.from_columns(ctx, out, self.top.den)

    def vector(self, z):
        """The F_q vector of an element z of top."""
        coords = self.top.coordinates(z.num, z.den)
        if coords is None:
            raise InternalCheckError("element lies outside the top lattice")
        return self._shifted_residues(coords, 1)[0]

    # -- A-linear maps: one solve per basis column of top, shifted per slot --

    def action_matrix(self, z):
        """F_q matrix of multiplication by z on V; needs z * top subseteq top."""
        ctx = self.ctx
        cols = self.top.basis_columns()
        out_cols = []
        for i, d in enumerate(self.slot_degrees):
            if not d:
                continue
            # col_i is a numerator over top.den, so the product is
            # vec / (z.den * top.den)
            coords = self.top.coordinates(ctx.mult_vectors(z.num, cols[i]),
                                          z.den * self.top.den)
            if coords is None:
                raise InternalCheckError("element does not stabilize the top lattice")
            out_cols += self._shifted_residues(coords, d)
        return [tuple(out_cols[c][rw] for c in range(self.dim))
                for rw in range(self.dim)]

    def image(self, lattice):
        """RREF basis of the image in V of a lattice between bottom and top:
        its A-basis times T^j, j < dim, reduced mod bottom."""
        vecs = [v for col in lattice.basis_columns()
                for v in self._shifted_residues(
                    self.top.coordinates(col, lattice.den), self.dim)]
        return klinalg.span_basis(self.ctx.field, vecs)

    def product_table(self):
        """struct[a][b]: the F_q vector of the product of the lifts of slots
        a and b, for an order top; V's structure constants when bottom is
        a top-ideal."""
        ctx = self.ctx
        cols = self.top.basis_columns()
        den2 = self.top.den * self.top.den
        degs = self.slot_degrees
        used = [i for i in range(ctx.r) if degs[i]]
        products = {}
        for n, i in enumerate(used):
            for i2 in used[n:]:
                coords = self.top.coordinates(ctx.mult_vectors(cols[i], cols[i2]),
                                              den2)
                if coords is None:
                    raise InternalCheckError(NOT_A_RING)
                products[i, i2] = products[i2, i] = self._shifted_residues(
                    coords, degs[i] + degs[i2] - 1)
        return [[products[i, i2][j + j2] for i2, j2 in self.slots]
                for i, j in self.slots]

    def algebra(self):
        """V as a ring, for an order top and a top-ideal bottom: the
        structure constants of the slot basis, as a FiniteAlgebra over F_q."""
        return kalgebra.FiniteAlgebra(self.ctx.field, self.product_table(),
                                      self.vector(KElement.one(self.ctx)))


def _is_scalar(field, mat):
    return all(e == (mat[0][0] if i == j else field.zero())
               for i, row in enumerate(mat) for j, e in enumerate(row))


def _cover_lines(field, nil, basis, pivots):
    """One vector per line of {v : nil*v in W}/W, for W the span of an
    RREF basis; F_q is listed only when that space has dimension >= 2."""
    cols = [klinalg.reduce(field, basis, pivots, [row[j] for row in nil])
            for j in range(len(nil))]
    kernel = klinalg.kernel(field, list(zip(*cols)))
    comp = klinalg.span_basis(
        field, [klinalg.reduce(field, basis, pivots, u) for u in kernel])
    # the coefficients of one vector per line end in 1 and then zeros
    elems = list(field.elements()) if len(comp) > 1 else ()
    rows = list(zip(*comp))
    for k in range(len(comp)):
        tail = (field.one(),) + (field.zero(),) * (len(comp) - 1 - k)
        for head in itertools.product(elems, repeat=k):
            yield klinalg.matmul_vec(field, rows, head + tail)


def _closure(field, mats, basis, pivots, vec):
    """Smallest invariant subspace containing vec and the invariant span
    of an RREF basis; only the vectors it adds are multiplied."""
    todo = [vec]
    while todo:
        w = klinalg.reduce(field, basis, pivots, todo.pop())
        if any(e != field.zero() for e in w):
            basis, pivots = klinalg.rref(field, list(basis) + [w])
            todo += [klinalg.matmul_vec(field, m, w) for m in mats]
    return basis, pivots


def invariant_subspaces(field, mats, nil, start=()):
    """All subspaces of F_q^n invariant under the given matrices that
    contain the invariant subspace `start` (an RREF row tuple; empty by
    default), for a nilpotent n x n matrix `nil` that commutes with the
    matrices; n = 0 gives the zero subspace alone.  A matrix in the
    F_q-span of the identity fixes every subspace and stays out of the
    walk.

    A breadth-first walk up by covers from `start`.  A cover of an
    invariant W is W + U with U simple modulo W; nil acts on U as 0, so U
    is the closure of any v in it, and nil*v lies in W.  Each W found is
    therefore closed with one v per line of {v : nil*v in W}/W.  A closure
    that is not a cover is invariant all the same.  Returns RREF row
    tuples sorted by (dimension, encoding).
    """
    mats = [m for m in mats if not _is_scalar(field, m)]
    seen = {start}
    walk = [(start, klinalg.rref(field, start)[1])]
    for basis, pivots in walk:   # the walk grows while it is read
        for v in _cover_lines(field, nil, basis, pivots):
            nb, np_ = _closure(field, mats, basis, pivots, v)
            if tuple(nb) not in seen:
                seen.add(tuple(nb))
                walk.append((nb, np_))
    return sorted(seen, key=lambda s: (len(s), s))
