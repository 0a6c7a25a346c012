"""Finite quotients top/bottom of lattices in K, as F_q-spaces with lifts.

`invariant_window` is the one enumeration the pipeline runs: the
subspaces of top/bottom invariant under a given order, all of them or
those above the image of a given lattice.  Its pullbacks
(`submodule_lattices`) are the R-submodules of O/R (overorders); the
S-submodules of O/(S:O) (weak class representatives of a non-Gorenstein
overorder S) stay subspaces of the ring O/(S:O) (`LatticeQuotient.algebra`),
where O is the p-saturation of R, and are walked from S/(S:O) up when
every weak class meets that interval.  Invariant subspaces are found by a
walk up by covers from the start subspace, canonicalized via RREF, so
results are deterministic.
`LatticeQuotient.pullback` is the one map from F_q vectors back to
lattices, and `LatticeQuotient.algebra` the one construction of S/pS
(whose nilradical is pulled back by the saturation in `primes`) and O/f.
"""

import functools
import itertools

from .errors import InternalCheckError
from .fqpoly import FqPoly, poly_lcm
from .context import KElement
from .ideals import FracIdeal
from . import amatrix
from . import gpoly
from . import kalgebra
from . import klinalg


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

    def reduce_top_coords(self, coords):
        """F_q coordinate tuple of an element given in top coordinates."""
        y = self._residue(coords)
        out = []
        for i, j in self.slots:
            out.append(y[i][j])
        return tuple(out)

    def lift_columns(self, fq_vectors):
        """Power-basis numerator columns (den = top.den) lifting F_q vectors."""
        ctx = self.ctx
        F = ctx.field
        cols = self.top.basis_columns()
        out = []
        for w in fq_vectors:
            acc = [FqPoly.zero(F)] * ctx.r
            for s, c in enumerate(w):
                if c == 0:
                    continue
                i, j = self.slots[s]
                lift = FqPoly(F, (0,) * j + (c,))
                for t in range(ctx.r):
                    acc[t] = acc[t] + cols[i][t] * lift
            out.append(tuple(acc))
        return out

    def pullback(self, fq_vectors):
        """The lattice bottom + A-span of the lifted vectors: the preimage
        of their span when that span is invariant under T."""
        D = poly_lcm(self.bottom.den, self.top.den)
        a = D.exact_div(self.bottom.den)
        b = D.exact_div(self.top.den)
        cols = [tuple(e * a for e in col) for col in self.bottom.basis_columns()]
        cols += [tuple(e * b for e in col) for col in self.lift_columns(fq_vectors)]
        return FracIdeal.from_columns(self.ctx, cols, D)

    def action_matrix(self, z):
        """F_q matrix of multiplication by z on V; needs z * top subseteq top."""
        ctx = self.ctx
        cols = self.top.basis_columns()
        out_cols = []
        for i, j in self.slots:
            shifted = tuple(e.shift(j) for e in cols[i])
            vec = ctx.mult_vectors(z.num, shifted)
            # the slot element is (T^j * col_i)/top.den, so the product is
            # vec / (z.den * top.den)
            coords = self.top.coordinates(vec, z.den * self.top.den)
            if coords is None:
                raise InternalCheckError("element does not stabilize the top lattice")
            out_cols.append(self.reduce_top_coords(coords))
        return [tuple(out_cols[c][rw] for c in range(self.dim))
                for rw in range(self.dim)]

    def image(self, lattice):
        """RREF basis of the image in V of a lattice between bottom and top:
        its A-basis times T^j, j < dim, reduced mod bottom."""
        vecs = [self.reduce_top_coords(self.top.coordinates(
                    tuple(e.shift(j) for e in col), lattice.den))
                for col in lattice.basis_columns() for j in range(self.dim)]
        return klinalg.span_basis(self.ctx.field, vecs)

    def algebra(self):
        """V as a ring, for an order top and a top-ideal bottom: the
        structure constants of the slot basis, as a FiniteAlgebra over F_q."""
        ctx = self.ctx
        F = ctx.field

        def residue(vec, den):
            coords = self.top.coordinates(vec, den)
            if coords is None:
                raise InternalCheckError("the top lattice is not a ring")
            return self.reduce_top_coords(coords)

        basis = [tuple(F.one() if t == s else F.zero() for t in range(self.dim))
                 for s in range(self.dim)]
        lifts = self.lift_columns(basis)
        den2 = self.top.den * self.top.den
        struct = [[None] * self.dim for _ in range(self.dim)]
        for a in range(self.dim):
            for b in range(a, self.dim):
                struct[a][b] = struct[b][a] = residue(
                    ctx.mult_vectors(lifts[a], lifts[b]), den2)
        one = KElement.one(ctx)
        return kalgebra.FiniteAlgebra(F, struct, residue(one.num, one.den))

    def index_radical(self):
        """rad [top:bottom], the lcm of the squarefree parts of h's diagonal.
        It acts nilpotently on V, and as 0 on each simple subquotient: T acts
        there with an irreducible minimal polynomial dividing the index."""
        F = self.ctx.field
        parts = [FqPoly(F, g) for i, d in enumerate(self.slot_degrees) if d
                 for g, _ in gpoly.squarefree_decomposition(F, self.h[i][i].coeffs)]
        return functools.reduce(poly_lcm, parts, FqPoly.one(F))


def invariant_window(top, bottom, ring, start=None):
    """V = top/bottom and the RREF bases of its subspaces invariant under T
    and under each basis element of `ring`, an order that stabilizes both;
    given a `ring`-module lattice `start` between bottom and top, only
    those that contain its image.  A matrix in the F_q-span of the
    identity fixes every subspace and stays out of the walk, which finds
    covers with the action of the radical of the index."""
    ctx = top.ctx
    quo = LatticeQuotient(top, bottom)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    mats = [quo.action_matrix(z) for z in [t_el] + ring.basis_elements()]
    mats = [m for m in mats if not _is_scalar(ctx.field, m)]
    nil = quo.action_matrix(KElement.from_fqpoly(ctx, quo.index_radical()))
    base = () if start is None else tuple(quo.image(start))
    return quo, invariant_subspaces(ctx.field, quo.dim, mats, nil, base)


def submodule_lattices(top, bottom, ring):
    """Every ring-module lattice between bottom and top, for an order
    `ring` that stabilizes both: the pullbacks of `invariant_window`."""
    quo, subs = invariant_window(top, bottom, ring)
    return [quo.pullback(sub) for sub in subs]


def _is_scalar(field, mat):
    return all(e == (mat[0][0] if i == j else field.zero())
               for i, row in enumerate(mat) for j, e in enumerate(row))


def _cover_lines(field, dim, nil, basis, pivots):
    """One vector per line of {v : nil*v in W}/W, for W the span of an
    RREF basis."""
    cols = [klinalg.reduce(field, basis, pivots, [row[j] for row in nil])
            for j in range(dim)]
    kernel = klinalg.kernel(field, list(zip(*cols)))
    comp = klinalg.span_basis(
        field, [klinalg.reduce(field, basis, pivots, u) for u in kernel])
    # the coefficients of one vector per line end in 1 and then zeros
    elems, rows = list(field.elements()), list(zip(*comp))
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


def invariant_subspaces(field, dim, mats, nil, start=()):
    """All subspaces of F_q^dim invariant under the given matrices that
    contain the invariant subspace `start` (an RREF row tuple; empty by
    default), for a nilpotent `nil` that commutes with the matrices.

    A breadth-first walk up by covers from `start`.  A cover of an
    invariant W is W + U with U simple modulo W; nil acts on U as 0, so U
    is the closure of any v in it, and nil*v lies in W.  Each W found is
    therefore closed with one v per line of {v : nil*v in W}/W.  A closure
    that is not a cover is invariant all the same.  Returns RREF row
    tuples sorted by (dimension, encoding).
    """
    seen = {start}
    walk = [(start, klinalg.rref(field, start)[1])]
    for basis, pivots in walk:   # the walk grows while it is read
        for v in _cover_lines(field, dim, nil, basis, pivots):
            nb, np_ = _closure(field, mats, basis, pivots, v)
            if tuple(nb) not in seen:
                seen.add(tuple(nb))
                walk.append((nb, np_))
    return sorted(seen, key=lambda s: (len(s), s))
