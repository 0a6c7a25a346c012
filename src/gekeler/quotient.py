"""Finite quotients top/bottom of lattices in K, as F_q-spaces with lifts.

`submodule_lattices` is the one enumeration the pipeline runs: every
lattice between two lattices that is a module over a given order, used
for the R-submodules of O/R (overorders) and the S-submodules of O/(S:O)
(weak class representatives of a non-Gorenstein overorder S), where O is
the p-saturation of R.  Invariant subspaces are found by a walk up by
covers, canonicalized via RREF, so results are deterministic.
`LatticeQuotient.pullback` is the one map from F_q vectors back to
lattices: it also lifts the nilradical of S/pS for the radical saturation
in `primes`.
"""

import functools
import itertools

from .errors import InputError
from .fqpoly import FqPoly, poly_lcm
from .context import KElement
from .ideals import FracIdeal
from . import amatrix
from . import gpoly
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
                raise InputError("element does not stabilize the top lattice")
            out_cols.append(self.reduce_top_coords(coords))
        return [tuple(out_cols[c][rw] for c in range(self.dim))
                for rw in range(self.dim)]

    def index_radical(self):
        """rad [top:bottom], the lcm of the squarefree parts of h's diagonal.
        It acts nilpotently on V, and as 0 on each simple subquotient: T acts
        there with an irreducible minimal polynomial dividing the index."""
        F = self.ctx.field
        parts = [FqPoly(F, g) for i, d in enumerate(self.slot_degrees) if d
                 for g, _ in gpoly.squarefree_decomposition(F, self.h[i][i].coeffs)]
        return functools.reduce(poly_lcm, parts, FqPoly.one(F))


def submodule_lattices(top, bottom, ring):
    """Every ring-module lattice between bottom and top, for an order
    `ring` that stabilizes both: the pullbacks of the subspaces of
    top/bottom invariant under T and under each basis element of the ring.
    The walk finds covers with the action of the radical of the index."""
    ctx = top.ctx
    quo = LatticeQuotient(top, bottom)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    mats = [quo.action_matrix(z) for z in [t_el] + ring.basis_elements()]
    nil = quo.action_matrix(KElement.from_fqpoly(ctx, quo.index_radical()))
    return [quo.pullback(sub)
            for sub in invariant_subspaces(ctx.field, quo.dim, mats, nil)]


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


def invariant_subspaces(field, dim, mats, nil):
    """All subspaces of F_q^dim invariant under the given matrices, for a
    nilpotent `nil` that commutes with them.

    A breadth-first walk up by covers.  A cover of an invariant W is
    W + U with U simple modulo W; nil acts on U as 0, so U is the closure
    of any v in it, and nil*v lies in W.  Each W found is therefore closed
    with one v per line of {v : nil*v in W}/W.  A closure that is not a
    cover is invariant all the same.  Returns RREF row tuples sorted by
    (dimension, encoding).
    """
    seen = {()}
    walk = [((), [])]
    for basis, pivots in walk:   # the walk grows while it is read
        for v in _cover_lines(field, dim, nil, basis, pivots):
            nb, np_ = _closure(field, mats, basis, pivots, v)
            if tuple(nb) not in seen:
                seen.add(tuple(nb))
                walk.append((nb, np_))
    return sorted(seen, key=lambda s: (len(s), s))
