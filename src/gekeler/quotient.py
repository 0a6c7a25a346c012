"""Finite quotients top/bottom of lattices in K, as F_q-spaces with lifts.

`submodule_lattices` is the one enumeration the pipeline runs: every
R-module lattice between two lattices, used for R-submodules of O/R
(overorders) and of O/(R:O) (weak class representatives), where O is the
p-saturation of R.  Invariant subspaces are found by a closure BFS that
reaches every submodule and canonicalizes via RREF, so results are
deterministic.
"""

import itertools

from .errors import InputError
from .fqpoly import FqPoly, poly_lcm
from .context import KElement
from .ideals import FracIdeal
from . import amatrix
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
        """The lattice bottom + R-module span of the lifted vectors."""
        ctx = self.ctx
        D = poly_lcm(self.bottom.den, self.top.den)
        a = D.exact_div(self.bottom.den)
        b = D.exact_div(self.top.den)
        cols = [tuple(e * a for e in col) for col in self.bottom.basis_columns()]
        for col in self.lift_columns(fq_vectors):
            base = tuple(e * b for e in col)
            for kk in range(ctx.r):
                cols.append(ctx.mult_vectors(base, ctx.power_vectors[kk]))
        return FracIdeal.from_columns(ctx, cols, D)

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


def submodule_lattices(top, bottom):
    """Every R-module lattice between bottom and top: the pullbacks of the
    subspaces of top/bottom invariant under multiplication by T and x."""
    ctx = top.ctx
    quo = LatticeQuotient(top, bottom)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    pi = KElement.gen(ctx)
    mats = [quo.action_matrix(t_el), quo.action_matrix(pi)]
    return [quo.pullback(sub)
            for sub in invariant_subspaces(ctx.field, quo.dim, mats)]


def _line_vectors(field, dim):
    """One nonzero vector per line of F_q^dim: the last nonzero coordinate
    is 1."""
    elems = list(field.elements())
    for k in range(dim):
        tail = (field.one(),) + (field.zero(),) * (dim - 1 - k)
        for head in itertools.product(elems, repeat=k):
            yield head + tail


def _closure(field, mats, vec):
    """Smallest invariant subspace containing vec."""
    basis, pivots = klinalg.rref(field, [vec])
    changed = True
    while changed:
        changed = False
        for m in mats:
            for v in list(basis):
                w = klinalg.matmul_vec(field, m, v)
                if not klinalg.in_span(field, basis, pivots, w):
                    basis, pivots = klinalg.rref(field, list(basis) + [w])
                    changed = True
    return basis, pivots


def invariant_subspaces(field, dim, mats):
    """All subspaces of F_q^dim invariant under the given matrices.

    Every invariant subspace is a sum of cyclic ones, so the closures of
    the single vectors are computed once (the atoms; v and c*v have the
    same closure, so one vector per line) and the lattice they
    generate is explored by joins, which stay invariant without further
    closing.  Returns RREF row tuples sorted by (dimension, encoding).
    """
    atoms = {}
    for vec in _line_vectors(field, dim):
        basis, pivots = _closure(field, mats, vec)
        atoms.setdefault(tuple(basis), pivots)
    seen = {(): ()}
    frontier = [((), ())]
    while frontier:
        basis, pivots = frontier.pop()
        for atom_basis in atoms:
            if all(klinalg.in_span(field, basis, pivots, v)
                   for v in atom_basis):
                continue
            nb, np_ = klinalg.rref(field, list(basis) + list(atom_basis))
            key = tuple(nb)
            if key not in seen:
                seen[key] = tuple(np_)
                frontier.append((nb, np_))
    return sorted(seen, key=lambda s: (len(s), s))
