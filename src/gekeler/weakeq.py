"""Weak equivalence classes and the local ideal class monoid at p.

Let O be the p-saturation of R, S a p-overorder and f = (S:O) its
conductor.  A Gorenstein S has the one weak class [S] (Bass 1963;
Marseglia 2020, "Computing the ideal class monoid of an order").  R is
monogenic, O is regular at p and every order of rank at most 2 is
Gorenstein (Bass, "On the ubiquity of Gorenstein rings", 1963), so these
take no colon; any other S takes one, f, and by Bass's length criterion
it is Gorenstein exactly when deg [O:f] = 2 deg [S:f], both read off HNF
diagonals.  For a non-Gorenstein S, every weak class has a representative
in S's own window f <= I <= O, and the window is linear algebra over F_q
on the ring V = O/f, walked under V's multiplications by the images of T
and of S's A-basis, with p nilpotent on V ([O:f] is a power of p):

- Stabilizer rule.  A window lattice I is an S-invariant subspace W of V,
  and (I:I) lies in O because O_p is maximal, while f*I <= I.  So
  (I:I) = S exactly when the stabilizer {x in V : xW <= W} is S/f; it is
  the kernel of one linear system over the multiplication matrices of a
  basis of V.
- Orbit rule.  Every kept W has O*W = V, that is IO = O: write
  IO_p = xO_p and J = x^-1 I; then (J:O) = (J:JO) = ((J:J):O) = f, so
  f <= (I:O) = xf gives x^-1 f <= f, and x is a unit.  Two weakly
  equivalent kept lattices therefore differ by a unit of O_p, on which
  1 + f acts trivially: the weak classes are the orbits of V^x on the kept
  W.  A unit t with tW = W lies in the stabilizer S/f, so the orbit of
  every kept W is {tW : t in U} for one transversal U of V^x/(S/f)^x,
  built layer by layer along the powers of the radical of V
  (`kalgebra.unit_transversal`), and has |U| members; a U too large to
  list (`ORBIT_LIMIT`) is refused with exit 2.
- Interval rule.  A kept W maps onto a nonzero subspace of each residue
  field of the c local components of V, so its non-units lie in c proper
  subspaces of W.  An F_q-space is no union of c <= q proper subspaces,
  so then W holds a unit u, and u^-1 W, in W's orbit, contains 1 and
  hence S/f.  So when c <= q the walk starts at S/f, and U maps the kept
  W above S/f onto their whole orbits.

A weak class is its representative lattice, a FracIdeal.  [S] is the
orbit of S/f and comes first, represented by S; every other class is
represented by the canonically first pullback of its orbit, in
canonical order.  The local class monoid at p is the disjoint union of
the weak classes over the p-overorders, since local Picard groups are
trivial; where R is maximal at p, R is its one p-overorder and [R] the
one class.  Two lattices that equal R away from p are weakly equivalent at
p exactly when 1 in (I:J)(J:I) (`globally_weakly_equivalent`).
"""

from collections import namedtuple

from .errors import BudgetExceeded, InputError, InternalCheckError
from .fqpoly import FqPoly
from .ideals import FracIdeal, Order
from .quotient import LatticeQuotient, invariant_subspaces
from . import kalgebra
from . import klinalg
from .context import KElement, _internal, _naming, memoized
from .primes import (_require_prime, kummer_dedekind, p_saturation,
                     primes_above_in_max)
from .overorders import p_overorders

ORBIT_LIMIT = 10 ** 8   # entries the unit transversal's matrices may hold


class LocalICMReport(namedtuple("LocalICMReport", "p by_overorder m_p")):
    """The local ideal class monoid at p: `by_overorder` holds the pairs
    (S, the FracIdeal representatives of the weak classes with
    multiplicator ring S) per p-overorder S, and m_p counts the classes."""
    __slots__ = ()

    def to_json_dict(self):
        return {
            "m_p": self.m_p,
            "by_overorder": [
                {
                    "order": order.to_json_dict(),
                    "classes": [c.to_json_dict() for c in classes],
                }
                for order, classes in self.by_overorder
            ],
        }


def globally_weakly_equivalent(i, j):
    """1 in (I:J)(J:I)."""
    return (i.colon(j) * j.colon(i)).contains_one()


def weak_classes(base, s_order, p):
    """Pairwise inequivalent representatives of the weak classes at p with
    multiplicator ring S, for a p-overorder S; [S] comes first.

    S is checked to lie between R and O.  R (monogenic), O (regular at p)
    and every order of rank at most 2 are Gorenstein and take no colon;
    any other S takes one, f = (S:O), and a Gorenstein S has the single
    class [S].  Otherwise the S-invariant subspaces W of O/f whose
    stabilizer is S/f are split into orbits of (O/f)^x; [S] is the orbit
    of S/f, and every other orbit is represented by the canonically first
    of its pullbacks.  The walk starts at S/f when every orbit meets the
    interval above it (`_interval_suffices`), and at 0 otherwise.
    """
    ctx = base.ctx
    if base.ideal != FracIdeal.unit_ideal(ctx):
        raise InputError("weak class search needs the monogenic base order")
    _require_prime(ctx, p)
    s, sat = s_order.ideal, p_saturation(ctx, p).ideal
    if not (s.contains(base.ideal) and sat.contains(s)):
        raise InputError("S must satisfy R subseteq S subseteq O")
    return _weak_classes(ctx, p, s_order)


@memoized
def _weak_classes(ctx, p, s_order):
    """weak_classes for a p-overorder S known to lie between R and O."""
    sat = p_saturation(ctx, p).ideal
    s = s_order.ideal
    reps = [s]
    if ctx.r >= 3 and s not in (FracIdeal.unit_ideal(ctx), sat):
        cond = s.colon(sat)
        if not _gorenstein_by_lengths(sat, s, cond):
            interval = _interval_suffices(ctx, p)
            with _naming(ctx, "weak_classes", p):
                quo = LatticeQuotient(sat, cond)
                alg = quo.algebra()
                s_sub = tuple(quo.image(s))
                t = FqPoly.gen(ctx.field)
                mats = [alg.mult_matrix(quo.vector(z))
                        for z in [KElement.from_fqpoly(ctx, t)]
                        + s_order.basis_elements()]
                nil = (mats[0] if p == t else alg.mult_matrix(
                    quo.vector(KElement.from_fqpoly(ctx, p))))
                subs = invariant_subspaces(ctx.field, mats, nil,
                                           s_sub if interval else ())
                reps += _orbit_representatives(quo, alg, s_sub, subs, p)
    return tuple(reps)


def _gorenstein_by_lengths(o, s, f):
    """Bass's criterion for S with conductor f = (S:O): S is Gorenstein
    exactly when deg [O:f] = 2 deg [S:f]."""
    return f.covolume() - o.covolume() == 2 * (f.covolume() - s.covolume())


def _interval_suffices(ctx, p):
    """Does every orbit of kept W meet the interval [S/f, O/f]?  It does
    when the c local components of O/f number at most q, and c is at most
    the number of primes of O above p, which is at most r."""
    q = ctx.field.q
    return ctx.r <= q or len(primes_above_in_max(ctx, p)) <= q


def _orbit_representatives(quo, alg, s_sub, subs, p):
    """The classes other than [S] in the window f <= I <= O, f = (S:O),
    given as V = O/f, its ring `alg`, the image `s_sub` of S and its
    S-invariant subspaces (all of them, or those above S/f): the
    canonically first lattice of each whole unit orbit, in canonical
    order.  The units that fix a kept W are those of its
    stabilizer S/f, so the orbit of W is {tW : t in U} for one transversal
    U of V^x/(S/f)^x, with |U| distinct members that all share that
    stabilizer: the first member of an orbit found outside the given
    subspaces is tested for it, and the sizes of U and of each orbit are
    checked, after |U| is charged against ORBIT_LIMIT."""
    ctx = quo.ctx
    k = ctx.field
    s_piv = klinalg.rref(k, s_sub)[1]
    others = [alg.mult_matrix(alg.basis_vector(j))
              for j in range(alg.dim) if j not in s_piv]
    kept = [w for w in subs if _stabilized_by_none(k, others, w)]
    inside = set(kept)
    if s_sub not in inside:
        raise InternalCheckError("S/f is missing from its own window")
    size = (kalgebra.unit_count(alg)
            // kalgebra.unit_count(alg.subalgebra(s_sub, s_piv)))
    if size * alg.dim ** 2 > ORBIT_LIMIT:
        raise _internal(ctx, "weak_classes",
                        f"the unit transversal would hold {size} matrices of "
                        f"size {alg.dim}x{alg.dim}, more than {ORBIT_LIMIT} "
                        "entries", p, BudgetExceeded)
    units = [alg.mult_matrix(t) for t in kalgebra.unit_transversal(alg, s_sub)]
    if len(units) != size:
        raise InternalCheckError(f"the unit transversal has {len(units)} members, "
                                 f"not |V^x|/|(S/f)^x| = {size}")
    placed = set()
    orbits = []
    for w in [s_sub] + kept:
        if w in placed:
            continue
        images = [tuple(klinalg.span_basis(
            k, [klinalg.matmul_vec(k, m, v) for v in w])) for m in units]
        outside = next((image for image in images if image not in inside), None)
        if outside is not None and not _stabilized_by_none(k, others, outside):
            raise InternalCheckError("a unit moved W out of the window")
        orbit = set(images)
        if len(orbit) != size:
            raise InternalCheckError(f"a unit orbit has {len(orbit)} members, "
                                     f"not |U| = {size}")
        placed |= orbit
        orbits.append(orbit)
    reps = [min((quo.pullback(w) for w in orbit), key=lambda l: l.canonical_key())
            for orbit in orbits[1:]]
    return sorted(reps, key=lambda l: l.canonical_key())


def _stabilized_by_none(k, others, w):
    """For the multiplication matrices of a basis of a complement of S/f:
    does no nonzero element of their span map the subspace W into itself?"""
    piv = [next(i for i, e in enumerate(row) if e != k.zero()) for row in w]
    rows = [tuple(e for v in w
                  for e in klinalg.reduce(k, w, piv, klinalg.matmul_vec(k, m, v)))
            for m in others]
    return len(klinalg.rref(k, rows)[0]) == len(others)


def locally_weakly_equivalent(i, j, p):
    """I_p ~ J_p: the product (I:J)(J:I) meets R outside every prime above p."""
    ctx = i.ctx
    _require_prime(ctx, p)
    prod = i.colon(j) * j.colon(i)
    base = Order.monogenic(ctx)
    inside = prod.intersect(base.ideal)
    for q in kummer_dedekind(base, p).primes:
        if q.ideal.contains(inside):
            return False
    return True


def local_icm(ctx, p):
    """ICM of the completion at p as a disjoint union of local weak classes.

    Every p takes the one path: at a p where R is maximal, R is its one
    p-overorder and [R] its one class, so m_p = 1."""
    _require_prime(ctx, p)
    groups = []
    total = 0
    for s_order in p_overorders(ctx, p).orders:
        classes = _weak_classes(ctx, p, s_order)
        total += len(classes)
        groups.append((s_order, classes))
    if total < 1:
        raise _internal(ctx, "local_icm", "class monoid came out empty", p)
    return LocalICMReport(p, tuple(groups), total)
