"""Prime splitting, discriminants, singular primes, and maximal orders.

Splitting of a prime p in the monogenic order goes through Kummer-
Dedekind with the remainder criterion for regularity.  Splitting in the
maximal order is a splitting type, the sorted pairs (e, f) of the primes
of O_K above p, and no ideal of O_K is built: at p not dividing disc(f)
it is the distinct-degree pattern of f mod p; at the primes not dividing
the index [O_K:R] it is Kummer-Dedekind again (Dedekind's criterion);
only at the finitely many index primes is it read off the local
components of the finite algebra O_K/pO_K.  The maximal order itself is
obtained by radical saturation at the primes whose square divides
disc(f), validated by the conductor-discriminant identity; the
saturation at p is the p-saturation of R.
"""

from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .fqpoly import FqPoly, is_irreducible, monic_irreducibles, poly_order_key
from .bipoly import BiPoly, discriminant
from .residue import ResidueField
from .context import AlgebraContext, KElement
from .ideals import FracIdeal, Order, index_ideal
from .quotient import LatticeQuotient
from . import gpoly
from . import kalgebra
from . import klinalg
from . import amatrix


@dataclass(frozen=True)
class PrimeAbove:
    below: FqPoly
    ideal: FracIdeal
    e: int
    f_res: int
    regular: bool

    def norm(self):
        q = self.below.field.q
        return q ** (int(self.below.degree) * self.f_res)

    def to_json_dict(self):
        return {
            "e": self.e,
            "f": self.f_res,
            "regular": self.regular,
            "ideal": self.ideal.to_json_dict(),
        }


@dataclass(frozen=True)
class SplittingReport:
    p: FqPoly
    primes: tuple

    def to_json_dict(self):
        tvar = self.primes[0].ideal.ctx.tvar if self.primes else "T"
        return {
            "p": self.p.to_str(tvar),
            "primes": [q.to_json_dict() for q in self.primes],
        }


def _internal(ctx, stage, what, p):
    """InternalCheckError naming the stage and instance (q, f, p); p may be text."""
    if isinstance(p, FqPoly):
        p = p.to_str(ctx.tvar)
    return InternalCheckError(f"{stage}: {what} for q = {ctx.field.q}, "
                              f"f = {ctx.f.to_str(ctx.tvar, ctx.xvar)}, p = {p}")


def _require_prime(ctx, p):
    """Reject p unless it is a monic irreducible; tested once per context."""
    key = ("prime", p)
    if key not in ctx.cache:
        if not p.is_monic() or not is_irreducible(p):
            raise InputError(f"{p.to_str()} is not a monic irreducible of F_q[T]")
        ctx.cache[key] = True


def census_primes(ctx, degree):
    """The monic irreducibles of the given degree, each recorded as verified
    for ctx: `monic_irreducibles` has tested them already."""
    for p in monic_irreducibles(ctx.field, degree):
        ctx.cache[("prime", p)] = True
        yield p


def kummer_dedekind(order, p):
    """Splitting of p in the monogenic order R = A[pi] with regularity flags.

    Factor f mod p; the factor g of multiplicity e yields the prime
    (p, g(pi)) with residue degree deg g, singular exactly when e >= 2 and
    the remainder of f upon division by the lift of g vanishes mod p^2.
    """
    ctx = order.ctx
    if order.ideal != FracIdeal.unit_ideal(ctx):
        raise InputError("Kummer-Dedekind splitting needs the monogenic order")
    _require_prime(ctx, p)
    key = ("kd", p)
    if key in ctx.cache:
        return ctx.cache[key]
    k = ResidueField(p, check=False)
    _, fbar = ctx.f.reduce_mod(p)
    factors = gpoly.factor(k, fbar, seed=ctx.seed)
    p2 = p * p
    primes = []
    for gbar, e in factors:
        g = BiPoly(ctx.field, [k.lift(c) for c in gbar])
        f_res = gpoly.deg(gbar)
        ideal = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, p),
                                              KElement(ctx, ctx.eval_at_pi(g.coeffs))])
        if e == 1:
            regular = True
        else:
            _, rem = ctx.f.divmod_monic(g)
            regular = any(not (c % p2).is_zero() for c in rem.coeffs)
        primes.append(PrimeAbove(p, ideal, e, f_res, regular))
    if sum(q.e * q.f_res for q in primes) != ctx.r:
        raise _internal(ctx, "kummer_dedekind", "sum of e*f is not r", p)
    primes.sort(key=lambda q: q.ideal.canonical_key())
    report = SplittingReport(p, tuple(primes))
    ctx.cache[key] = report
    return report


def discriminant_of_f(ctx):
    """Monic disc(f), computed once per context."""
    if "disc" not in ctx.cache:
        ctx.cache["disc"] = discriminant(ctx.f)
    return ctx.cache["disc"]


def splitting_type(ctx, p):
    """The pairs (e, f) of the primes of O_K above p, in increasing order.

    At p not dividing disc(f), f mod p is squarefree and R is maximal at p,
    so the type is the pattern of f mod p (Rosen, GTM 210, ch. 3): its
    distinct-degree factor g_d gives deg(g_d)/d unramified primes of
    residue degree d.  At p | disc(f) it is primes_above_in_max.
    """
    key = ("type", p)
    if key in ctx.cache:
        return ctx.cache[key]
    ctx.require_separable()
    _require_prime(ctx, p)
    if (discriminant_of_f(ctx) % p).is_zero():
        pairs = primes_above_in_max(ctx, p)
    else:
        k, fbar = ctx.f.reduce_mod(p)
        pairs = [(1, d) for g, d in gpoly.distinct_degree(k, fbar)
                 for _ in range(gpoly.deg(g) // d)]
    if sum(e * f for e, f in pairs) != ctx.r:
        raise _internal(ctx, "splitting_type", "sum of e*f is not r", p)
    ctx.cache[key] = tuple(sorted(pairs))
    return ctx.cache[key]


def order_discriminant(order):
    """Monic determinant of the trace-form Gram matrix of an A-basis."""
    ctx = order.ctx
    basis = order.basis_elements()
    r = ctx.r
    gram = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            num, den = (basis[i] * basis[j]).trace()
            entry = num.exact_div(den)
            gram[i][j] = entry
            gram[j][i] = entry
    d = amatrix.det(gram)
    if d.is_zero():
        raise InternalCheckError("degenerate trace form on an order")
    return d.monic()


def algebra_mod_p(order, p):
    """S/pS as a FiniteAlgebra over A/p, in the order's basis."""
    ctx = order.ctx
    k = ResidueField(p, check=False)
    lat = order.ideal
    cols = lat.basis_columns()
    den = lat.den
    scaled = [[e * den for e in row] for row in lat.num]
    struct = []
    for i in range(ctx.r):
        row = []
        for j in range(ctx.r):
            vec = ctx.mult_vectors(cols[i], cols[j])
            coords = amatrix.solve_upper_triangular(scaled, list(vec))
            if coords is None:  # pragma: no cover
                raise InternalCheckError("order basis is not closed")
            row.append(tuple(k.project(c) for c in coords))
        struct.append(row)
    e0 = [FqPoly.zero(ctx.field)] * ctx.r
    e0[0] = den
    one_coords = amatrix.solve_upper_triangular(
        [[e for e in row] for row in lat.num], e0)
    if one_coords is None:  # pragma: no cover
        raise InternalCheckError("order does not contain 1")
    one = tuple(k.project(c) for c in one_coords)
    return k, kalgebra.FiniteAlgebra(k, struct, one)


def p_radical(order, p):
    """Radical of pS in S, as a lattice (Frobenius-kernel method): the
    pullback of the nilradical of S/pS.  The slot (i, j) of S/pS is
    T^j * b_i, so an A/p-coordinate vector flattens to its digits."""
    k, alg = algebra_mod_p(order, p)
    quo = LatticeQuotient(order.ideal,
                          order.ideal.scale(KElement.from_fqpoly(order.ctx, p)))
    return quo.pullback([tuple(c for x in v for c in x + (0,) * (k.d - len(x)))
                         for v in alg.nilradical_basis()])


def maximal_order(ctx):
    """Integral closure O_K of A in K by p-saturation at primes of disc(f)."""
    ctx.require_separable()
    if "max_order" in ctx.cache:
        return ctx.cache["max_order"]
    disc = discriminant_of_f(ctx)
    base = Order.monogenic(ctx)
    result = base
    for fac, mult in gpoly.factor(ctx.field, list(disc.coeffs), seed=ctx.seed):
        if mult < 2:
            continue
        p = FqPoly(ctx.field, fac)
        sat = base
        for _ in range(mult + 2):
            rad = p_radical(sat, p)
            grown = Order(rad.colon(rad), check=False)
            if grown.ideal == sat.ideal:
                break
            sat = grown
        else:  # pragma: no cover
            raise _internal(ctx, "maximal_order", "saturation did not converge", p)
        ctx.cache[("sat", p)] = sat
        if sat.ideal != base.ideal:
            result = Order(result.ideal * sat.ideal, check=False)
    idx = index_ideal(result.ideal, base.ideal)
    if order_discriminant(result) * idx * idx != disc:
        raise _internal(ctx, "maximal_order", "conductor-discriminant identity "
                        "failed", f"each factor of {disc.to_str(ctx.tvar)}")
    ctx.cache["max_order"] = result
    return result


def p_saturation(ctx, p):
    """O = {z in O_K : p^n z in R for some n}, the largest p-overorder of R.

    maximal_order records it for every p whose square divides disc(f); R
    is p-maximal at every other p.
    """
    maximal_order(ctx)
    return ctx.cache.get(("sat", p), Order.monogenic(ctx))


def singular_primes(ctx):
    """Monic irreducible p of A lying below a singular prime of R."""
    ctx.require_separable()
    if "singular" in ctx.cache:
        return ctx.cache["singular"]
    base = Order.monogenic(ctx)
    out = []
    for fac, _ in gpoly.factor(ctx.field, list(discriminant_of_f(ctx).coeffs),
                               seed=ctx.seed):
        p = FqPoly(ctx.field, fac)
        ctx.cache[("prime", p)] = True   # a factor from gpoly.factor
        report = kummer_dedekind(base, p)
        if any(not q.regular for q in report.primes):
            out.append(p)
    out.sort(key=poly_order_key)
    ctx.cache["singular"] = out
    return out


def primes_above_in_max(ctx, p):
    """The sorted pairs (e, f) of the primes of O_K above p.

    When every Kummer-Dedekind prime P of R above p is regular, p does not
    divide [O_K:R], so R and O_K agree at p and the pairs are those of the
    P.  Only at the index primes is O_K/pO_K decomposed into its local
    components O_K/Q^e: e*f is the dimension of a component and f that
    dimension less the dimension of its meet with the nilradical.
    """
    ctx.require_separable()
    kd = kummer_dedekind(Order.monogenic(ctx), p)
    if all(q.regular for q in kd.primes):
        return tuple(sorted((q.e, q.f_res) for q in kd.primes))
    k, alg = algebra_mod_p(maximal_order(ctx), p)
    nil = alg.nilradical_basis()
    pairs = []
    for eps in kalgebra.split_local_components(alg):
        comp = klinalg.span_basis(
            k, [alg.mul(eps, alg.basis_vector(j)) for j in range(alg.dim)])
        f_res = len(comp) - len(klinalg.intersect_spans(k, comp, nil))
        if f_res <= 0 or len(comp) % f_res != 0:  # pragma: no cover
            raise _internal(ctx, "primes_above_in_max",
                            "bad local component dimensions", p)
        pairs.append((len(comp) // f_res, f_res))
    return tuple(sorted(pairs))


def infinity_context(ctx):
    """Context for the monic integral model at infinity (T = 1/U)."""
    ctx.require_separable()
    if "inf_ctx" not in ctx.cache:
        from .bipoly import infinity_model
        g, _ = infinity_model(ctx.f)
        ictx = AlgebraContext(ctx.field, g, seed=ctx.seed, check=False,
                              tvar="U", xvar="y")
        ictx.cache[("prime", FqPoly.gen(ctx.field))] = True   # U is prime
        ctx.cache["inf_ctx"] = ictx
    return ctx.cache["inf_ctx"]


def infinity_order(ctx):
    """Maximal order of the model at infinity, over F_q[U]."""
    return maximal_order(infinity_context(ctx))


def infinite_places(ctx):
    """The splitting type of (U) in the model at infinity: the pairs (e, f)
    of the places over T = infinity."""
    return splitting_type(infinity_context(ctx), FqPoly.gen(ctx.field))
