"""Prime splitting, discriminants, singular primes, and maximal orders.

Everything at a prime p of A starts from one Dedekind record per (ctx, p)
(Cohen, GTM 138, Thm 6.1.4): the factors g_i^e_i of f mod p, and z, the
gcd of (prod G_i^e_i - f)/p mod p, prod g_i and prod g_i^(e_i - 1), for
lifts G_i of the g_i.  The Kummer-Dedekind prime of g_i is singular
exactly when g_i divides z, which is the remainder rule "f mod G_i
vanishes mod p^2"; _is_singular, the one test of p-maximality, reads
the record only where p^2 | disc(f) = [O_K:R]^2 disc(O_K), and the
record builds no ideal (kummer_dedekind builds them for its report).
A stage that reads one prime reads it alone: the test, the saturation
and the splitting at p factor no discriminant and build nothing at any
other prime; singular_primes lists every singular prime for the stages
that need them all.
Splitting in the maximal order is read by primes_above_in_max alone, as
the sorted pairs (e, f) of the primes of O_K above p: at p not dividing
disc(f) it is the distinct-degree pattern of f mod p; at the other
regular p it is the record's (e_i, deg g_i) (Dedekind's criterion); only
at the singular primes is it read off the local components of O_K/pO_K.
The census of the primes of one degree lists no prime: type_counts
counts the splitting types of the Frobenius orbits of GF(q^D) and of
the primes of disc(f), which alone are built.  Each saturation
(_saturation, the p-saturation S of R with its S/pS) is certified by
its own radical loop, and no stage forms the maximal order, the product
of the saturations at the singular primes.  Every saturation opens at
Ore's order (ore_order), built from the Newton polygons of f at the
singular factors of f mod p; it is O_p where f is p-regular, and
elsewhere an order between R and O_p.  Radical steps follow; the first
builds S/pS, whose product table checks that S is a ring, and the step
that builds S/pS = O_K/pO_K over F_q takes no confirming colon where the
tame different bound is met.  Every fact derived here is memoised per
context by context.memoized.
"""

import functools
from collections import Counter, namedtuple

from .errors import BudgetExceeded, InputError, InternalCheckError
from .gf import embedding, fits_table, gf
from .fqpoly import (SIEVE_LIMIT, FqPoly, is_irreducible, monic_irreducibles,
                     poly_order_key)
from .bipoly import discriminant, infinity_model
from .context import AlgebraContext, KElement, _internal, _naming, memoized
from .ideals import FracIdeal, Order, _dot
from .quotient import NOT_A_RING, LatticeQuotient
from . import gpoly
from . import kalgebra
from . import amatrix


class PrimeAbove(namedtuple("PrimeAbove", "below ideal e f_res regular")):
    """A prime of R above p: its ideal, ramification index e, residue
    degree f_res, and whether it is regular."""
    __slots__ = ()

    def to_json_dict(self):
        return {
            "e": self.e,
            "f": self.f_res,
            "regular": self.regular,
            "ideal": self.ideal.to_json_dict(),
        }


class SplittingReport(namedtuple("SplittingReport", "p primes")):
    """The primes of R above p, a tuple of PrimeAbove."""
    __slots__ = ()

    def to_json_dict(self):
        tvar = self.primes[0].ideal.ctx.tvar if self.primes else "T"
        return {
            "p": self.p.to_str(tvar),
            "primes": [q.to_json_dict() for q in self.primes],
        }


def _require_prime(ctx, p):
    """Reject p unless it is a monic irreducible; tested once per context."""
    key = ("prime", p)
    if key not in ctx.cache:
        if not p.is_monic() or not is_irreducible(p):
            raise InputError(f"{p.to_str()} is not a monic irreducible of F_q[T]")
        ctx.cache[key] = True


class DedekindRecord(namedtuple("DedekindRecord", "k factors z")):
    """Dedekind's criterion at p for R = A[x]/f (Cohen, GTM 138, Thm 6.1.4).

    k = A/p; `factors` holds the pairs (g_i, e_i) of f mod p = prod g_i^e_i,
    each g_i a monic irreducible coefficient tuple over k.  With G_i the
    lifts of the g_i, F = (prod G_i^e_i - f)/p, and z is
    gcd(F mod p, prod g_i, prod g_i^(e_i - 1)) over k.
    """
    __slots__ = ()

    def regular(self, g):
        """Is the Kummer-Dedekind prime (p, G(pi)) of the factor g regular?
        It is not exactly when g divides z."""
        return bool(gpoly.rem(self.k, self.z, g))


@memoized
def dedekind(ctx, p):
    """The Dedekind record of R at p.

    p does not divide [O_K:R] exactly when z = 1, and the prime of R above
    p from the factor g_i is singular exactly when g_i divides z: since
    G_i divides prod G_j^e_j, the remainder of f upon division by G_i is
    -p times that of F, so this is the rule "e_i >= 2 and that remainder
    vanishes mod p^2".
    """
    _require_prime(ctx, p)
    k, fbar = ctx.f.reduce_mod(p)
    factors = tuple((tuple(g), e) for g, e in gpoly.factor(k, fbar, seed=ctx.seed))
    if sum(e * gpoly.deg(g) for g, e in factors) != ctx.r:
        raise _internal(ctx, "kummer_dedekind", "sum of e*f is not r", p)
    ring = ctx.ring
    lifted = (ring.one(),)
    for g, e in factors:
        g_lift = _lift_to_ax(k, g)
        for _ in range(e):
            lifted = gpoly.mul(ring, lifted, g_lift)
    excess = []   # F mod p
    for c in gpoly.sub(ring, lifted, ctx.f.coeffs):
        quot, rem = c.divmod(p)
        if not rem.is_zero():
            raise _internal(ctx, "kummer_dedekind",
                            "prod g_i^e_i - f is not divisible by p", p)
        excess.append(k.project(quot))
    rad, tail = (k.one(),), (k.one(),)
    for g, e in factors:
        rad = gpoly.mul(k, rad, g)
        for _ in range(e - 1):
            tail = gpoly.mul(k, tail, g)
    z = gpoly.gcd(k, gpoly.gcd(k, gpoly.normalize(excess), rad), tail)
    return DedekindRecord(k, factors, z)


def _lift_to_ax(k, g):
    """The coefficients in A of the lift of a polynomial g over k = A/p."""
    return tuple(k.lift(c) for c in g)


def ore_order(ctx, p):
    """Ore's order at a singular p, read off the phi-Newton polygons of f
    (Ore; Montes and Nart, J. Algebra 146, 1992).

    For each singular factor g of f mod p, phi = G, its lift, expands
    f = sum a_i phi^i, each a_i of degree < deg g, with quotients q_i =
    sum_(j >= i) a_j phi^(j-i); N is the lower convex hull of the points
    (i, v_p(a_i)), i <= e, v_p of a_i the least valuation of its
    coefficients.  Ore's order is R + sum A pi^j q_i(pi) / p^floor(y_N(i))
    over g, 0 < i < e and j < deg g, and deg [it:R] = deg p * sum deg g *
    floor(y_N(i)) (Ore's index) is checked.  Where f is p-regular it is
    O_p.  Elsewhere each generator is still integral, as the theorem of the
    polygon bounds v(q_i(theta)) below by y_N(i) at every root theta of f,
    and the first radical step of _saturation certifies that it is a ring;
    where it is not one, the saturation starts again from R."""
    rec = dedekind(ctx, p)
    gens = []   # (floor(y_N(i)), q_i, deg g)
    for g, e in rec.factors:
        if rec.regular(g):
            continue
        d = gpoly.deg(g)
        phi, quo, taylor, quots = _lift_to_ax(rec.k, g), ctx.f.coeffs, [], []
        for _ in range(e + 1):
            quo, a = gpoly.divmod_poly(ctx.ring, quo, phi)
            taylor.append(a)
            quots.append(quo)
        hull = []   # the vertices of N
        for x2, y2 in [(i, min(_valuation(c, p) for c in a if c))
                       for i, a in enumerate(taylor) if a]:
            while len(hull) > 1:
                (x0, y0), (x1, y1) = hull[-2:]
                if (y1 - y0) * (x2 - x0) < (y2 - y0) * (x1 - x0):
                    break
                hull.pop()
            hull.append((x2, y2))
        for (s, ys), (t, yt) in zip(hull, hull[1:]):
            gens += [(ys + (s - i) * (ys - yt) // (t - s), quots[i - 1], d)
                     for i in range(max(s, 1), t)]
    top = max(n for n, _, _ in gens)
    den = p ** top
    cols = [tuple(c * den for c in e) for e in ctx.power_vectors]
    for n, quo, d in gens:
        if n:
            quo = tuple(c * p ** (top - n) for c in quo)
            cols += [ctx.eval_at_pi((ctx.ring.zero(),) * j + quo)
                     for j in range(d)]
    lattice = FracIdeal.from_columns(ctx, cols, den)
    if -lattice.covolume() != int(p.degree) * sum(n * d for n, _, d in gens):
        raise _internal(ctx, "maximal_order", "Ore's order misses Ore's index", p)
    return Order(lattice)


def _valuation(a, p):
    """v_p(a) for a nonzero a in A."""
    v, (quot, rem) = 0, a.divmod(p)
    while not rem:
        v, (quot, rem) = v + 1, quot.divmod(p)
    return v


def kummer_dedekind(order, p):
    """Splitting of p in the monogenic order R = A[pi] with regularity flags.

    Read from the Dedekind record: the factor g of multiplicity e of f mod
    p yields the prime (p, G(pi)) with residue degree deg g, regular unless
    g divides z.  Only this report builds the ideals.
    """
    ctx = order.ctx
    if order.ideal != FracIdeal.unit_ideal(ctx):
        raise InputError("Kummer-Dedekind splitting needs the monogenic order")
    return _splitting_report(ctx, p)


@memoized
def _splitting_report(ctx, p):
    """kummer_dedekind for the monogenic order of ctx."""
    rec = dedekind(ctx, p)
    p_el = KElement.from_fqpoly(ctx, p)
    primes = []
    for g, e in rec.factors:
        g_pi = KElement(ctx, ctx.eval_at_pi(_lift_to_ax(rec.k, g)))
        ideal = FracIdeal.from_elements(ctx, [p_el, g_pi])
        primes.append(PrimeAbove(p, ideal, e, gpoly.deg(g), rec.regular(g)))
    primes.sort(key=lambda q: q.ideal.canonical_key())
    return SplittingReport(p, tuple(primes))


@memoized
def discriminant_of_f(ctx):
    """Monic disc(f)."""
    return discriminant(ctx.f, ctx.resultant())


@memoized
def discriminant_factors(ctx):
    """The pairs (p, multiplicity) of the prime factorization of disc(f),
    in (degree, encoding) order; each p is recorded as a verified prime."""
    out = []
    for fac, mult in gpoly.factor(ctx.field, list(discriminant_of_f(ctx).coeffs),
                                  seed=ctx.seed):
        p = FqPoly(ctx.field, fac)
        ctx.cache[("prime", p)] = True
        out.append((p, mult))
    return out


def _pattern(k, fbar):
    """The splitting type at p not dividing disc(f), from f mod p over a
    field k isomorphic to A/p: its distinct-degree factor g_d gives
    deg(g_d)/d unramified primes of residue degree d (Rosen, GTM 210,
    ch. 3)."""
    return tuple(sorted((1, d) for g, d in gpoly.distinct_degree(k, fbar)
                        for _ in range(gpoly.deg(g) // d)))


_SPLIT, _INERT = ((1, 1), (1, 1)), ((1, 2),)


@memoized
def type_counts(ctx, degree):
    """Counter of the splitting types of all primes of the given degree:
    the one census that partial_products and count_places read.

    Only the primes of disc(f) are listed, from its factorization, and each
    is counted with its type from primes_above_in_max.  Every other prime
    p of degree D has the type of f(alpha, x) over E = GF(q^D) for any
    root alpha of p, because A/p = F_q(alpha) through T -> alpha, and the
    roots of the primes of degree D are the Frobenius orbits of size D in
    E (Rosen, GTM 210, ch. 1-3).  So the count walks alpha over F_q for
    D = 1, and otherwise over one g^k per orbit, k -> kq mod q^D - 1 on
    the logs of E's generator g; an alpha with disc(f)(alpha) = 0 is a
    root of a prime of disc(f) and is skipped.  For rank 2 and odd q the
    type is Euler's criterion on the discriminant a^2 - 4b of x^2 + ax +
    b: split where it is a square at alpha, inert where it is not.  Where
    E is too large to tabulate, the primes of degree D are sieved and f is
    reduced into each A/p.  The walk refuses a degree with q^D >
    SIEVE_LIMIT before it allocates anything.  The types counted must
    number as many as Gauss's count of the primes of degree D.
    """
    field = ctx.field
    size = field.q ** degree
    if size > SIEVE_LIMIT:
        raise BudgetExceeded(f"the census of degree {degree} over F_{field.q} "
                             f"walks {field.q}^{degree} > {SIEVE_LIMIT} elements")
    if degree == 1 or fits_table(size):
        counts = _count_at_roots(ctx, degree)
    else:
        disc = discriminant_of_f(ctx)
        counts = Counter(_pattern(*ctx.f.reduce_mod(p))
                         for p in monic_irreducibles(field, degree)
                         if not (disc % p).is_zero())
    for p, _ in discriminant_factors(ctx):
        if p.degree == degree:
            counts[primes_above_in_max(ctx, p)] += 1
    if sum(counts.values()) != _prime_count(field.q, degree):
        raise _internal(ctx, "type_counts", "orbits and primes of disc(f) "
                        "miss Gauss's count", f"each prime of degree {degree}")
    for pairs in counts:
        if sum(e * f for e, f in pairs) != ctx.r:
            raise _internal(ctx, "type_counts", "sum of e*f is not r",
                            f"a prime of degree {degree}")
    return counts


def _count_at_roots(ctx, degree):
    """type_counts at the roots alpha in E = F_q (degree 1) or GF(q^degree)."""
    field = ctx.field
    if degree == 1:
        big, alphas = field, field.elements()
    else:
        big = gf(field.p, field.e * degree)
        alphas = map(big.gen_power, _orbit_logs(field.q, degree))
    emb = embedding(field, big)

    def in_big(c):
        return [emb(a) for a in c.coeffs]

    evaluate = gpoly.eval_poly
    counts = Counter()
    if ctx.r == 2 and field.p != 2:
        b, a = ctx.f.coeffs[0], ctx.f.coeffs[1]
        disc = in_big(a * a - b.scale(field.from_int(4)))
        for alpha in alphas:
            d = evaluate(big, disc, alpha)
            if d:
                counts[_SPLIT if big.is_square(d) else _INERT] += 1
        return counts
    disc = in_big(discriminant_of_f(ctx))
    coeffs = [in_big(c) for c in ctx.f.coeffs]
    for alpha in alphas:
        if evaluate(big, disc, alpha):
            counts[_pattern(big, [evaluate(big, c, alpha) for c in coeffs])] += 1
    return counts


@functools.cache
def _orbit_logs(q, degree):
    """The least k of each Frobenius orbit k, kq, kq^2, ... (mod q^degree - 1)
    of size degree, in increasing order: one log per prime of that degree."""
    n = q ** degree - 1
    seen = bytearray(n)
    out = []
    for k in range(1, n):
        if seen[k]:
            continue
        size, j = 1, k * q % n
        seen[k] = 1
        while j != k:
            seen[j] = 1
            size += 1
            j = j * q % n
        if size == degree:
            out.append(k)
    return tuple(out)


def _prime_count(q, degree):
    """Gauss's count of the monic irreducibles of the given degree over F_q:
    (1/D) sum over squarefree d | D of mu(d) q^(D/d)."""
    total = 0
    ells = gpoly.prime_divisors(degree) if degree > 1 else []
    for mask in range(1 << len(ells)):
        d, sign = 1, 1
        for i, ell in enumerate(ells):
            if mask >> i & 1:
                d, sign = d * ell, -sign
        total += sign * q ** (degree // d)
    return total // degree


def order_discriminant(order):
    """Monic determinant of the trace-form Gram matrix of an A-basis:
    C^T H C / d^2 for its HNF columns C over d and the Hankel matrix
    H = (s_(i+j)) of the power sums s_k = Tr(pi^k) (`_power_sums`).
    Every lattice S containing R with an A-valued trace form, ring or
    not, has disc(S) [S:R]^2 = disc(f), so this certifies no saturation,
    and no stage reads it."""
    ctx = order.ctx
    r, s = ctx.r, _power_sums(ctx)
    cols = order.ideal.basis_columns()
    den2 = order.ideal.den * order.ideal.den
    hc = [[_dot(s[i:i + r], c) for i in range(r)] for c in cols]
    gram = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            gram[i][j] = gram[j][i] = _dot(cols[i], hc[j]).exact_div(den2)
    d = amatrix.det(gram)
    if d.is_zero():
        raise _internal(ctx, "order_discriminant",
                        "degenerate trace form on an order")
    return d.monic()


@memoized
def _power_sums(ctx):
    """s_0 .. s_(2r-2), s_k = Tr(pi^k), by Newton's identities from the
    coefficients of f = x^r + c_(r-1) x^(r-1) + ... + c_0: the entries
    Tr(pi^i pi^j) = s_(i+j) of the Hankel matrix of the trace form."""
    r, F = ctx.r, ctx.field
    c = [ctx.f.coeff(i) for i in range(r)]
    s = [FqPoly.const(F, F.from_int(r))]
    for k in range(1, 2 * r - 1):
        acc = FqPoly.zero(F)
        for i in range(1, min(k - 1, r) + 1):
            acc = acc + c[r - i] * s[k - i]
        if k <= r:
            acc = acc + c[r - k].scale(k % F.p)
        s.append(-acc)
    return s


def p_radical(order, p):
    """S/pS as the quotient of lattices and as an F_q-algebra.  The radical
    of pS in S (Frobenius-kernel method) is quo.pullback of the nilradical
    of alg, one HNF, taken only by a caller that uses it."""
    quo = LatticeQuotient(order.ideal,
                          order.ideal.scale(KElement.from_fqpoly(order.ctx, p)))
    return quo, quo.algebra()


@memoized
def maximal_order(ctx):
    """Integral closure O_K of A in K: R times the p-saturation
    (`p_saturation`) at each singular prime.  A library function; no
    stage forms it."""
    result = FracIdeal.unit_ideal(ctx)
    for p in singular_primes(ctx):
        result = result * p_saturation(ctx, p).ideal
    return Order(result)


@memoized
def _saturation(ctx, p):
    """(O, O/pO) for the p-saturation O of R at a singular p, with
    O/pO = O_K/pO_K over F_q, certified by the loop below; its faults
    name the stage maximal_order.

    The saturation opens at Ore's order (`ore_order`), which is O where
    f is p-regular, and goes on with radical steps S -> (rad:rad) until
    one leaves S fixed.  Each step builds S/pS and its nilradical first,
    and S/pS's product table fails unless S is a ring; a ring that is a
    finitely generated A-module lies in O, so the first step certifies
    the start, and where Ore's lattice is no ring the saturation starts
    again from R.  The nilradical is pulled back to the radical lattice
    only on a step that goes on to take the colon.

    The step that would confirm S = O takes no colon where the tame bound
    is met: D(S) = n(S), for D(S) = deg p * v_p(disc S) and n(S) the
    F_q-dimension of the nilradical of S/pS, both read off what the step
    has built: disc S = [S:R]^-2 disc f, and [S:R] is a power of p of
    degree -S.covolume(), so D(S) = deg p * v_p(disc f) + 2 S.covolume().
    Proof: let O be the p-saturation and i = dim O_p/S_p.
    Then D(S) = D(O) + 2i, as disc S = [O:S]^2 disc O.  D(O) >= n(O) by
    Dedekind's different theorem, d_P >= e_P - 1 with equality exactly
    when the characteristic does not divide e_P (Stichtenoth, Algebraic
    Function Fields and Codes, Thm 3.5.1), since D(O) = sum d_P f_P deg p
    and n(O) = sum (e_P - 1) f_P deg p over the primes P of O above p.
    And n(O) >= n(S) - i: the radical J_S of pS lies in J_O, so O/J_O is
    a quotient of O/J_S, of dimension i + dim S/J_S.  So D(S) >= n(S) + i,
    and D(S) = n(S) forces i = 0, S = O.  Conversely the bound is met at O
    when every e_P is prime to the characteristic, so the colon is taken
    only on growth steps and at wild primes."""
    mult = _valuation(discriminant_of_f(ctx), p)
    sat = ore_order(ctx, p)
    for step in range(mult + 2):
        with _naming(ctx, "maximal_order", p):
            try:
                quo, alg = p_radical(sat, p)
            except InternalCheckError as exc:
                if step or str(exc) != NOT_A_RING:
                    raise
                sat = Order.monogenic(ctx)
                quo, alg = p_radical(sat, p)
            nil = alg.nilradical_basis()
        if int(p.degree) * mult + 2 * sat.ideal.covolume() == len(nil):
            break
        rad = quo.pullback(nil)
        grown = Order(rad.colon(rad))
        if grown.ideal == sat.ideal:
            break
        sat = grown
    else:  # pragma: no cover
        raise _internal(ctx, "maximal_order", "saturation did not converge", p)
    return sat, alg


def p_saturation(ctx, p):
    """O = {z in O_K : p^n z in R for some n}, the largest p-overorder of R:
    `_saturation` at a p that `_is_singular` finds singular, and R at
    every other p; no other prime is saturated."""
    if _is_singular(ctx, p):
        return _saturation(ctx, p)[0]
    return Order.monogenic(ctx)


@memoized
def _is_singular(ctx, p):
    """Does p lie below a singular prime of R?  Only a p whose square
    divides disc(f) = [O_K:R]^2 disc(O_K) can divide the index, and such
    a p does exactly when its Dedekind record has z != 1; no ideal is
    built and disc(f) is not factored."""
    return (_valuation(discriminant_of_f(ctx), p) > 1
            and gpoly.deg(dedekind(ctx, p).z) > 0)


@memoized
def singular_primes(ctx):
    """Every monic irreducible p of A lying below a singular prime of R,
    read off the factorization of disc(f) by `_is_singular`."""
    out = [p for p, _ in discriminant_factors(ctx) if _is_singular(ctx, p)]
    out.sort(key=poly_order_key)
    return out


@memoized
def primes_above_in_max(ctx, p):
    """The sorted pairs (e, f) of the primes of O_K above p: the splitting
    type of p, the one reader of it; no ideal is built.

    At p not dividing disc(f), f mod p is squarefree and R is maximal at
    p, so the type is the distinct-degree pattern of f mod p.  At another
    p that is not singular every Kummer-Dedekind prime of R above p is
    regular, so R and O_K agree at p and the pairs are the (e_i, deg g_i)
    of the Dedekind record.  At a singular p the saturation has built
    O_K/pO_K over F_q, and it is decomposed into its local components
    O_K/Q^e: e*f*deg p is the F_q-dimension of a component, and f*deg p
    that of its residue field.  Every branch must give sum e*f = r, and
    none reads another prime.
    """
    _require_prime(ctx, p)
    if not (discriminant_of_f(ctx) % p).is_zero():
        pairs = _pattern(*ctx.f.reduce_mod(p))
    elif not _is_singular(ctx, p):
        pairs = [(e, gpoly.deg(g)) for g, e in dedekind(ctx, p).factors]
    else:
        alg, deg = _saturation(ctx, p)[1], int(p.degree)
        with _naming(ctx, "primes_above_in_max", p):
            comps = kalgebra.local_components(alg)
        pairs = []
        for dim, f_dim in comps:
            if f_dim <= 0 or f_dim % deg or dim % f_dim:  # pragma: no cover
                raise _internal(ctx, "primes_above_in_max",
                                "bad local component dimensions", p)
            pairs.append((dim // f_dim, f_dim // deg))
    if sum(e * f for e, f in pairs) != ctx.r:
        raise _internal(ctx, "primes_above_in_max", "sum of e*f is not r", p)
    return tuple(sorted(pairs))


@memoized
def infinity_context(ctx):
    """Context for the monic integral model at infinity (T = 1/U)."""
    g, _ = infinity_model(ctx.f)
    ictx = AlgebraContext(ctx.field, g, seed=ctx.seed, check=False,
                          tvar="U", xvar="y")
    ictx.cache[("prime", FqPoly.gen(ctx.field))] = True   # U is prime
    return ictx


def infinite_places(ctx):
    """The splitting type of (U) in the model at infinity: the pairs (e, f)
    of the places over T = infinity."""
    return primes_above_in_max(infinity_context(ctx), FqPoly.gen(ctx.field))
