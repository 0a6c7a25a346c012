"""Constant field degree, genus, place census, and the zeta numerator L_K.

The numerator is computed over the full constant field F_{q^m} from place
counts of F_q-degree m, 2m, ..., mg via the Newton recursion on the zeta
series, then completed by the functional equation.  The finite places
are counted from primes.type_counts, the one census of the primes of
each degree; the places at infinity are the splitting type of (U) in
the model at infinity.  The genus reads the degrees of
the two discriminants off the covolumes of the saturations at the
singular primes, with no maximal order formed.  All
arithmetic is exact, the root-magnitude (Weil) gate included.  A failed
check names its stage and (q, f).
"""

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import InputError, InternalCheckError
from .gf import gf, embedding
from .fqpoly import FqPoly
from .bifactor import count_irreducible_factors
from . import gpoly
from .context import _internal, _naming, memoized
from .primes import (discriminant_of_f, infinite_places, infinity_context,
                     p_saturation, singular_primes, type_counts)


class LPolynomial(namedtuple("LPolynomial", "m g coeffs qm")):
    """L_K of genus g over F_{q^m}, qm = q^m: `coeffs` are the integers
    a_0 .. a_{2g}, relative to F_{q^m}.  Construction checks a_0 = 1, the
    functional equation, L(1) > 0 and the root magnitudes."""
    __slots__ = ()

    def __new__(cls, m, g, coeffs, qm):
        self = super().__new__(cls, m, g, coeffs, qm)
        if not coeffs or coeffs[0] != 1:
            raise InternalCheckError("L-polynomial must have constant term 1")
        for i in range(g + 1):
            if coeffs[2 * g - i] != qm ** (g - i) * coeffs[i]:
                raise InternalCheckError("functional equation violated")
        if self.value_at(Fraction(1)) <= 0:
            raise InternalCheckError("L(1) must be positive")
        if g > 0 and not _weil_roots_ok(coeffs, g, qm):
            raise InternalCheckError("root off the circle |t| = q^(-m/2)")
        return self

    @classmethod
    def _make(cls, iterable):
        """Through __new__ and its checks, for _replace as well."""
        return cls(*iterable)

    def value_at(self, t):
        return gpoly.eval_poly(_Rationals(), self.coeffs, t)

    def to_json_dict(self):
        return {"m": self.m, "g": self.g, "L": list(self.coeffs)}


class _Rationals:
    """Q with the element protocol of gf.GF, so gpoly runs over Fraction."""

    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def inv(self, a):
        return 1 / Fraction(a)


def _weil_roots_ok(coeffs, g, qm):
    """Every root t of L has |t| = qm^(-1/2), decided exactly.

    By the functional equation t^g L(1/t) = h(t + qm/t), where
    h(y) = a_g + sum_k a_(g-k) D_k(y) and D_k(t + qm/t) = t^k + (qm/t)^k.
    The roots lie on the circle iff every root y_i of h is real with
    y_i^2 <= 4 qm, i.e. iff every distinct root of
    H(u) = h(sqrt u) h(-sqrt u) = +-prod (u - y_i^2) lies in [0, 4 qm].
    Roots at the two ends are divided out; a Sturm chain of the rest counts
    its distinct roots inside, and its last term is gcd(H, H').
    """
    Q = _Rationals()
    y = (Fraction(0), Fraction(1))
    h, d_prev, d_cur = (Fraction(coeffs[g]),), (Fraction(2),), y
    for k in range(1, g + 1):
        h = gpoly.add(Q, h, gpoly.scale(Q, d_cur, coeffs[g - k]))
        d_prev, d_cur = d_cur, gpoly.sub(Q, gpoly.mul(Q, y, d_cur),
                                         gpoly.scale(Q, d_prev, qm))
    even, odd = h[0::2], h[1::2]
    big_h = gpoly.sub(Q, gpoly.mul(Q, even, even),
                      gpoly.mul(Q, y, gpoly.mul(Q, odd, odd)))
    bound = 4 * qm
    for end in (0, bound):
        while gpoly.eval_poly(Q, big_h, end) == 0:
            big_h = gpoly.divmod_poly(Q, big_h, (-end, 1))[0]
    chain = [big_h]
    nxt = gpoly.normalize([i * c for i, c in enumerate(big_h)][1:])
    while nxt:
        chain.append(nxt)
        nxt = gpoly.neg(Q, gpoly.rem(Q, chain[-2], chain[-1]))

    def variations(x):
        signs = [v > 0 for v in (gpoly.eval_poly(Q, c, x) for c in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(0) - variations(bound) == len(big_h) - len(chain[-1])


@memoized
def constant_field_degree(ctx):
    """Degree m of the full constant field F_{q^m} of K.

    m divides the F_q-degree of every place of K (Rosen, GTM 210, ch. 8),
    so it divides g = gcd(r, residue degrees of the places over infinity).
    Over F_{q^i}(T), f has gcd(i, m) irreducible factors, so the one
    count at i = g is gcd(g, m) = m, and g = 1 settles m = 1 with no count.
    """
    field = ctx.field
    g = ctx.r
    for _, f_res in infinite_places(ctx):
        g = math.gcd(g, f_res)
    if g == 1:
        return 1
    big = gf(field.p, field.e * g)
    fg = ctx.f.map_coefficients(embedding(field, big), big)
    m = count_irreducible_factors(fg, seed=ctx.seed)
    if g % m:
        raise _internal(ctx, "constant_field_degree",
                        f"{m} factors over F_(q^{g})(T) do not divide {g}")
    return m


@memoized
def genus(ctx):
    """Genus over the full constant field.  disc(f) = [O:R]^2 disc(O) and
    deg [O:R] = -O.covolume() give deg disc(O_K) = deg disc(f) +
    2 covol(O_K), where covol(O_K) is the sum of the covolumes of the
    p-saturations at the singular primes, as [O_K:R] is the product of
    their indices; at infinity v_U(disc O_inf) = v_U(disc g) +
    2 covol(O_U) for the U-saturation O_U of the model g."""
    m = constant_field_degree(ctx)
    ictx = infinity_context(ctx)
    u = FqPoly.gen(ctx.field)
    # v_U(disc g) is the number of its low coefficients that vanish
    v_u = next(i for i, c in enumerate(discriminant_of_f(ictx).coeffs) if c)
    total = (int(discriminant_of_f(ctx).degree)
             + 2 * sum(p_saturation(ctx, p).ideal.covolume()
                       for p in singular_primes(ctx))
             + v_u + 2 * p_saturation(ictx, u).ideal.covolume())
    g = Fraction(1) - Fraction(ctx.r, m) + Fraction(total, 2 * m)
    if g.denominator != 1 or g < 0:
        raise _internal(ctx, "genus", f"genus formula gave {g}; splitting "
                        "or model data is inconsistent")
    return int(g)


@memoized
def count_places(ctx, d):
    """Number of places of K of F_q-degree d (finite and infinite)."""
    if d < 1:
        raise InputError("place degree must be >= 1")
    count = 0
    for k in range(1, d + 1):
        if d % k != 0:
            continue
        for pairs, n in type_counts(ctx, k).items():
            count += n * sum(k * f_res == d for _, f_res in pairs)
    # the places over T = infinity lie over (U) in the model at infinity
    count += sum(f_res == d for _, f_res in infinite_places(ctx))
    if count and d % constant_field_degree(ctx):
        # a place of degree not divisible by m contradicts the constant field
        raise _internal(ctx, "count_places",
                        f"found a place of degree {d}, not divisible by m")
    return count


@memoized
def l_polynomial(ctx):
    """The zeta numerator L_K over the full constant field F_{q^m}."""
    m = constant_field_degree(ctx)
    g = genus(ctx)
    qm = ctx.field.q ** m
    # point counts over F_{q^m}^j from places of F_{q^m}-degree dividing j
    n_counts = []
    for j in range(1, g + 1):
        total = 0
        for dd in range(1, j + 1):
            if j % dd == 0:
                total += dd * count_places(ctx, m * dd)
        n_counts.append(total)
    p_sums = [qm ** j + 1 - n_counts[j - 1] for j in range(1, g + 1)]
    a = [1]
    for k in range(1, g + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += p_sums[i - 1] * a[k - i]
        if acc % k != 0:
            raise _internal(ctx, "l_polynomial",
                            f"Newton recursion left a fraction at a_{k}")
        a.append(-acc // k)
    for i in range(g - 1, -1, -1):
        a.append(qm ** (g - i) * a[i])
    with _naming(ctx, "l_polynomial"):
        return LPolynomial(m, g, tuple(a), qm)
