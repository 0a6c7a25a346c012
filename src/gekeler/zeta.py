"""Constant field degree, genus, place census, and the zeta numerator L_K.

The numerator is computed over the full constant field F_{q^m} from place
counts of F_q-degree m, 2m, ..., mg via the Newton recursion on the zeta
series, then completed by the functional equation.  All arithmetic is
exact, the root-magnitude (Weil) gate included.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalCheckError
from .gf import gf, embedding
from .fqpoly import FqPoly
from .bifactor import count_irreducible_factors
from . import gpoly
from .primes import (census_primes, maximal_order, order_discriminant,
                     splitting_type, infinity_context, infinity_order)


@dataclass(frozen=True)
class LPolynomial:
    m: int
    g: int
    coeffs: tuple  # integers a_0 .. a_{2g}, relative to F_{q^m}
    qm: int

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise InternalCheckError("L-polynomial must have constant term 1")
        g, qm = self.g, self.qm
        for i in range(g + 1):
            if self.coeffs[2 * g - i] != qm ** (g - i) * self.coeffs[i]:
                raise InternalCheckError("functional equation violated")
        if self.value_at(Fraction(1)) <= 0:
            raise InternalCheckError("L(1) must be positive")
        if g > 0 and not _weil_roots_ok(self.coeffs, g, qm):
            raise InternalCheckError("root off the circle |t| = q^(-m/2)")

    def value_at(self, t):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

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


def constant_field_degree(ctx):
    """Degree m of the full constant field F_{q^m} of K."""
    ctx.require_separable()
    if "m" in ctx.cache:
        return ctx.cache["m"]
    r = ctx.r
    field = ctx.field
    divisors = sorted((i for i in range(1, r + 1) if r % i == 0), reverse=True)
    m = 1
    for i in divisors:
        if i == 1:
            break
        big = gf(field.p, field.e * i)
        emb = embedding(field, big)
        fi = ctx.f.map_coefficients(emb, big)
        if count_irreducible_factors(fi, seed=ctx.seed) == i:
            m = i
            break
    ctx.cache["m"] = m
    return m


def genus(ctx):
    """Genus over the full constant field, from the two discriminants."""
    if "g" in ctx.cache:
        return ctx.cache["g"]
    m = constant_field_degree(ctx)
    d_fin = order_discriminant(maximal_order(ctx))
    d_inf = order_discriminant(infinity_order(ctx))
    u = FqPoly.gen(ctx.field)
    v_u = 0
    while True:
        q, r = d_inf.divmod(u)
        if not r.is_zero():
            break
        d_inf = q
        v_u += 1
    total = int(d_fin.degree) + v_u
    g = Fraction(1) - Fraction(ctx.r, m) + Fraction(total, 2 * m)
    if g.denominator != 1 or g < 0:
        raise InternalCheckError(
            f"genus formula gave {g}; splitting or model data is inconsistent")
    ctx.cache["g"] = int(g)
    return int(g)


def count_places(ctx, d):
    """Number of places of K of F_q-degree d (finite and infinite)."""
    if d < 1:
        raise InputError("place degree must be >= 1")
    key = ("places", d)
    if key in ctx.cache:
        return ctx.cache[key]
    count = 0
    for k in range(1, d + 1):
        if d % k != 0:
            continue
        for p in census_primes(ctx, k):
            count += sum(k * f_res == d for _, f_res in splitting_type(ctx, p))
    # the places over T = infinity lie over (U) in the model at infinity
    count += sum(f_res == d for _, f_res in
                 splitting_type(infinity_context(ctx), FqPoly.gen(ctx.field)))
    if count and d % constant_field_degree(ctx):
        # a place of degree not divisible by m contradicts the constant field
        raise InternalCheckError("found a place of degree not divisible by m")
    ctx.cache[key] = count
    return count


def l_polynomial(ctx):
    """The zeta numerator L_K over the full constant field F_{q^m}."""
    if "L" in ctx.cache:
        return ctx.cache["L"]
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
            raise InternalCheckError("Newton recursion left a fraction")
        a.append(-acc // k)
    for i in range(g - 1, -1, -1):
        a.append(qm ** (g - i) * a[i])
    out = LPolynomial(m, g, tuple(a), qm)
    ctx.cache["L"] = out
    return out


def effective_divisor_counts(ctx, up_to):
    """Effective divisor counts of F_{q^m}-degree 0..up_to from the census."""
    m = constant_field_degree(ctx)
    b = [0] * (up_to + 1)
    for d in range(1, up_to + 1):
        b[d] = count_places(ctx, m * d)
    counts = [0] * (up_to + 1)
    counts[0] = 1
    for d in range(1, up_to + 1):
        if b[d] == 0:
            continue
        # multiply the generating series by (1 - t^d)^(-b_d)
        for _ in range(b[d]):
            for j in range(d, up_to + 1):
                counts[j] += counts[j - d]
    return counts


def zeta_series_coefficients(lpoly, up_to):
    """Coefficients of L(t)/((1-t)(1-q^m t)) through degree up_to."""
    qm = lpoly.qm
    out = []
    acc = [0] * (up_to + 1)
    # 1/((1-t)(1-qt)) has coefficients (q^(j+1)-1)/(q-1)
    base = [(qm ** (j + 1) - 1) // (qm - 1) for j in range(up_to + 1)]
    for j in range(up_to + 1):
        total = 0
        for i, c in enumerate(lpoly.coeffs):
            if i <= j:
                total += c * base[j - i]
        out.append(total)
    return out
