"""Constant field degree, genus, place census, and the zeta numerator L_K.

The numerator is computed over the full constant field F_{q^m} from place
counts of F_q-degree m, 2m, ..., mg via the Newton recursion on the zeta
series, then completed by the functional equation.  All coefficient
arithmetic is exact; only the root-magnitude gate is numeric.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalCheckError
from .gf import gf, embedding
from .fqpoly import FqPoly, monic_irreducibles
from .bifactor import count_irreducible_factors
from .primes import (maximal_order, order_discriminant, primes_above_in_max,
                     infinity_order, infinite_places)


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
        if g > 0:
            for root in _poly_roots_complex(self.coeffs):
                if abs(abs(root) - qm ** -0.5) > 1e-9:
                    raise InternalCheckError("root off the half-line |t| = q^(-m/2)")

    def value_at(self, t):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def to_json_dict(self):
        return {"m": self.m, "g": self.g, "L": list(self.coeffs)}


def _poly_roots_complex(coeffs, iterations=600):
    """Durand-Kerner roots of an integer polynomial, deterministic start."""
    n = len(coeffs) - 1
    lead = coeffs[-1]
    cs = [complex(c) / lead for c in coeffs]

    def val(z):
        out = 0j
        for c in reversed(cs):
            out = out * z + c
        return out

    roots = [(0.4 + 0.9j) ** (k + 1) for k in range(n)]
    for _ in range(iterations):
        moved = 0.0
        for k in range(n):
            denom = 1.0 + 0j
            for j in range(n):
                if j != k:
                    denom *= roots[k] - roots[j]
            if denom == 0:  # pragma: no cover
                denom = 1e-30
            delta = val(roots[k]) / denom
            roots[k] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-14:
            break
    return roots


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
    m = constant_field_degree(ctx)
    count = 0
    if d % m == 0:
        for k in range(1, d + 1):
            if d % k != 0:
                continue
            for p in monic_irreducibles(ctx.field, k):
                for q in primes_above_in_max(ctx, p).primes:
                    if k * q.f_res == d:
                        count += 1
        for q in infinite_places(ctx).primes:
            if q.f_res == d:
                count += 1
    else:
        # cross-validation of m: a place of degree not divisible by m
        # would contradict the constant field computation
        for k in range(1, d + 1):
            if d % k != 0:
                continue
            for p in monic_irreducibles(ctx.field, k):
                for q in primes_above_in_max(ctx, p).primes:
                    if k * q.f_res == d:
                        raise InternalCheckError(
                            "found a place of degree not divisible by m")
        for q in infinite_places(ctx).primes:
            if q.f_res == d:
                raise InternalCheckError(
                    "found an infinite place of degree not divisible by m")
    ctx.cache[key] = count
    return count


def l_polynomial(ctx):
    """The zeta numerator L_K over the full constant field F_{q^m}."""
    if "L" in ctx.cache:
        return ctx.cache["L"]
    m = constant_field_degree(ctx)
    g = genus(ctx)
    qm = ctx.field.q ** m
    if g == 0:
        out = LPolynomial(m, 0, (1,), qm)
        ctx.cache["L"] = out
        return out
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
