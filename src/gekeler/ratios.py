"""Exact local matrix-count ratios and their global product.

The local value at p is m_p * (1 - 1/|p|) / prod_{q|p} (1 - 1/N(q)) with
m_p the number of conjugacy orbits, equal to the size of the local ideal
class monoid.  The global product combines the finitely many singular
m_p with the zeta ratio L_K(q^-m)/L_F(q^-1) * (1-q^-1)/(1-q^-m) * 1/m,
where L_F = 1 for the rational function field.  Everything is an exact
rational; the only limits ever taken are in the validating oracles.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError
from .fqpoly import FqPoly
from .primes import census_primes, singular_primes, splitting_type
from .weakeq import local_icm
from .zeta import l_polynomial
from .oracle import count_matrices_with_charpoly, sl_order_closed_form, DEFAULT_BUDGET


@dataclass(frozen=True)
class LocalRatio:
    p: FqPoly
    m_p: int
    residues: tuple   # (e, f_res, norm) per prime of O_K above p, by (e, f)
    value: Fraction

    def to_json_dict(self):
        return {
            "p": self.p.to_str(),
            "m_p": self.m_p,
            "residues": [{"e": e, "f": f, "norm": n} for e, f, n in self.residues],
            "value": format_fraction(self.value),
        }


@dataclass(frozen=True)
class ProductReport:
    singular: tuple       # (p, m_p) pairs
    lpoly: object
    value: Fraction

    def to_json_dict(self):
        return {
            "value": format_fraction(self.value),
            "singular": [{"p": p.to_str(), "m_p": m} for p, m in self.singular],
            "zeta": self.lpoly.to_json_dict(),
        }


def format_fraction(x):
    return f"{x.numerator}/{x.denominator}"


def orbit_count(ctx, p):
    """m_p: conjugacy orbits with charpoly f over the completion at p."""
    return local_icm(ctx, p).m_p


def gekeler_ratio(ctx, p):
    """The exact local ratio at p."""
    ctx.require_separable()
    m_p = orbit_count(ctx, p)
    big_q = ctx.field.q ** int(p.degree)
    value = Fraction(m_p) * (1 - Fraction(1, big_q))
    residues = []
    for e, f_res in splitting_type(ctx, p):
        norm = big_q ** f_res
        value /= 1 - Fraction(1, norm)
        residues.append((e, f_res, norm))
    if value <= 0:  # pragma: no cover
        raise InternalCheckError("local ratio must be positive")
    return LocalRatio(p, m_p, tuple(residues), value)


def gekeler_product(ctx):
    """Exact product of the local ratios over all primes of A."""
    ctx.require_separable()
    sing = []
    value = Fraction(1)
    for p in singular_primes(ctx):
        m_p = orbit_count(ctx, p)
        sing.append((p, m_p))
        value *= m_p
    lpoly = l_polynomial(ctx)
    q = ctx.field.q
    m = lpoly.m
    value *= lpoly.value_at(Fraction(1, q ** m))
    value *= (1 - Fraction(1, q)) / (1 - Fraction(1, q ** m))
    value /= m
    return ProductReport(tuple(sing), lpoly, value)


def finite_level_ratio(ctx, p, n, budget=DEFAULT_BUDGET):
    """Truncated ratio at level n: count * |p|^(n(r-1)) / |SL_r(A/p^n)|."""
    ctx.require_separable()
    count = count_matrices_with_charpoly(ctx, p, n, budget=budget)
    big_q = ctx.field.q ** int(p.degree)
    return Fraction(count * big_q ** (n * (ctx.r - 1)),
                    sl_order_closed_form(ctx.r, big_q, n))


def partial_products(ctx, max_degree):
    """Cumulative products of local ratios over primes of degree <= D.

    Primes are visited in (degree, encoding) order; returns one running
    value per degree.
    """
    acc = Fraction(1)
    out = []
    for d in range(1, max_degree + 1):
        for p in census_primes(ctx, d):
            acc *= gekeler_ratio(ctx, p).value
        out.append((d, acc))
    return out
