"""Exact local matrix-count ratios and their global product.

The local value at p is m_p * (1 - 1/|p|) / prod_{q|p} (1 - 1/N(q)) with
m_p the number of conjugacy orbits, equal to the size of the local ideal
class monoid.  The global product combines the finitely many singular
m_p with the zeta ratio L_K(q^-m)/L_F(q^-1) * (1-q^-1)/(1-q^-m) * 1/m,
where L_F = 1 for the rational function field.  Everything is an exact
rational; the only limits ever taken are in the validating oracles.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import DEFAULT_BUDGET
from .context import _internal
from .primes import primes_above_in_max, singular_primes, type_counts
from .weakeq import local_icm
from .zeta import l_polynomial


class LocalRatio(namedtuple("LocalRatio", "p m_p residues value")):
    """The exact local ratio `value` at p, with m_p and `residues`, the
    triples (e, f_res, norm) per prime of O_K above p, sorted by (e, f)."""
    __slots__ = ()

    def to_json_dict(self):
        return {
            "p": self.p.to_str(),
            "m_p": self.m_p,
            "residues": [{"e": e, "f": f, "norm": n} for e, f, n in self.residues],
            "value": format_fraction(self.value),
        }


class ProductReport(namedtuple("ProductReport", "singular lpoly value")):
    """The exact global product `value`, with `singular`, the pairs
    (p, m_p) at the singular primes, and the L-polynomial `lpoly`."""
    __slots__ = ()

    def to_json_dict(self):
        return {
            "value": format_fraction(self.value),
            "singular": [{"p": p.to_str(), "m_p": m} for p, m in self.singular],
            "zeta": self.lpoly.to_json_dict(),
        }


def format_fraction(x):
    return f"{x.numerator}/{x.denominator}"


def gekeler_ratio(ctx, p):
    """The exact local ratio at p."""
    m_p = local_icm(ctx, p).m_p
    big_q = ctx.field.q ** int(p.degree)
    pairs = primes_above_in_max(ctx, p)
    value = _local_value(m_p, big_q, pairs)
    if value <= 0:  # pragma: no cover
        raise _internal(ctx, "gekeler_ratio", "local ratio must be positive", p)
    residues = tuple((e, f_res, big_q ** f_res) for e, f_res in pairs)
    return LocalRatio(p, m_p, residues, value)


def _local_value(m_p, big_q, pairs):
    """m_p (1 - 1/|p|) / prod (1 - 1/N(q)) over the pairs (e, f) of the
    primes q above p, with |p| = big_q and N(q) = big_q^f."""
    value = Fraction(m_p) * (1 - Fraction(1, big_q))
    for _, f_res in pairs:
        value /= 1 - Fraction(1, big_q ** f_res)
    return value


def gekeler_product(ctx):
    """Exact product of the local ratios over all primes of A."""
    sing = []
    value = Fraction(1)
    for p in singular_primes(ctx):
        m_p = local_icm(ctx, p).m_p
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
    from .oracle import count_matrices_with_charpoly, sl_order_closed_form
    count = count_matrices_with_charpoly(ctx, p, n, budget=budget)
    big_q = ctx.field.q ** int(p.degree)
    return Fraction(count * big_q ** (n * (ctx.r - 1)),
                    sl_order_closed_form(ctx.r, big_q, n))


def partial_products(ctx, max_degree):
    """Cumulative products of local ratios over primes of degree <= D.

    The ratio at p is m_p times a factor that depends on the splitting
    type of p alone, so each type's factor is raised to the number of
    primes of that degree and type (primes.type_counts, the census of
    every prime of the degree), and m_p follows at the singular primes of
    that degree; everywhere else R_p is maximal and m_p = 1.  Returns one
    exact running value per degree.
    """
    acc = Fraction(1)
    out = []
    for d in range(1, max_degree + 1):
        big_q = ctx.field.q ** d
        for pairs, n in type_counts(ctx, d).items():
            acc *= _local_value(1, big_q, pairs) ** n
        for p in singular_primes(ctx):
            if p.degree == d:
                acc *= local_icm(ctx, p).m_p
        out.append((d, acc))
    return out
