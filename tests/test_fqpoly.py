import random

import pytest

from gekeler import fqpoly, gpoly
from gekeler.bifactor import is_irreducible_bivariate
from gekeler.errors import BudgetExceeded
from gekeler.gf import gf, gf_of_order
from gekeler.parse import parse_bipoly
from gekeler.fqpoly import (FqPoly, NEG_INF, poly_gcd, poly_xgcd, poly_lcm,
                            is_irreducible, monic_irreducibles, powmod)


def rand_poly(field, maxdeg, rng):
    return FqPoly(field, [rng.randrange(field.q) for _ in range(maxdeg + 1)])


def test_degree_sentinel_orders_below_everything():
    F = gf(3)
    z = FqPoly.zero(F)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert z.degree < -10 ** 9


def test_ring_ops_against_random_identities():
    F = gf(3)
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_poly(F, 4, rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == FqPoly.zero(F)
        if not b.is_zero():
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_xgcd_with_zero_gives_monic():
    F = gf(3)
    T = FqPoly.gen(F)
    f = FqPoly.const(F, 2) * (T ** 3 + T + FqPoly.one(F))
    g, u, v = poly_xgcd(f, FqPoly.zero(F))
    assert g == f.monic()
    assert u * f + v * FqPoly.zero(F) == g


def test_xgcd_common_factor_by_construction():
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    g, u, v = poly_xgcd(T ** 2 - one, T - one)
    assert g == (T - one)
    assert u * (T ** 2 - one) + v * (T - one) == g


def test_xgcd_against_exhaustive_divisor_oracle():
    # independent oracle: maximal-degree monic common divisor by scanning
    # all monic polynomials of bounded degree
    F = gf(3)
    rng = random.Random(5)

    def all_monic_upto(d):
        for deg in range(d + 1):
            for low in range(F.q ** deg):
                coeffs = []
                n = low
                for _ in range(deg):
                    coeffs.append(n % F.q)
                    n //= F.q
                coeffs.append(1)
                yield FqPoly(F, coeffs)

    for _ in range(25):
        a = rand_poly(F, 3, rng)
        b = rand_poly(F, 3, rng)
        if a.is_zero() or b.is_zero():
            continue
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g.divides(a) and g.divides(b)
        best = None
        for d in all_monic_upto(min(int(a.degree), int(b.degree))):
            if d.divides(a) and d.divides(b):
                if best is None or d.degree > best.degree:
                    best = d
        assert best.degree == g.degree


def test_lcm_and_gcd_product_law():
    F = gf(2)
    rng = random.Random(3)
    for _ in range(50):
        a, b = rand_poly(F, 4, rng), rand_poly(F, 4, rng)
        if a.is_zero() or b.is_zero():
            continue
        assert poly_gcd(a, b) * poly_lcm(a, b) == (a * b).monic()


def test_is_irreducible_and_enumeration_counts():
    F = gf(3)
    # number of monic irreducibles of degree d over F_q: Gauss's formula
    assert len(list(monic_irreducibles(F, 1))) == 3
    assert len(list(monic_irreducibles(F, 2))) == 3
    assert len(list(monic_irreducibles(F, 3))) == 8
    F2 = gf(2)
    assert len(list(monic_irreducibles(F2, 4))) == 3
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    assert is_irreducible(T ** 2 + one)
    assert not is_irreducible(T ** 2 - one)
    assert not is_irreducible(one)


def _rabin_monic_irreducibles(field, degree):
    """Reference list: the Rabin test on every monic candidate, in encoding
    order (the lower coefficients are the base-q digits of the index)."""
    q = field.q
    out = []
    for low in range(q ** degree):
        coeffs = []
        for _ in range(degree):
            low, c = divmod(low, q)
            coeffs.append(c)
        coeffs.append(1)
        if gpoly.is_irreducible(field, coeffs):
            out.append(FqPoly(field, coeffs))
    return tuple(out)


def _mobius(n):
    out = 1
    for ell in gpoly.prime_divisors(n):
        if n % (ell * ell) == 0:
            return 0
        out = -out
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_sieve_matches_the_rabin_loop(q):
    F = gf_of_order(q)
    fqpoly._sieve.cache_clear()
    d = 1
    while q ** d <= 729:
        assert tuple(monic_irreducibles(F, d)) == _rabin_monic_irreducibles(F, d)
        d += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_sieve_counts_match_gauss(q):
    # (1/d) sum_{e | d} mu(d/e) q^e monic irreducibles of degree d; above
    # q^d = 729 the Rabin loop costs seconds (1.3 s at 3^8 alone), so only
    # the count is checked there
    F = gf_of_order(q)
    d = 1
    while q ** d <= 3 ** 8:
        gauss = sum(_mobius(d // e) * q ** e for e in range(1, d + 1)
                    if d % e == 0) // d
        assert len(tuple(monic_irreducibles(F, d))) == gauss
        d += 1


def test_sieve_refuses_a_huge_list_and_hensel_needs_none():
    F = gf_of_order(1_000_000_007)
    with pytest.raises(BudgetExceeded):
        monic_irreducibles(F, 1)
    # the irreducibility test takes the first linear prime that works,
    # without listing the others
    assert is_irreducible_bivariate(parse_bipoly(F, "x^3 + T*x + T^4 + 1"))


def test_powmod_matches_naive():
    F = gf(3)
    T = FqPoly.gen(F)
    mod = T ** 3 + T + FqPoly.one(F)
    base = T + FqPoly.const(F, 2)
    naive = FqPoly.one(F)
    for _ in range(10):
        naive = (naive * base) % mod
    assert powmod(base, 10, mod) == naive


def test_operator_results_are_normalised():
    # operators wrap gpoly's tuples without re-normalising them
    rng = random.Random(41)
    for p, e in ((3, 1), (2, 2), (3, 2)):
        F = gf(p, e)
        for _ in range(60):
            a = rand_poly(F, 4, rng)
            # b shares a's top coefficients, so a - b and a + (-b) cancel
            b = a + rand_poly(F, 2, rng)
            c = rand_poly(F, 3, rng)
            results = [a + b, a - b, b - a, a + (-b), a * c, -a, a.monic()]
            if not c.is_zero():
                results.extend(a.divmod(c))
            for res in results:
                assert isinstance(res.coeffs, tuple)
                assert not res.coeffs or res.coeffs[-1] != 0
                assert res == FqPoly(F, list(res.coeffs))
