import random

import pytest

from gekeler import fqpoly, gpoly
from gekeler.bifactor import is_irreducible_bivariate
from gekeler.errors import BudgetExceeded, InputError
from gekeler.gf import gf, gf_of_order
from gekeler.parse import parse_bipoly
from gekeler.fqpoly import (FqPoly, NEG_INF, poly_gcd, poly_lcm,
                            is_irreducible, monic_irreducibles)


def xgcd(a, b):
    """gpoly.xgcd on FqPoly values: (g, u, v) with g = u*a + v*b."""
    F = a.field
    return tuple(FqPoly(F, c) for c in gpoly.xgcd(F, a.coeffs, b.coeffs))


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
    g, u, v = xgcd(f, FqPoly.zero(F))
    assert g == f.monic()
    assert u * f + v * FqPoly.zero(F) == g


def test_xgcd_common_factor_by_construction():
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    g, u, v = xgcd(T ** 2 - one, T - one)
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
        g, u, v = xgcd(a, b)
        assert u * a + v * b == g
        assert (a % g).is_zero() and (b % g).is_zero()
        best = None
        for d in all_monic_upto(min(int(a.degree), int(b.degree))):
            if (a % d).is_zero() and (b % d).is_zero():
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
    assert FqPoly(F, gpoly.powmod(F, base.coeffs, 10, mod.coeffs)) == naive


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


def _operands(F, rng):
    """0, 1, the other constants and dense polynomials of degree 1 to 5."""
    out = [FqPoly.zero(F), FqPoly.one(F)]
    out += [FqPoly.const(F, c) for c in range(2, F.q)]
    for d in range(1, 6):
        top = rng.randrange(1, F.q)
        out.append(FqPoly(F, [rng.randrange(F.q) for _ in range(d)] + [top]))
    return out


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (3, 2)])
def test_operators_match_gpoly_on_every_operand_kind(p, e):
    # the short-circuits for 0 and 1 give gpoly's answer in the operands'
    # field, and division by the zero polynomial raises, 0 by 0 included
    F = gf(p, e)
    rng = random.Random(53 + F.q)
    ops = _operands(F, rng)
    for a in ops:
        for b in ops + [rand_poly(F, 3, rng) for _ in range(3)]:
            expected = {"+": gpoly.add(F, a.coeffs, b.coeffs),
                        "-": gpoly.sub(F, a.coeffs, b.coeffs),
                        "*": gpoly.mul(F, a.coeffs, b.coeffs)}
            got = {"+": a + b, "-": a - b, "*": a * b}
            if b.is_zero():
                for divide in (a.divmod, a.__floordiv__, a.__mod__, a.exact_div):
                    with pytest.raises(ZeroDivisionError):
                        divide(b)
            else:
                quot, rem = gpoly.divmod_poly(F, a.coeffs, b.coeffs)
                expected.update({"q": quot, "r": rem, "//": quot, "%": rem})
                got["q"], got["r"] = a.divmod(b)
                got["//"], got["%"] = a // b, a % b
                if rem:
                    with pytest.raises(InputError):
                        a.exact_div(b)
                else:
                    expected["exact"], got["exact"] = quot, a.exact_div(b)
            for op, res in got.items():
                assert res.field is F and res.coeffs == expected[op], (op, a, b)


def test_zero_and_one_operands_call_no_gpoly_routine(monkeypatch):
    F = gf(3, 2)
    zero, one = FqPoly.zero(F), FqPoly.one(F)
    x = FqPoly(F, (2, 0, 5))
    big = FqPoly(F, (1, 0, 0, 3))

    def refuse(*args):
        raise AssertionError("gpoly called on a 0 or 1 operand")

    for name in dir(gpoly):
        if not name.startswith("_") and callable(getattr(gpoly, name)):
            monkeypatch.setattr(gpoly, name, refuse)
    for y in (zero, one, x):
        assert y + zero is y and zero + y is y and y - zero is y
        assert y * one is y and one * y is y
        assert (y * zero).is_zero() and (zero * y).is_zero()
        assert y // one is y and (y % one).is_zero()
        if y:
            assert zero.divmod(y) == (zero, zero)
            assert zero.exact_div(y) is zero
        # a dividend of lower degree is its own remainder
        quot, rem = y.divmod(big)
        assert quot.is_zero() and rem is y and y % big is y
    assert zero // big is zero
    with pytest.raises(AssertionError):
        x * x
    monkeypatch.undo()
    for y in (zero, one, x):
        with pytest.raises(ZeroDivisionError):
            y.divmod(zero)


def test_gcd_list_is_the_poly_gcd_fold():
    F = gf(3)
    rng = random.Random(11)
    zero, one, two = FqPoly.zero(F), FqPoly.one(F), FqPoly.const(F, 2)
    assert fqpoly.gcd_list([], F).is_zero()
    assert fqpoly.gcd_list([zero, zero], F).is_zero()
    common = FqPoly(F, (1, 1))
    for _ in range(300):
        polys = [rng.choice([zero, one, two, rand_poly(F, 3, rng),
                             common * rand_poly(F, 2, rng)])
                 for _ in range(rng.randrange(1, 5))]
        fold = zero
        for a in polys:
            fold = poly_gcd(fold, a)
        assert fqpoly.gcd_list(polys, F) == fold
