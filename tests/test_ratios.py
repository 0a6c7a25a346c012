import math
from fractions import Fraction

import pytest

from conftest import make_ctx
from gekeler.gf import gf
from gekeler.fqpoly import FqPoly
from gekeler import ratios as G
from gekeler import oracle as O
from gekeler.weakeq import local_icm


def test_orbit_count_values():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    assert local_icm(ctx, T).m_p == 2
    assert local_icm(ctx, T - FqPoly.one(F)).m_p == 1
    # the brute-force oracle agrees at level 1 (no junk matrices yet there)
    assert O.brute_orbit_count(ctx, T, 1) == local_icm(ctx, T).m_p
    assert O.brute_orbit_count(ctx, T - FqPoly.one(F), 2) == 1


def test_local_ratio_values():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    assert G.gekeler_ratio(ctx, T).value == 2
    assert G.gekeler_ratio(ctx, T - one).value == Fraction(3, 2)
    # inert regular prime of degree 1 at r = 2: Q/(Q+1)
    lr = G.gekeler_ratio(ctx, T + one)
    assert lr.value == Fraction(3, 4)
    assert lr.residues == ((1, 2, 9),)


def test_ratio_is_one_for_totally_ramified_regular_prime():
    # e = r, f_res = 1 regular: the formula collapses to 1
    ctx = make_ctx(3, "x^2 - T")
    T = FqPoly.gen(ctx.field)
    lr = G.gekeler_ratio(ctx, T)
    assert lr.m_p == 1
    assert lr.value == 1


def test_product_values():
    assert G.gekeler_product(make_ctx(3, "x^2 - T")).value == 1
    assert G.gekeler_product(make_ctx(3, "x^2 - T^3")).value == 2
    pr = G.gekeler_product(make_ctx(5, "x^2 - (T^3 + T + 1)"))
    assert pr.value == pr.lpoly.value_at(Fraction(1, 5))
    assert pr.value == Fraction(9, 5)
    assert pr.singular == ()


def test_product_with_constant_field_extension():
    # m = 2: the (1-q^-1)/(1-q^-m) * 1/m factors kick in
    pr = G.gekeler_product(make_ctx(3, "x^2 + 1"))
    expected = (1 - Fraction(1, 3)) / (1 - Fraction(1, 9)) / 2
    assert pr.value == expected


def test_product_invariant_under_translation():
    # T -> T + 1 transports the whole computation
    a = G.gekeler_product(make_ctx(5, "x^2 - (T^3 + T + 1)")).value
    b = G.gekeler_product(make_ctx(5, "x^2 - ((T+1)^3 + (T+1) + 1)")).value
    assert a == b


def test_finite_level_values_cusp():
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    # level-1 value: 9 matrices, |SL_2(F_3)| = 24, multiplier 3
    assert G.finite_level_ratio(ctx, T, 1) == Fraction(9 * 3, 24)
    # level 2 is closer to the closed form than level 1
    v = G.gekeler_ratio(ctx, T).value
    e1 = abs(G.finite_level_ratio(ctx, T, 1) - v)
    e2 = abs(G.finite_level_ratio(ctx, T, 2) - v)
    assert e2 < e1


def test_finite_level_converges_at_regular_primes():
    ctx = make_ctx(3, "x^2 - T")
    F = ctx.field
    T = FqPoly.gen(F)
    for p in [T, T - FqPoly.one(F)]:
        v = G.gekeler_ratio(ctx, p).value
        errs = [abs(G.finite_level_ratio(ctx, p, n) - v) for n in (1, 2, 3)]
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] <= v / 9


def test_finite_level_exact_at_degree_two_regular_primes():
    # split and inert degree-2 primes: the level-1 ratio already equals
    # the closed form (Q = 9)
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    two = FqPoly.const(F, 2)
    split = T ** 2 + one
    inert = T ** 2 + T + two
    assert G.gekeler_ratio(ctx, split).value == Fraction(9, 8)
    assert G.gekeler_ratio(ctx, inert).value == Fraction(9, 10)
    assert G.finite_level_ratio(ctx, split, 1) == Fraction(9, 8)
    assert G.finite_level_ratio(ctx, inert, 1) == Fraction(9, 10)


def test_finite_level_stabilizes_off_formula_at_singular_prime():
    """At the cusp's singular prime the truncated ratios stabilize at 4/3.

    The closed form gives 2; the discrepancy is a property of the closed
    form at singular primes (see the README oracle notes), so this pins the
    observed exhaustive-count behaviour without asserting convergence.
    """
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    values = [G.finite_level_ratio(ctx, T, n, budget=10 ** 8) for n in (1, 2, 3, 4)]
    assert values == [Fraction(9, 8), Fraction(11, 8), Fraction(11, 8),
                      Fraction(4, 3)]
    assert G.gekeler_ratio(ctx, T).value == 2


def test_partial_products_converge():
    # the |log gap| is not monotone degree by degree (it rises at D = 3 by
    # exact split/inert balance; see the README oracle notes), but the product
    # approaches the closed form and the end gap is small
    for fstr, limit in [("x^2 - T^3", 2), ("x^2 - T", 1)]:
        ctx = make_ctx(3, fstr)
        pr = G.gekeler_product(ctx).value
        assert pr == limit
        partials = G.partial_products(ctx, 4)
        gaps = [abs(math.log(float(v / pr))) for _, v in partials]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05
        # frozen gap sequence, exact to the displayed precision
        assert [round(g, 5) for g in gaps] == [0.11778, 0.02485, 0.03034, 0.00702]


def test_sl_closed_form_is_gated_by_enumeration():
    # the closed form used in finite_level_ratio, re-gated here
    for (r, q, n) in [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 3, 2)]:
        field = gf(q)
        p = FqPoly.gen(field)
        sl, _, _ = O.brute_sl_count(r, p, n)
        assert sl == O.sl_order_closed_form(r, q, n)


def test_census_primes_are_tested_once(monkeypatch):
    # the census lists no prime, and the primes of disc(f) come from its
    # factorization: no prime meets the Rabin test, while a prime given
    # alone still does
    from gekeler import primes
    from gekeler.context import AlgebraContext
    from gekeler.errors import InputError
    from gekeler.parse import parse_bipoly
    F = gf(3)
    expected = G.partial_products(make_ctx(3, "x^2 - T^3"), 3)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))

    def refuse(p):
        raise AssertionError(f"tested {p.to_str()} again")

    monkeypatch.setattr(primes, "is_irreducible", refuse)
    assert G.partial_products(ctx, 3) == expected
    monkeypatch.undo()
    T = FqPoly.gen(F)
    with pytest.raises(InputError):
        G.gekeler_ratio(ctx, T ** 2 - FqPoly.one(F))
