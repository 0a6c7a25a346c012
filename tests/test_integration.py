"""End-to-end run on a rank-4 input with a genuine constant-field extension.

K = F_9(T)(y) with y^2 = T^3 - T - 1, presented over F_3(T) by the
degree-4 minimal polynomial of z = i + y (i^2 = -1): eliminating i gives
f = (x^2 - (1 + g))^2 + 4x^2.  This exercises m = 2 together with g = 1,
ranks beyond the quadratic examples, and several singular primes at once.
"""

import sys
from fractions import Fraction

from conftest import make_ctx
from gekeler.context import AlgebraContext
from gekeler.gf import gf, gf_of_order, embedding
from gekeler.fqpoly import FqPoly
from gekeler.parse import parse_bipoly, parse_fqpoly
from gekeler.zeta import constant_field_degree, genus, l_polynomial
from gekeler.primes import infinity_context, singular_primes
from gekeler.weakeq import local_icm
from gekeler.ratios import gekeler_product

G_STR = "T^3 - T - 1"
F_STR = f"(x^2 - (1 + {G_STR}))^2 + 4*x^2"


def f9_point_count():
    """Affine F_9-points of y^2 = g plus the one place at infinity."""
    F3, F9 = gf(3), gf(3, 2)
    emb = embedding(F3, F9)
    g = parse_fqpoly(F3, G_STR)
    squares = {}
    for y in F9.elements():
        sq = F9.mul(y, y)
        squares[sq] = squares.get(sq, 0) + 1
    total = 0
    for t in F9.elements():
        rhs = 0
        power = 1
        for c in g.coeffs:
            rhs = F9.add(rhs, F9.mul(emb(c), power))
            power = F9.mul(power, t)
        total += squares.get(rhs, 0)
    return total + 1


def test_rank4_constant_field_tower():
    ctx = make_ctx(3, F_STR)
    assert ctx.r == 4
    assert constant_field_degree(ctx) == 2
    assert genus(ctx) == 1
    n1 = f9_point_count()
    lp = l_polynomial(ctx)
    assert lp.coeffs == (1, n1 - 10, 9)
    assert lp.qm == 9

    T = FqPoly.gen(ctx.field)
    one = FqPoly.one(ctx.field)
    sing = singular_primes(ctx)
    assert sing == [T, T + one, T + one + one]
    m_ps = [local_icm(ctx, p).m_p for p in sing]
    assert m_ps == [2, 2, 2]

    pr = gekeler_product(ctx)
    expected = Fraction(1)
    for m in m_ps:
        expected *= m
    expected *= lp.value_at(Fraction(1, 9))
    expected *= (1 - Fraction(1, 3)) / (1 - Fraction(1, 9))
    expected /= 2
    assert pr.value == expected == Fraction(7, 3)

    # zeta series vs effective divisor census over F_9-degrees
    from test_zeta import effective_divisor_counts, zeta_series_coefficients
    assert (effective_divisor_counts(ctx, 2)
            == zeta_series_coefficients(lp, 2) == [1, n1, 70])


def _enumeration_callers(monkeypatch, ctx, primes):
    """Run local_icm at each prime of a fresh context and return the name
    of the first function outside `quotient` behind each call of
    quotient.invariant_subspaces, the one window enumeration."""
    from gekeler import quotient
    original = quotient.invariant_subspaces
    callers = []

    def counted(*args):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == quotient.__name__:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return original(*args)

    with monkeypatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name == "gekeler" or name.startswith("gekeler."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        mp.setattr(module, attr, counted)
        for p in primes:
            local_icm(ctx, p)
    return callers


def _fresh_ctx(q, fstr):
    # a new context, so that no earlier test has filled its caches
    field = gf_of_order(q)
    return AlgebraContext(field, parse_bipoly(field, fstr))


def test_gorenstein_overorders_enumerate_no_window(monkeypatch):
    # Gorenstein overorders get their one class without a window, so
    # local_icm enumerates lattices only to find the p-overorders
    ctx = _fresh_ctx(3, F_STR)
    sing = singular_primes(ctx)
    assert (_enumeration_callers(monkeypatch, ctx, sing)
            == ["p_overorders"] * len(sing))
    inf = infinity_context(_fresh_ctx(3, F_STR))
    U = FqPoly.gen(inf.field)
    assert _enumeration_callers(monkeypatch, inf, [U]) == ["p_overorders"]
    ctx = _fresh_ctx(3, "x^2 - T^7")
    T = FqPoly.gen(ctx.field)
    assert _enumeration_callers(monkeypatch, ctx, [T]) == ["p_overorders"]
    # x^3 - T^4 over F_2 has one non-Gorenstein overorder, and only its
    # own window is enumerated, by the weak-class search that local_icm
    # runs on its own p-overorders
    ctx = _fresh_ctx(2, "x^3 - T^4")
    T = FqPoly.gen(ctx.field)
    assert (_enumeration_callers(monkeypatch, ctx, [T])
            == ["p_overorders", "_weak_classes"])


def test_rank4_tower_infinity_model():
    # the model at infinity: O/(R:O) has F_3-dimension 10 at U, and every
    # p-overorder is Gorenstein
    inf = infinity_context(make_ctx(3, F_STR))
    U = FqPoly.gen(inf.field)
    report = local_icm(inf, U)
    assert report.m_p == 6
    assert [len(classes) for _, classes in report.by_overorder] == [1] * 6
