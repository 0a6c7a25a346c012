"""End-to-end run on a rank-4 input with a genuine constant-field extension.

K = F_9(T)(y) with y^2 = T^3 - T - 1, presented over F_3(T) by the
degree-4 minimal polynomial of z = i + y (i^2 = -1): eliminating i gives
f = (x^2 - (1 + g))^2 + 4x^2.  This exercises m = 2 together with g = 1,
ranks beyond the quadratic examples, and several singular primes at once.
"""

from fractions import Fraction

from conftest import make_ctx
from gekeler.gf import gf, embedding
from gekeler.fqpoly import FqPoly
from gekeler.parse import parse_fqpoly
from gekeler.zeta import constant_field_degree, genus, l_polynomial
from gekeler.ideals import Order
from gekeler.primes import maximal_order, p_saturation, singular_primes
from gekeler.quotient import submodule_lattices
from gekeler.weakeq import local_icm, _window_candidates
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
    from gekeler.zeta import effective_divisor_counts, zeta_series_coefficients
    assert (effective_divisor_counts(ctx, 2)
            == zeta_series_coefficients(lp, 2) == [1, n1, 70])


def test_rank4_tower_window_is_local():
    # the window at p lies between (R:O) and O, O the p-saturation; the
    # global window between (R:O_K) and O_K is the product over the three
    # singular primes
    ctx = make_ctx(3, F_STR)
    R = Order.monogenic(ctx).ideal
    for p in singular_primes(ctx):
        sat = p_saturation(ctx, p).ideal
        window = _window_candidates(ctx, p)
        assert len(window) == 6
        for lat, _ in window:
            assert lat.contains(R.colon(sat)) and sat.contains(lat)
    ok = maximal_order(ctx).ideal
    assert len(submodule_lattices(ok, R.colon(ok))) == 216
