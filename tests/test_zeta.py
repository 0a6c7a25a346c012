import cmath
import math
from fractions import Fraction

import pytest

from conftest import make_ctx
from gekeler import zeta as Z
from gekeler.errors import InputError, InternalCheckError


def effective_divisor_counts(ctx, up_to):
    """Effective divisor counts of F_{q^m}-degree 0..up_to from the census."""
    m = Z.constant_field_degree(ctx)
    b = [0] * (up_to + 1)
    for d in range(1, up_to + 1):
        b[d] = Z.count_places(ctx, m * d)
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
    # 1/((1-t)(1-qt)) has coefficients (q^(j+1)-1)/(q-1)
    base = [(qm ** (j + 1) - 1) // (qm - 1) for j in range(up_to + 1)]
    for j in range(up_to + 1):
        total = 0
        for i, c in enumerate(lpoly.coeffs):
            if i <= j:
                total += c * base[j - i]
        out.append(total)
    return out


def test_constant_field_degree_examples():
    assert Z.constant_field_degree(make_ctx(3, "x^2 - T^3")) == 1
    assert Z.constant_field_degree(make_ctx(3, "x^2 + 1")) == 2
    assert Z.constant_field_degree(make_ctx(3, "1 - x + x^3")) == 3
    assert Z.constant_field_degree(make_ctx(3, "x^2 - T")) == 1
    assert Z.constant_field_degree(make_ctx(5, "x^2 - (T^3 + T + 1)")) == 1


def test_genus_examples():
    assert Z.genus(make_ctx(3, "x^2 - T^3")) == 0
    assert Z.genus(make_ctx(3, "x^2 - T")) == 0
    assert Z.genus(make_ctx(5, "x^2 - (T^3 + T + 1)")) == 1
    assert Z.genus(make_ctx(3, "x^2 + 1")) == 0
    assert Z.genus(make_ctx(3, "1 - x + x^3")) == 0
    assert Z.genus(make_ctx(2, "x^3 - T^4")) == 0


def test_count_places_rational_curve():
    ctx = make_ctx(3, "x^2 - T^3")
    # K is rational over F_3: 4 places of degree 1
    assert Z.count_places(ctx, 1) == 4
    # for a genus-0 curve with m=1: B_d = number of monic irreducibles of
    # F_3[t] of degree d
    assert Z.count_places(ctx, 2) == 3
    assert Z.count_places(ctx, 3) == 8
    with pytest.raises(InputError):
        Z.count_places(ctx, 0)


def test_count_places_respects_constant_field():
    ctx = make_ctx(3, "x^2 + 1")
    assert Z.count_places(ctx, 1) == 0     # m = 2 divides every degree
    assert Z.count_places(ctx, 2) > 0


def test_weil_bound_degree_one():
    ctx = make_ctx(5, "x^2 - (T^3 + T + 1)")
    n1 = Z.count_places(ctx, 1)
    assert abs(n1 - 6) <= 2 * math.sqrt(5)


def test_l_polynomial_genus_zero():
    for q, fstr in [(3, "x^2 - T^3"), (3, "x^2 - T"), (3, "x^2 + 1")]:
        lp = Z.l_polynomial(make_ctx(q, fstr))
        assert lp.coeffs == (1,)
        assert lp.g == 0


def test_l_polynomial_elliptic():
    ctx = make_ctx(5, "x^2 - (T^3 + T + 1)")
    # independent affine point count oracle over F_5
    affine = 0
    for t in range(5):
        rhs = (t ** 3 + t + 1) % 5
        for y in range(5):
            if (y * y) % 5 == rhs:
                affine += 1
    n1 = affine + 1  # one ramified infinite place
    assert Z.count_places(ctx, 1) == n1
    lp = Z.l_polynomial(ctx)
    assert lp.coeffs == (1, n1 - 6, 5)
    # functional equation holds exactly
    for i in range(lp.g + 1):
        assert lp.coeffs[2 * lp.g - i] == (5 ** (lp.g - i)) * lp.coeffs[i]
    # class number positivity
    assert lp.value_at(Fraction(1)) > 0
    # root magnitudes (numeric): the two roots of 1 + a_1 t + 5 t^2
    a0, a1, a2 = lp.coeffs
    disc = cmath.sqrt(a1 * a1 - 4 * a0 * a2)
    roots = [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
    for r in roots:
        assert abs(abs(r) - 5 ** -0.5) < 1e-9


def test_weil_bound_on_a1():
    lp = Z.l_polynomial(make_ctx(5, "x^2 - (T^3 + T + 1)"))
    g, qm = lp.g, lp.qm
    assert abs(lp.coeffs[1]) <= math.floor(2 * g * math.sqrt(qm))


def test_zeta_series_matches_effective_divisors():
    for q, fstr, depth in [(5, "x^2 - (T^3 + T + 1)", 3), (3, "x^2 - T^3", 3)]:
        ctx = make_ctx(q, fstr)
        lp = Z.l_polynomial(ctx)
        assert (effective_divisor_counts(ctx, depth)
                == zeta_series_coefficients(lp, depth))


def test_genus_zero_iff_l_trivial():
    for q, fstr in [(3, "x^2 - T^3"), (5, "x^2 - (T^3 + T + 1)"),
                    (3, "x^2 + 1"), (2, "x^3 - T^4")]:
        ctx = make_ctx(q, fstr)
        lp = Z.l_polynomial(ctx)
        assert (Z.genus(ctx) == 0) == (lp.coeffs == (1,))


@pytest.mark.parametrize("q, fstr, expected", [
    (5, "x^2 - (T^5 + T + 1)", (1, 0, 10, 0, 25)),
    (4, "x^2 + x + T^5 + a", (1, 0, 8, 0, 16)),
])
def test_repeated_root_l_polynomials_pass_the_weil_gate(q, fstr, expected):
    # (1 + 5t^2)^2 and (1 + 4t^2)^2: double roots on |t| = q^(-1/2)
    assert Z.l_polynomial(make_ctx(q, fstr)).coeffs == expected


def test_weil_gate_rejects_root_off_the_circle():
    # 1 + t + 5t^2 satisfies the functional equation and L(1) > 0, but its
    # real Weil polynomial y + 5 has its root outside [-2 sqrt 5, 2 sqrt 5]
    with pytest.raises(InternalCheckError):
        Z.LPolynomial(1, 1, (1, 5, 5), 5)
