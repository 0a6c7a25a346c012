import cmath
import math
from fractions import Fraction

import pytest

from conftest import CENSUS_CURVES, make_ctx
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


@pytest.mark.parametrize("coeffs", [(), (2,), (2, 0, 6)])
def test_l_polynomial_refuses_a_constant_term_other_than_1(coeffs):
    with pytest.raises(InternalCheckError, match="constant term 1"):
        Z.LPolynomial(1, len(coeffs) // 2, coeffs, 3)


def test_l_polynomial_refuses_a_broken_functional_equation():
    # a_2 must be q a_0 = 3
    with pytest.raises(InternalCheckError, match="functional equation violated"):
        Z.LPolynomial(1, 1, (1, 0, 4), 3)


def test_l_polynomial_make_and_replace_run_the_checks():
    # the named tuple's own _make and _replace would skip __new__
    lp = Z.LPolynomial(1, 1, (1, 0, 3), 3)
    assert lp._replace(m=1) == lp and Z.LPolynomial._make(lp) == lp
    with pytest.raises(InternalCheckError, match="functional equation violated"):
        lp._replace(coeffs=(1, 0, 4))
    with pytest.raises(InternalCheckError, match="functional equation violated"):
        Z.LPolynomial._make((1, 1, (1, 0, 4), 3))
    with pytest.raises(InternalCheckError, match="root off the circle"):
        lp._replace(coeffs=(1, 5, 3))


def test_l_polynomial_fields_are_read_only():
    lp = Z.l_polynomial(make_ctx(3, "x^2 - (T^5 + 2*T + 1)"))
    with pytest.raises(AttributeError):
        lp.coeffs = (1,)
    with pytest.raises(AttributeError):
        lp.extra = 0
    assert lp.g == 2 and len(lp.coeffs) == 5


def _fresh_ctx(q, fstr):
    from gekeler.context import AlgebraContext
    from gekeler.gf import gf_of_order
    from gekeler.parse import parse_bipoly
    field = gf_of_order(q)
    return AlgebraContext(field, parse_bipoly(field, fstr))


@pytest.mark.parametrize("q, fstr, inert", [
    (3, "x^2 + 1", True), (3, "x^2 - 2", True), (3, "1 - x + x^3", True),
    (3, "x^2 - (2*T^2 + 1)", True), (5, "x^2 - (2*T^4 + T + 1)", True),
    (3, "x^2 - (T^2 + 1)", False), (4, "x^3 + T*x + T^4 + a", False),
    (9, "x^2 - (T^4 + a)", False), (2, "x^4 + T^3*x + T^4 + T", True),
    (2, "x^4 + T^3*x + T^4 + T^2 + 1", True)])
def test_constant_field_degree_from_infinity_matches_the_hensel_count(q, fstr, inert):
    # m divides the residue degree of every place over infinity; where none
    # of them settles m = 1 the factor count still runs, and both ways agree
    from census_oracle import hensel_constant_field_degree
    from gekeler.primes import infinite_places
    ctx = _fresh_ctx(q, fstr)
    assert all(f_res > 1 for _, f_res in infinite_places(ctx)) == inert
    assert Z.constant_field_degree(ctx) == hensel_constant_field_degree(ctx)


def test_constant_field_degree_matches_the_hensel_count_on_the_pool():
    from census_oracle import hensel_constant_field_degree
    from property_suite import CONTEXT_POOL
    from gekeler.primes import infinity_context
    for q, fstr in CONTEXT_POOL + CENSUS_CURVES:
        ctx = _fresh_ctx(q, fstr)
        for c in (ctx, infinity_context(ctx)):
            assert Z.constant_field_degree(c) == hensel_constant_field_degree(c), c


def test_infinity_settles_m_without_a_factor_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("counted the factors of f over F_{q^i}(T)")

    monkeypatch.setattr(Z, "count_irreducible_factors", refuse)
    for q, fstr in CENSUS_CURVES:
        assert Z.constant_field_degree(_fresh_ctx(q, fstr)) == 1, (q, fstr)


@pytest.mark.parametrize("fstr, m", [("x^4 + T^3*x + T^4 + T", 1),
                                     ("x^4 + T^3*x + T^4 + T^2 + 1", 2)])
def test_constant_field_degree_counts_the_factors_once(monkeypatch, fstr, m):
    # g = 4 at infinity, so one factor count over F_(q^4)(T) reads m
    calls = []
    real = Z.count_irreducible_factors

    def count(f, seed=0):
        calls.append(f.field.q)
        return real(f, seed=seed)

    monkeypatch.setattr(Z, "count_irreducible_factors", count)
    assert Z.constant_field_degree(_fresh_ctx(2, fstr)) == m
    assert calls == [16]


def test_census_reads_quadratic_types_without_distinct_degree(monkeypatch):
    # for rank 2 and odd q the census reads every type at p not dividing
    # disc(f) by Euler's criterion; distinct-degree factorization runs only
    # on disc(f), at its primes and at infinity, computed here first
    from gekeler import gpoly
    from gekeler.primes import discriminant_factors, infinite_places
    from gekeler.ratios import gekeler_ratio, partial_products
    calls = []
    real_ddf = gpoly.distinct_degree

    def distinct_degree(F, f):
        calls.append(f)
        return real_ddf(F, f)

    for q, fstr in CENSUS_CURVES + [(3, "x^2 - 2")]:
        ctx = _fresh_ctx(q, fstr)
        if ctx.r != 2 or q % 2 == 0:
            continue
        for p, _ in discriminant_factors(ctx):
            gekeler_ratio(ctx, p)
        infinite_places(ctx)
        Z.constant_field_degree(ctx)
        with monkeypatch.context() as m:
            m.setattr(gpoly, "distinct_degree", distinct_degree)
            partial_products(ctx, 4)
            for d in (1, 2, 3):
                Z.count_places(ctx, d)
        assert calls == [], (q, fstr)


def test_zeta_checks_name_the_stage_and_instance(monkeypatch):
    from fractions import Fraction
    from gekeler.fqpoly import FqPoly
    where = "for q = 5, f = x^2 + 4*T^3 + 4*T + 4"
    fstr = "x^2 - (T^3 + T + 1)"
    with monkeypatch.context() as m:
        m.setattr(Z, "constant_field_degree", lambda ctx: 2)
        with pytest.raises(InternalCheckError) as exc:
            Z.count_places(_fresh_ctx(5, fstr), 1)
    assert str(exc.value) == ("count_places: found a place of degree 1, not "
                              f"divisible by m {where}")
    # genus reads the discriminant degrees off disc(f), disc(g) and the
    # covolumes of the maximal orders
    with monkeypatch.context() as m:
        m.setattr(Z, "discriminant_of_f", lambda c: FqPoly.one(c.field))
        with pytest.raises(InternalCheckError) as exc:
            Z.genus(_fresh_ctx(5, fstr))
    assert str(exc.value).startswith("genus: genus formula gave -1;")
    assert str(exc.value).endswith(where)
    with monkeypatch.context() as m:
        m.setattr(Z, "count_places", lambda ctx, d: 0)
        with pytest.raises(InternalCheckError) as exc:
            Z.l_polynomial(_fresh_ctx(5, fstr))
    assert str(exc.value) == f"l_polynomial: L(1) must be positive {where}"
    with monkeypatch.context() as m:
        m.setattr(Z, "count_places", lambda ctx, d: Fraction(1, 2))
        with pytest.raises(InternalCheckError) as exc:
            Z.l_polynomial(_fresh_ctx(5, fstr))
    assert str(exc.value) == ("l_polynomial: Newton recursion left a fraction "
                              f"at a_1 {where}")


def test_zeta_takes_no_gram_determinant(monkeypatch, capsys):
    # genus reads the discriminant degrees off the covolumes of the
    # saturations, finite and at infinity, and each saturation is
    # certified by its radical loop: a zeta run takes no Gram determinant
    from gekeler import primes as P
    from gekeler.cli import main
    real = P.order_discriminant
    calls = {}

    def order_discriminant(order):
        tvar = order.ctx.tvar
        calls[tvar] = calls.get(tvar, 0) + 1
        return real(order)

    # every module binding of it, so that no determinant goes uncounted
    monkeypatch.setattr(P, "order_discriminant", order_discriminant)
    monkeypatch.setattr(Z, "order_discriminant", order_discriminant,
                        raising=False)
    assert main(["zeta", "--q", "5", "--f", "x^2 - (T^3 + T + 1)"]) == 0
    assert '"g": 1' in capsys.readouterr().out
    assert calls == {}
