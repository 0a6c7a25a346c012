import random

import pytest

from gekeler.gf import gf, gf_of_order, embedding
from gekeler.fqpoly import FqPoly
from gekeler.parse import parse_bipoly, parse_fqpoly, ParseError
from gekeler.bipoly import BiPoly, discriminant, infinity_model, resultant_x
from gekeler.bifactor import is_irreducible_bivariate, count_irreducible_factors
from gekeler.errors import InputError, InseparableError


def test_irreducibility_examples():
    F = gf(3)
    assert is_irreducible_bivariate(parse_bipoly(F, "x^2 - T"))
    assert not is_irreducible_bivariate(parse_bipoly(F, "x^2 - T^2"))
    assert is_irreducible_bivariate(parse_bipoly(F, "x^2 - T^3"))
    assert is_irreducible_bivariate(parse_bipoly(F, "1 - x + x^3"))
    # constant-field extensions stay irreducible over the base
    assert is_irreducible_bivariate(parse_bipoly(F, "x^2 + 1"))


def test_irreducibility_inseparable_branch():
    F3 = gf(3)
    assert is_irreducible_bivariate(parse_bipoly(F3, "x^3 - T"))
    assert not is_irreducible_bivariate(parse_bipoly(F3, "x^3 - T^3"))
    F2 = gf(2)
    assert is_irreducible_bivariate(parse_bipoly(F2, "x^2 - T"))
    assert not is_irreducible_bivariate(parse_bipoly(F2, "x^2 - T^2"))
    # x^4 + T^2 = (x^2 + T)^2 over F_2
    assert not is_irreducible_bivariate(parse_bipoly(F2, "x^4 + T^2"))


def test_irreducibility_rejects_non_monic():
    F = gf(3)
    with pytest.raises(InputError):
        is_irreducible_bivariate(parse_bipoly(F, "T*x^2 - 1"))


def test_factor_count_over_extensions():
    F3 = gf(3)
    F9 = gf(3, 2)
    f = parse_bipoly(F3, "x^2 + 1")
    assert count_irreducible_factors(f) == 1
    fe = f.map_coefficients(embedding(F3, F9), F9)
    assert count_irreducible_factors(fe) == 2
    # a geometrically irreducible example stays irreducible
    g = parse_bipoly(F3, "x^2 - T^3").map_coefficients(embedding(F3, F9), F9)
    assert count_irreducible_factors(g) == 1


def test_recombination_needs_more_than_one_local_factor():
    # (x - T)(x + T + 1) expanded forces a genuine Hensel lift + recombine
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    fac1 = BiPoly(F, (-T, one))
    fac2 = BiPoly(F, (T + one, one))
    f = fac1 * fac2
    assert not is_irreducible_bivariate(f)
    assert count_irreducible_factors(f) == 2


def test_recombination_with_deep_lifting():
    # higher coefficient degrees force several quadratic lifting steps
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    fac1 = BiPoly(F, (-(T ** 3), one))
    fac2 = BiPoly(F, (T ** 3 + T + one, one))
    f = fac1 * fac2
    assert count_irreducible_factors(f) == 2
    # an irreducible with the same coefficient size is not split
    g = parse_bipoly(F, "x^2 - (T^3 + T^2 + T + 1)")
    # T^3+T^2+T+1 = (T+1)(T^2+1); a square root would need even valuations
    assert is_irreducible_bivariate(g)
    assert count_irreducible_factors(g) == 1
    # a three-factor product recombines fully
    fac3 = BiPoly(F, (T + one, one))
    h = fac1 * fac2 * fac3
    assert count_irreducible_factors(h) == 3


def test_discriminant_examples():
    F = gf(3)
    T = FqPoly.gen(F)
    assert discriminant(parse_bipoly(F, "x^2 - T")) == T
    assert discriminant(parse_bipoly(F, "x^2 - T^3")) == T ** 3
    with pytest.raises(InseparableError):
        discriminant(parse_bipoly(F, "x^3 - T"))


def test_resultant_by_hand_2x2():
    # res_x(x^2 - T, 2x) = 4*(-T)... = -4T; over F_3 that is 2T
    F = gf(3)
    f = parse_bipoly(F, "x^2 - T")
    fx = f.derivative_x()
    T = FqPoly.gen(F)
    assert resultant_x(f, fx) == T.scale(2)


def test_infinity_models():
    F3 = gf(3)
    g, e = infinity_model(parse_bipoly(F3, "x^2 - T"))
    assert e == 1 and g.to_str(tvar="U", xvar="y") == "y^2 + 2*U"
    g, e = infinity_model(parse_bipoly(F3, "x^2 - T^3"))
    assert e == 2 and g.to_str(tvar="U", xvar="y") == "y^2 + 2*U"
    F5 = gf(5)
    g, e = infinity_model(parse_bipoly(F5, "x^2 - (T^3 + T + 1)"))
    assert e == 2
    # U^4 * f(y/U^2, 1/U) = y^2 - (U + U^3 + U^4)
    U = FqPoly.gen(F5)
    one = FqPoly.one(F5)
    assert g.coeff(0) == -(U + U ** 3 + U ** 4)
    assert g.coeff(2) == one
    # constant coefficients need no rescaling at all
    g, e = infinity_model(parse_bipoly(F3, "1 - x + x^3"))
    assert e == 0


def test_parser_grammar_and_errors():
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    assert parse_fqpoly(F, "T^2 + 2*T + 1") == (T + one) * (T + one)
    assert parse_fqpoly(F, "2T") == T.scale(2)          # juxtaposition
    assert parse_fqpoly(F, "-T + 4") == -T + one        # 4 = 1 mod 3
    f = parse_bipoly(F, "(x - T)*(x + T)")
    assert f == parse_bipoly(F, "x^2 - T^2")
    with pytest.raises(ParseError) as err:
        parse_bipoly(F, "x^2 - %T")
    assert "column 7" in str(err.value)
    with pytest.raises(ParseError):
        parse_fqpoly(F, "x + T")
    with pytest.raises(ParseError):
        parse_bipoly(F, "x^2 +")
    # extension generator
    F9 = gf(3, 2)
    c = parse_fqpoly(F9, "a + 1")
    assert c.is_constant()
    with pytest.raises(ParseError):
        parse_fqpoly(F, "a + 1")   # prime field has no generator a


def test_poly_rendering_round_trips():
    F = gf(3)
    for s in ["T^3 + 2*T + 1", "2*T^2 + T", "1", "0"]:
        p = parse_fqpoly(F, s)
        assert parse_fqpoly(F, p.to_str()) == p
    f = parse_bipoly(F, "x^2 + (T^2 + 2)*x + 2*T^3")
    assert parse_bipoly(F, f.to_str()) == f
    # extension-field coefficients round trip through the `a` generator
    F4 = gf(2, 2)
    for s in ["(a + 1)*T^2 + a*T + 1", "a^2 + a", "T + a"]:
        p = parse_fqpoly(F4, s)
        assert parse_fqpoly(F4, p.to_str()) == p
    g = parse_bipoly(F4, "x^2 + a*x + T")
    assert parse_bipoly(F4, g.to_str()) == g


def test_divmod_monic_identity():
    rng = random.Random(7)
    for q in (2, 3, 4, 9):
        F = gf_of_order(q)

        def rand_bipoly(deg_x):
            return BiPoly(F, [FqPoly(F, [rng.randrange(q) for _ in range(4)])
                              for _ in range(deg_x + 1)])

        for _ in range(10):
            f = rand_bipoly(rng.randrange(6))
            g = rand_bipoly(rng.randrange(4)) + BiPoly(
                F, [FqPoly.zero(F)] * 4 + [FqPoly.one(F)])
            quot, rem = f.divmod_monic(g)
            assert quot * g + rem == f
            assert rem.deg_x < g.deg_x
    F = gf(3)
    with pytest.raises(InputError):
        parse_bipoly(F, "x^3 + T").divmod_monic(parse_bipoly(F, "T*x - 1"))
