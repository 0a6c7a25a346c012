import random

import pytest

from gekeler.gf import gf, gf_of_order, embedding
from gekeler.fqpoly import FqPoly, monic_irreducibles
from gekeler.parse import parse_bipoly, parse_fqpoly, ParseError
from gekeler.bipoly import BiPoly, discriminant, infinity_model, resultant_x
from gekeler.bifactor import is_irreducible_bivariate, count_irreducible_factors
from gekeler import bifactor, gpoly
import hensel_oracle
from gekeler.errors import InputError, InseparableError


def test_irreducibility_examples():
    F = gf(3)
    assert is_irreducible_bivariate(parse_bipoly(F, "x^2 - T"))
    assert not is_irreducible_bivariate(parse_bipoly(F, "x^2 - T^2"))
    assert is_irreducible_bivariate(parse_bipoly(F, "x^2 - T^3"))
    assert is_irreducible_bivariate(parse_bipoly(F, "1 - x + x^3"))
    # constant-field extensions stay irreducible over the base
    assert is_irreducible_bivariate(parse_bipoly(F, "x^2 + 1"))
    # a linear f is its own one factor
    for fstr in ("x - T", "x - T^2"):
        f = parse_bipoly(F, fstr)
        assert is_irreducible_bivariate(f)
        assert bifactor.factor_squarefree_bivariate(f) == [f]


def test_irreducibility_inseparable_branch():
    # df/dx = 0 is refused whether f is irreducible or not: x^3 - T^3 =
    # (x - T)^3 over F_3, x^2 - T^2 = (x + T)^2 and x^4 + T^2 = (x^2 + T)^2
    # over F_2
    for q, fstr in [(3, "x^3 - T"), (3, "x^3 - T^3"), (2, "x^2 - T"),
                    (2, "x^2 - T^2"), (2, "x^4 + T^2")]:
        with pytest.raises(InseparableError):
            is_irreducible_bivariate(parse_bipoly(gf(q), fstr))


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
    # higher coefficient degrees force several lifting steps
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


def _squarefree_products(rng, q, count):
    """count products of 2 or 3 random factors monic in x, of x-degree 1
    or 2 and T-degree below 3, that are squarefree over F_q(T)."""
    F = gf_of_order(q)
    out = []
    while len(out) < count:
        f = BiPoly.one(F)
        for _ in range(rng.choice((2, 3, 3))):
            f = f * BiPoly(F, [FqPoly(F, [rng.randrange(q)
                                          for _ in range(rng.randrange(3))])
                               for _ in range(rng.choice((1, 1, 2)))]
                           + [FqPoly.one(F)])
        fx = f.derivative_x()
        if not fx.is_zero() and not resultant_x(f, fx).is_zero():
            out.append(f)
    return out


def _local_factors_at_degree_two(f):
    """(p, factors of f mod p) at the first prime p of degree 2 with f
    squarefree mod p, or None."""
    for p in monic_irreducibles(f.field, 2):
        R, fb = f.reduce_mod(p)
        der = gpoly.derivative(R, fb)
        if der and gpoly.deg(gpoly.gcd(R, fb, der)) == 0:
            return p, [fac for fac, _ in gpoly.factor(R, fb)]
    return None


def test_lifts_and_factor_lists_match_the_quadratic_pair_lift():
    # the monic lift mod p^K is unique, so lifting every factor together,
    # one power of p per step, returns the pair lift's factors; keeping
    # the subset size after a true factor returns the same factor list
    rng = random.Random(44)
    products = several = at_degree_two = 0
    for q in (2, 3, 4, 5, 7, 9):
        for f in _squarefree_products(rng, q, 20):
            p, local = bifactor._choose_hensel_prime(f)
            bound = f.deg_x * f.max_coeff_degree()
            lifts = [(p, local, bound // int(p.degree) + 1)]
            degree_two = products % 3 == 0 and _local_factors_at_degree_two(f)
            if degree_two:
                lifts.append((*degree_two, bound // 2 + 1))
                at_degree_two += 1
            for p, local, target in lifts:
                assert (bifactor._hensel_lift_list(f, p, target, local)
                        == hensel_oracle._hensel_lift_list(f, p, target, local))
            factors = bifactor.factor_squarefree_bivariate(f)
            assert factors == hensel_oracle.factor_squarefree_bivariate(f)
            products += 1
            several += len(factors) >= 3
    assert products == 120 and several >= 40 and at_degree_two >= 30


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


def _benchmark_curves():
    """(q, f) of every job of the benchmark's fixed workloads."""
    from conftest import perfbench_workloads
    workloads = perfbench_workloads()
    return sorted({(int(job[job.index("--q") + 1]), job[job.index("--f") + 1])
                   for job in workloads.ICM_WINDOW + workloads.CENSUS})


@pytest.mark.parametrize("q,fstr", _benchmark_curves())
def test_benchmark_curves_are_proved_irreducible_without_a_lift(monkeypatch, q, fstr):
    # a prime of degree <= 2 keeps each of them irreducible
    from gekeler import bifactor

    def refuse(*args):
        raise AssertionError("Hensel lift")

    monkeypatch.setattr(bifactor, "_hensel_lift_list", refuse)
    assert is_irreducible_bivariate(parse_bipoly(gf_of_order(q), fstr))


@pytest.mark.parametrize("seam,what", [
    ("_choose_hensel_prime", "no squarefree reduction found"),
    ("_hensel_lift_list", "Hensel step lost divisibility")])
def test_irreducibility_faults_name_the_stage_and_instance(monkeypatch, capsys,
                                                           seam, what):
    # a fault inside the Hensel lifting reaches the user with the stage and
    # (q, f), not as a bare invariant message
    from gekeler import bifactor
    from gekeler.cli import main
    from gekeler.errors import InternalCheckError

    def fail(*args, **kwargs):
        raise InternalCheckError(what)

    monkeypatch.setattr(bifactor, seam, fail)
    code = main(["primes", "--q", "3", "--f", "(x^2 - (1 + T^3 - T - 1))^2 + 4*x^2"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"internal invariant failure: is_irreducible_bivariate: {what} for "
        "q = 3, f = x^4 + (T^3 + 2*T + 1)*x^2 + T^6 + T^4 + T^2\n")


def test_a_corrupted_correction_fails_the_next_hensel_step(monkeypatch, capsys):
    # one correction lifted off by one leaves f - prod L_i undivisible by
    # the next power of p; the fault names the stage and (q, f)
    from gekeler.cli import main
    from gekeler.errors import InternalCheckError
    residue_field = bifactor.residue_field

    class OffByOne:
        """A/p whose first lift after a projection is off by one."""

        def __init__(self, p):
            self.field = residue_field(p)
            self.projected = self.spent = False

        def __getattr__(self, name):
            return getattr(self.field, name)

        def project(self, poly):
            self.projected = True
            return self.field.project(poly)

        def lift(self, a):
            lifted = self.field.lift(a)
            if self.projected and not self.spent:
                self.spent = True
                return lifted + FqPoly.one(lifted.field)
            return lifted

    monkeypatch.setattr(bifactor, "residue_field", OffByOne)
    fstr = "(x^2 - (1 + T^3 - T - 1))^2 + 4*x^2"
    f = parse_bipoly(gf(3), fstr)
    p, local = bifactor._choose_hensel_prime(f)
    with pytest.raises(InternalCheckError, match="Hensel step lost divisibility"):
        bifactor._hensel_lift_list(f, p, 3, local)
    assert main(["primes", "--q", "3", "--f", fstr]) == 1
    assert capsys.readouterr().err == (
        "internal invariant failure: is_irreducible_bivariate: Hensel step "
        "lost divisibility for q = 3, f = x^4 + (T^3 + 2*T + 1)*x^2 + T^6 "
        "+ T^4 + T^2\n")
