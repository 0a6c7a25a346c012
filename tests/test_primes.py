import pytest

from conftest import make_ctx
from property_suite import CONTEXT_POOL
from gekeler.gf import gf, gf_of_order
from gekeler.fqpoly import FqPoly, monic_irreducibles, powmod
from gekeler.parse import parse_bipoly
from gekeler.context import AlgebraContext
from gekeler import kalgebra
from gekeler.context import KElement
from gekeler.ideals import FracIdeal, Order, index_ideal
from gekeler import primes as P
from gekeler.errors import InputError, InseparableError


def test_kummer_dedekind_regularity_by_hand_remainder():
    # p = T in x^2 - T: remainder of f upon division by the lift x is -T,
    # not in (T^2) -> regular; in x^2 - T^3 it is -T^3 in (T^2) -> singular
    F = gf(3)
    T = FqPoly.gen(F)
    ctx1 = make_ctx(3, "x^2 - T")
    rep = P.kummer_dedekind(Order.monogenic(ctx1), T)
    assert [(q.e, q.f_res, q.regular) for q in rep.primes] == [(2, 1, True)]
    # the by-hand criterion
    _, rem = ctx1.f.divmod_monic(ctx1.f.__class__(F, (FqPoly.zero(F), FqPoly.one(F))))
    assert any(not (c % (T * T)).is_zero() for c in rem.coeffs)

    ctx2 = make_ctx(3, "x^2 - T^3")
    rep = P.kummer_dedekind(Order.monogenic(ctx2), T)
    assert [(q.e, q.f_res, q.regular) for q in rep.primes] == [(2, 1, False)]
    _, rem = ctx2.f.divmod_monic(ctx2.f.__class__(F, (FqPoly.zero(F), FqPoly.one(F))))
    assert all((c % (T * T)).is_zero() for c in rem.coeffs)


def test_kummer_dedekind_split_case():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    rep = P.kummer_dedekind(Order.monogenic(ctx), T - FqPoly.one(F))
    assert sorted((q.e, q.f_res, q.regular) for q in rep.primes) == [
        (1, 1, True), (1, 1, True)]
    assert len(set(q.ideal for q in rep.primes)) == 2


def test_splitting_sum_rule_and_norms():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    F = ctx.field
    T = FqPoly.gen(F)
    for p in [T, T + FqPoly.one(F), T - FqPoly.one(F), T ** 2 + FqPoly.one(F)]:
        rep = P.kummer_dedekind(R, p)
        assert sum(q.e * q.f_res for q in rep.primes) == ctx.r
        for q in rep.primes:
            assert index_ideal(R.ideal, q.ideal) == p ** q.f_res
            assert q.norm() == 3 ** (int(p.degree) * q.f_res)


def test_kd_primes_contain_pR_with_exponents():
    # prod p_i^{e_i} subseteq pR
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    F = ctx.field
    T = FqPoly.gen(F)
    for p in [T, T - FqPoly.one(F)]:
        rep = P.kummer_dedekind(R, p)
        prod = R.ideal
        for q in rep.primes:
            for _ in range(q.e):
                prod = prod * q.ideal
        pR = R.ideal.scale(KElement.from_fqpoly(ctx, p))
        assert pR.contains(prod)


def test_regular_primes_are_invertible():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    F = ctx.field
    T = FqPoly.gen(F)
    for p in [T - FqPoly.one(F), T + FqPoly.one(F)]:
        for q in P.kummer_dedekind(R, p).primes:
            assert q.regular
            assert q.ideal.colon(q.ideal) == R.ideal
            assert q.ideal * R.ideal.colon(q.ideal) == R.ideal
    # the singular prime is not invertible
    sing = P.kummer_dedekind(R, T).primes[0]
    assert not sing.regular
    assert sing.ideal * R.ideal.colon(sing.ideal) != R.ideal


def test_kd_input_validation():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    F = ctx.field
    T = FqPoly.gen(F)
    with pytest.raises(InputError):
        P.kummer_dedekind(R, T ** 2 - FqPoly.one(F))   # reducible
    with pytest.raises(InputError):
        P.kummer_dedekind(R, T.scale(2))               # not monic
    ok = P.maximal_order(ctx)
    with pytest.raises(InputError):
        P.kummer_dedekind(ok, T)                       # not monogenic


def test_discriminants():
    F = gf(3)
    T = FqPoly.gen(F)
    assert P.discriminant_of_f(make_ctx(3, "x^2 - T")) == T
    assert P.discriminant_of_f(make_ctx(3, "x^2 - T^3")) == T ** 3
    ctx = make_ctx(3, "x^2 - T^3")
    ok = P.maximal_order(ctx)
    # Gram of basis (1, t): diag(2, 2T), det = 4T, monic associate T
    assert P.order_discriminant(ok) == T
    assert P.order_discriminant(Order.monogenic(ctx)) == T ** 3


def test_inseparable_rejected():
    F = gf(3)
    from gekeler.parse import parse_bipoly
    from gekeler.context import AlgebraContext
    ctx = AlgebraContext(F, parse_bipoly(F, "x^3 - T"))
    with pytest.raises(InseparableError):
        P.singular_primes(ctx)
    with pytest.raises(InseparableError):
        P.maximal_order(ctx)


def test_singular_primes():
    F = gf(3)
    T = FqPoly.gen(F)
    assert P.singular_primes(make_ctx(3, "x^2 - T")) == []
    assert P.singular_primes(make_ctx(3, "x^2 - T^3")) == [T]
    # squarefree discriminant => no singular primes
    assert P.singular_primes(make_ctx(5, "x^2 - (T^3 + T + 1)")) == []
    # unit discriminant (constant-field cubic)
    assert P.singular_primes(make_ctx(3, "1 - x + x^3")) == []


def test_maximal_order_cusp():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    ok = P.maximal_order(ctx)
    t = KElement(ctx, (FqPoly.zero(F), FqPoly.one(F)), T)
    assert ok.ideal == FracIdeal.from_elements(ctx, [KElement.one(ctx), t])
    assert ok.ideal.is_order_lattice()
    # t integral: t^2 = T
    assert t * t == KElement.from_fqpoly(ctx, T)
    assert index_ideal(ok.ideal, R.ideal) == T


def test_maximal_order_trivial_cases():
    for q, fstr in [(3, "x^2 - T"), (5, "x^2 - (T^3 + T + 1)"), (3, "1 - x + x^3")]:
        ctx = make_ctx(q, fstr)
        assert P.maximal_order(ctx).ideal == Order.monogenic(ctx).ideal


def test_conductor_discriminant_identity():
    for q, fstr in [(3, "x^2 - T^3"), (2, "x^3 - T^4"), (3, "x^3 - T*x - T^2")]:
        ctx = make_ctx(q, fstr)
        R = Order.monogenic(ctx)
        ok = P.maximal_order(ctx)
        idx = index_ideal(ok.ideal, R.ideal)
        assert (P.order_discriminant(ok) * idx * idx
                == P.order_discriminant(R))
        # multiplicator rings land inside O_K
        pi = KElement.gen(ctx)
        T = FqPoly.gen(ctx.field)
        m = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi])
        assert ok.ideal.contains(m.colon(m))


def test_primes_above_in_max():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    rep = P.primes_above_in_max(ctx, T)
    assert [(q.e, q.f_res) for q in rep.primes] == [(2, 1)]
    assert rep.primes[0].norm() == 3
    rep = P.primes_above_in_max(ctx, T - one)
    assert sorted((q.e, q.f_res) for q in rep.primes) == [(1, 1), (1, 1)]
    # inert in O_K: T^2 + T + 2 -> t^4 + t^2 + 2 is irreducible over F_3
    rep = P.primes_above_in_max(ctx, T ** 2 + T + FqPoly.const(F, 2))
    assert sum(q.e * q.f_res for q in rep.primes) == 2
    with pytest.raises(InputError):
        P.primes_above_in_max(ctx, T ** 2 - one)


def test_max_splitting_matches_algebra_reference():
    # Dedekind's criterion: every Kummer-Dedekind prime above p is regular
    # exactly when p does not divide [O_K:R]; on either route the splitting
    # in O_K must match the decomposition of O_K/pO_K
    for q, fstr in CONTEXT_POOL:
        for ctx in (make_ctx(q, fstr), P.infinity_context(make_ctx(q, fstr))):
            R = Order.monogenic(ctx)
            idx = index_ideal(P.maximal_order(ctx).ideal, R.ideal)
            for d in (1, 2, 3):
                for p in monic_irreducibles(ctx.field, d):
                    kd = P.kummer_dedekind(R, p).primes
                    assert all(x.regular for x in kd) == (not (idx % p).is_zero())
                    got = P.primes_above_in_max(ctx, p).primes
                    ref = P._primes_above_by_algebra(ctx, p).primes
                    assert ([(x.e, x.f_res, x.ideal) for x in got]
                            == [(x.e, x.f_res, x.ideal) for x in ref])


def test_regular_primes_skip_the_algebra_decomposition(monkeypatch):
    def refuse(alg):
        raise AssertionError("local decomposition of O_K/pO_K")

    monkeypatch.setattr(kalgebra, "split_local_components", refuse)
    F = gf(3)
    T = FqPoly.gen(F)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))  # nothing cached
    for d in (1, 2):
        for p in monic_irreducibles(F, d):
            if p != T:
                rep = P.primes_above_in_max(ctx, p)
                assert sum(x.e * x.f_res for x in rep.primes) == 2
    with pytest.raises(AssertionError):
        P.primes_above_in_max(ctx, T)   # the index prime


def test_infinite_places():
    assert [(q.e, q.f_res) for q in P.infinite_places(make_ctx(3, "x^2 - T")).primes] \
        == [(2, 1)]
    assert [(q.e, q.f_res) for q in P.infinite_places(make_ctx(3, "x^2 - T^3")).primes] \
        == [(2, 1)]
    assert [(q.e, q.f_res) for q in
            P.infinite_places(make_ctx(5, "x^2 - (T^3 + T + 1)")).primes] == [(2, 1)]
    # split infinity: x^2 - (T^2 + 1) -> y^2 - (1 + U^2), and y^2 - 1 splits
    rep = P.infinite_places(make_ctx(3, "x^2 - (T^2 + 1)"))
    assert sorted((q.e, q.f_res) for q in rep.primes) == [(1, 1), (1, 1)]


def test_infinity_order_is_over_u():
    ctx = make_ctx(3, "x^2 - T^3")
    ictx = P.infinity_context(ctx)
    assert ictx.tvar == "U" and ictx.xvar == "y"
    o_inf = P.infinity_order(ctx)
    assert o_inf.ideal.is_order_lattice()


def test_splitting_type_matches_the_ideal_path():
    for q, fstr in CONTEXT_POOL:
        for ctx in (make_ctx(q, fstr), P.infinity_context(make_ctx(q, fstr))):
            for d in (1, 2, 3):
                for p in monic_irreducibles(ctx.field, d):
                    ideal_path = P.primes_above_in_max(ctx, p).primes
                    assert P.splitting_type(ctx, p) == tuple(
                        sorted((x.e, x.f_res) for x in ideal_path))


@pytest.mark.parametrize("q, fstr", [
    (3, "x^2 - T"), (3, "x^2 - T^3"), (3, "x^2 - (T^2 + 1)"),
    (5, "x^2 - (T^3 + T + 1)"), (5, "x^2 + T*x + T^3 + 1"),
    (7, "x^2 - (T^5 + 3)"), (9, "x^2 - (T^3 + a)")])
def test_quadratic_splitting_type_by_euler_criterion(q, fstr):
    # x^2 + b x + c at p not dividing D = b^2 - 4c splits iff D is a square
    # mod p, i.e. iff D^((|p| - 1)/2) = 1 mod p
    ctx = make_ctx(q, fstr)
    F = ctx.field
    c, b = ctx.f.coeffs[0], ctx.f.coeffs[1]
    disc = b * b - c.scale(F.from_int(4))
    one = FqPoly.one(F)
    for d in (1, 2, 3):
        for p in monic_irreducibles(F, d):
            if (disc % p).is_zero():
                continue
            square = powmod(disc, (q ** d - 1) // 2, p) == one
            assert P.splitting_type(ctx, p) == (((1, 1), (1, 1)) if square
                                                else ((1, 2),))


def test_census_builds_ideals_only_at_the_discriminant(monkeypatch):
    # partial_products and l_polynomial read splitting types: ideals are
    # built (by kummer_dedekind, the one caller of FracIdeal.from_elements)
    # only at p | disc(f) and at the infinite place, and no census prime
    # meets the Rabin test
    from gekeler import fqpoly, gpoly, weakeq
    from gekeler.ratios import partial_products
    from gekeler.zeta import constant_field_degree, l_polynomial
    kd_calls, outside_kd, rabin_calls, inside = [], [], [], []
    real_kd = P.kummer_dedekind
    real_from_elements = FracIdeal.from_elements
    real_is_irreducible = gpoly.is_irreducible

    def kummer_dedekind(order, p):
        kd_calls.append((order.ctx, p))
        inside.append(p)
        try:
            return real_kd(order, p)
        finally:
            inside.pop()

    def from_elements(ctx, elements):
        if not inside:
            outside_kd.append(ctx)
        return real_from_elements(ctx, elements)

    def is_irreducible(F, f):
        rabin_calls.append(f)
        return real_is_irreducible(F, f)

    tower = "(x^2 - (1 + T^3 - T - 1))^2 + 4*x^2"
    for q, fstr in [(3, "x^2 - T^3"), (3, "x^2 - (T^2 + 1)"), (2, "x^3 - T^4"),
                    (5, "x^2 - (T^3 + T + 1)"), (3, tower)]:
        field = gf_of_order(q)
        ctx = AlgebraContext(field, parse_bipoly(field, fstr))  # nothing cached
        # the constant-field test builds GF(q^m), whose modulus the Rabin
        # test finds once per field
        constant_field_degree(ctx)
        fqpoly._sieve.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(P, "kummer_dedekind", kummer_dedekind)
            m.setattr(weakeq, "kummer_dedekind", kummer_dedekind)
            m.setattr(FracIdeal, "from_elements", staticmethod(from_elements))
            m.setattr(gpoly, "is_irreducible", is_irreducible)
            partial_products(ctx, 3)
            l_polynomial(ctx)
        ictx = P.infinity_context(ctx)
        U = FqPoly.gen(field)
        assert kd_calls
        for kctx, p in kd_calls:
            assert kctx in (ctx, ictx)
            assert ((kctx is ictx and p == U)
                    or (P.discriminant_of_f(kctx) % p).is_zero())
        assert outside_kd == []
        assert rabin_calls == []
        kd_calls.clear()


def test_splitting_checks_name_the_stage_and_instance(monkeypatch):
    from gekeler import gpoly
    from gekeler.errors import InternalCheckError
    F = gf(3)
    T = FqPoly.gen(F)
    p = T + FqPoly.one(F)
    real_ddf, real_factor = gpoly.distinct_degree, gpoly.factor
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T"))
    monkeypatch.setattr(gpoly, "distinct_degree", lambda k, f: 2 * real_ddf(k, f))
    with pytest.raises(InternalCheckError) as exc:
        P.splitting_type(ctx, p)
    assert str(exc.value) == ("splitting_type: sum of e*f is not r for "
                              "q = 3, f = x^2 + 2*T, p = T + 1")
    monkeypatch.setattr(gpoly, "factor", lambda k, f, seed: 2 * real_factor(k, f, seed))
    with pytest.raises(InternalCheckError, match="^kummer_dedekind: .* "
                       r"q = 3, f = x\^2 \+ 2\*T, p = T \+ 1$"):
        P.primes_above_in_max(ctx, p)
