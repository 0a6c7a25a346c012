import pytest

from conftest import make_ctx
from gekeler.gf import gf_of_order
from gekeler.fqpoly import FqPoly
from gekeler.ideals import Order, index_ideal
from gekeler.primes import maximal_order
from gekeler.overorders import p_overorders, p_saturation
from gekeler.quotient import invariant_subspaces
from gekeler.errors import InputError, InseparableError


def v_p(poly, p):
    n = 0
    while True:
        q, r = poly.divmod(p)
        if not r.is_zero():
            return n
        poly = q
        n += 1


def test_cusp_exactly_r_and_ok():
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    R = Order.monogenic(ctx)
    ok = maximal_order(ctx)
    out = p_overorders(ctx, T)
    assert len(out.orders) == 2
    assert {s.ideal for s in out.orders} == {R.ideal, ok.ideal}


def test_regular_prime_gives_only_r():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    out = p_overorders(ctx, T - FqPoly.one(F))
    assert len(out.orders) == 1
    assert out.orders[0].ideal == Order.monogenic(ctx).ideal


def test_members_are_p_power_index_rings_between_r_and_saturation():
    ctx = make_ctx(2, "x^3 - T^4")
    T = FqPoly.gen(ctx.field)
    R = Order.monogenic(ctx)
    sat = p_saturation(ctx, T)
    out = p_overorders(ctx, T)
    assert len(out.orders) == 4
    keys = set()
    for s in out.orders:
        assert s.ideal.is_order_lattice()
        assert s.ideal.contains(R.ideal)
        assert sat.ideal.contains(s.ideal)
        idx = index_ideal(s.ideal, R.ideal)
        # index is a power of p
        assert idx == T ** v_p(idx, T)
        keys.add(s.canonical_key())
    # injectivity: all pairwise distinct canonical forms
    assert len(keys) == 4
    assert R.ideal in {s.ideal for s in out.orders}
    assert sat.ideal in {s.ideal for s in out.orders}


def test_saturation_is_whole_ok_when_index_is_p_power():
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    assert p_saturation(ctx, T).ideal == maximal_order(ctx).ideal
    # at a regular prime the saturation is R itself
    one = FqPoly.one(ctx.field)
    assert p_saturation(ctx, T - one).ideal == Order.monogenic(ctx).ideal


def test_input_validation():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    with pytest.raises(InputError):
        p_overorders(ctx, T ** 2 - FqPoly.one(F))
    from gekeler.parse import parse_bipoly
    from gekeler.context import AlgebraContext
    insep = AlgebraContext(F, parse_bipoly(F, "x^3 - T"))
    with pytest.raises(InseparableError):
        p_overorders(insep, T)


def test_subspace_count_of_trivial_module_is_q_plus_3():
    # (A/p)^2 with trivial action: candidate count is q + 3
    for q in (2, 3, 4, 9):
        field = gf_of_order(q)
        zero_mat = [tuple(0 for _ in range(2)) for _ in range(2)]
        subs = invariant_subspaces(field, 2, [zero_mat])
        assert len(subs) == q + 3


def test_nilpotent_jordan_block_has_a_chain_of_subspaces():
    # a 3x3 nilpotent Jordan block over F_9 leaves exactly 0, ker N,
    # ker N^2 and the whole space invariant
    field = gf_of_order(9)
    jordan = [(0, 1, 0), (0, 0, 1), (0, 0, 0)]
    subs = invariant_subspaces(field, 3, [jordan])
    assert subs == [(), ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)),
                    ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def test_rank3_overorders_match_numerical_semigroups():
    # for x^3 - T^4 over F_2 (T = u^3, pi = u^4) the overorders correspond to
    # the numerical semigroups containing <3,4>: <3,4>, <3,4,5>, <2,3>, <1>
    ctx = make_ctx(2, "x^3 - T^4")
    T = FqPoly.gen(ctx.field)
    out = p_overorders(ctx, T)
    indexes = sorted(index_ideal(maximal_order(ctx).ideal, s.ideal).to_str()
                     for s in out.orders)
    # gaps of the semigroups: 3, 2, 1, 0 -> indexes T^3, T^2, T, 1
    assert indexes == ["1", "T", "T^2", "T^3"]
