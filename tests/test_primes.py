import contextlib
import io
import random
import sys
from collections import Counter

import pytest

from conftest import CENSUS_CURVES, ORACLE_CURVES, THREE_BRANCH_CURVES, make_ctx
from property_suite import CONTEXT_POOL
import census_oracle
from ring_oracle import is_order_lattice
from gekeler.gf import GF, gf, gf_of_order
from gekeler.gf import embedding as gf_embedding
from gekeler.fqpoly import FqPoly, monic_irreducibles
from gekeler.bipoly import BiPoly
from gekeler.parse import parse_bipoly, parse_fqpoly
from gekeler.context import AlgebraContext
from gekeler import gpoly, kalgebra, klinalg
from gekeler.context import KElement
from gekeler.ideals import FracIdeal, Order
from gekeler.quotient import NOT_A_RING, LatticeQuotient
from gekeler.residue import ResidueField, residue_field
from gekeler import primes as P
from gekeler.errors import (BudgetExceeded, InputError, InseparableError,
                            InternalCheckError, ReducibleError)


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
            assert R.ideal.index_in(q.ideal) == p ** q.f_res
            norm = F.q ** (int(q.below.degree) * q.f_res)
            assert norm == 3 ** (int(p.degree) * q.f_res)


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
    with pytest.raises(InseparableError):
        AlgebraContext(F, parse_bipoly(F, "x^3 - T"))


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
    assert is_order_lattice(ok.ideal)
    # t integral: t^2 = T
    assert t * t == KElement.from_fqpoly(ctx, T)
    assert ok.ideal.index_in(R.ideal) == T


def test_maximal_order_trivial_cases():
    for q, fstr in [(3, "x^2 - T"), (5, "x^2 - (T^3 + T + 1)"), (3, "1 - x + x^3")]:
        ctx = make_ctx(q, fstr)
        assert P.maximal_order(ctx).ideal == Order.monogenic(ctx).ideal


def test_conductor_discriminant_identity():
    for q, fstr in [(3, "x^2 - T^3"), (2, "x^3 - T^4"), (3, "x^3 - T*x - T^2")]:
        ctx = make_ctx(q, fstr)
        R = Order.monogenic(ctx)
        ok = P.maximal_order(ctx)
        idx = ok.ideal.index_in(R.ideal)
        assert (P.order_discriminant(ok) * idx * idx
                == P.order_discriminant(R))
        # multiplicator rings land inside O_K
        pi = KElement.gen(ctx)
        T = FqPoly.gen(ctx.field)
        m = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi])
        assert ok.ideal.contains(m.colon(m))
    # the identity is one of linear algebra: it holds on every lattice
    # R + A*b, b in the basis of O_T, rings or not, so it certifies no
    # saturation
    lattices = not_rings = 0
    for q, fstr in [(2, "x^3 - T^5"), (3, "x^4 - T^5"), (2, "x^3 - T^7"),
                    (2, "(x^2 - T^1)*(x^2 - T^5*x - T^6)^1 + T^7*x")]:
        ctx = make_ctx(q, fstr)
        R = Order.monogenic(ctx)
        disc = P.order_discriminant(R)
        T = FqPoly.gen(ctx.field)
        for z in P.p_saturation(ctx, T).basis_elements():
            lattice = _r_plus(ctx, (z.num, z.den))
            idx = lattice.index_in(R.ideal)
            assert P.order_discriminant(Order(lattice)) * idx * idx == disc
            ring = is_order_lattice(lattice)
            assert ring == (_no_ring_lattice(ctx, (z.num, z.den), T) is None)
            lattices += 1
            not_rings += not ring
    assert (lattices, not_rings) == (14, 7)


def _k_product_gram(order):
    """The reference trace form of an order's A-basis b: the Gram matrix
    (Tr(b_i b_j)) through products in K, with Tr(z) the trace of the
    matrix of multiplication by z in the power basis, the sum over k of
    the pi^k-coordinate of z pi^k."""
    ctx = order.ctx
    basis = order.basis_elements()
    gram = []
    for u in basis:
        row = []
        for v in basis:
            z = u * v
            trace = FqPoly.zero(ctx.field)
            for k, e in enumerate(ctx.power_vectors):
                trace = trace + ctx.mult_vectors(z.num, e)[k]
            row.append(trace.exact_div(z.den))
        gram.append(row)
    return gram


def test_hankel_gram_matches_the_k_product_gram():
    # order_discriminant reads the trace form as C^T H C / d^2 off the
    # power sums; the reference multiplies the basis elements in K, on R,
    # every saturation and p-overorder and the maximal order, at the
    # finite places and at infinity, over q in {2, 3, 4, 5, 7, 9, 11} and
    # up to rank 4
    from gekeler import amatrix
    from gekeler.overorders import p_overorders
    seen = 0
    for q, fstr in (ORACLE_CURVES + THREE_BRANCH_CURVES + CENSUS_CURVES
                    + [(9, "x^2 - T^5"), (9, "x^3 + T^2*x + T^4")]):
        ctx = make_ctx(q, fstr)
        for c in (ctx, P.infinity_context(ctx)):
            orders = [Order.monogenic(c), P.maximal_order(c)]
            for p in P.singular_primes(c):
                orders += [P.p_saturation(c, p), *p_overorders(c, p).orders]
            for order in orders:
                gram = _k_product_gram(order)
                assert all(gram[i][j] == gram[j][i]
                           for i in range(c.r) for j in range(i))
                assert P.order_discriminant(order) == \
                    amatrix.det(gram).monic(), (q, fstr, order)
                seen += 1
    assert seen > 100


def algebra_mod_p(order, p):
    """S/pS as a FiniteAlgebra over A/p, in the order's basis: the A/p
    reference for the F_q-algebra LatticeQuotient(S, pS).algebra()."""
    ctx = order.ctx
    k = ResidueField(p)
    lat = order.ideal
    cols = lat.basis_columns()
    den2 = lat.den * lat.den
    struct = [[tuple(k.project(c) for c in lat.coordinates(
                   ctx.mult_vectors(cols[i], cols[j]), den2))
               for j in range(ctx.r)] for i in range(ctx.r)]
    one = KElement.one(ctx)
    return k, kalgebra.FiniteAlgebra(
        k, struct, tuple(k.project(c) for c in lat.coordinates(one.num, one.den)))


def _lattice_from_subspace(order, p, vectors):
    """Pullback in K of a subspace of S/pS (vectors in order coordinates)."""
    ctx = order.ctx
    lat = order.ideal
    k = ResidueField(p)
    basis_cols = lat.basis_columns()
    cols = [tuple(e * p for e in col) for col in basis_cols]
    for w in vectors:
        acc = [FqPoly.zero(ctx.field)] * ctx.r
        for j, c in enumerate(w):
            if c != k.zero():
                for t in range(ctx.r):
                    acc[t] = acc[t] + basis_cols[j][t] * k.lift(c)
        cols.append(tuple(acc))
    return FracIdeal.from_columns(ctx, cols, lat.den)


def _radical(order, p):
    """The radical of pS in S: the pullback of the nilradical of S/pS."""
    quo, alg = P.p_radical(order, p)
    return quo.pullback(alg.nilradical_basis())


def test_p_radical_is_the_pullback_of_the_nilradical():
    for q, fstr in CONTEXT_POOL:
        for ctx in (make_ctx(q, fstr), P.infinity_context(make_ctx(q, fstr))):
            for d in (1, 2):
                for p in monic_irreducibles(ctx.field, d):
                    for S in (Order.monogenic(ctx), P.p_saturation(ctx, p)):
                        _, alg = algebra_mod_p(S, p)
                        assert _radical(S, p) == _lattice_from_subspace(
                            S, p, alg.nilradical_basis())


_REFERENCE = {}


def _reference_primes_above(ctx, p):
    """The primes of O_K above p with their ideals, at every p, from the
    local components of O_K/pO_K: the prime of a component is the pullback
    of the nilradical plus the other components, of norm p^f."""
    key = (ctx, p)
    if key in _REFERENCE:
        return _REFERENCE[key]
    order = P.maximal_order(ctx)
    k, alg = algebra_mod_p(order, p)
    nil = alg.nilradical_basis()
    comps = [klinalg.span_basis(k, [alg.mul(eps, alg.basis_vector(j))
                                    for j in range(alg.dim)])
             for eps in kalgebra.split_local_components(alg)]
    primes = []
    for i, comp in enumerate(comps):
        f_res = len(klinalg.span_basis(k, list(comp) + list(nil))) - len(nil)
        assert f_res > 0 and len(comp) % f_res == 0
        others = [v for j, other in enumerate(comps) if j != i for v in other]
        w = klinalg.span_basis(k, list(nil) + others)
        assert len(w) == alg.dim - f_res
        ideal = _lattice_from_subspace(order, p, w)
        assert order.ideal.index_in(ideal) == (p ** f_res).monic()
        primes.append(P.PrimeAbove(p, ideal, len(comp) // f_res, f_res, True))
    assert sum(q.e * q.f_res for q in primes) == ctx.r
    primes.sort(key=lambda q: q.ideal.canonical_key())
    _REFERENCE[key] = primes
    return primes


def _pairs(primes):
    return tuple(sorted((q.e, q.f_res) for q in primes))


def _remainder_rule_regular(ctx, p, g, e):
    """The p^2-remainder rule, the reference for the Dedekind record: the
    prime (p, G(pi)) of a factor g of multiplicity e of f mod p is regular
    when e = 1 or f mod G, G the lift of g, does not vanish mod p^2."""
    if e == 1:
        return True
    k = residue_field(p)
    _, rem = ctx.f.divmod_monic(BiPoly(ctx.field, [k.lift(c) for c in g]))
    return any(not (c % (p * p)).is_zero() for c in rem.coeffs)


DEDEKIND_CURVES = list(dict.fromkeys(
    ORACLE_CURVES + CONTEXT_POOL + THREE_BRANCH_CURVES
    + [(2, "x^3 - (T^2+T+1)^5")]))


def _dedekind_cases():
    """(ctx, p) for every prime p of disc(f) of each DEDEKIND_CURVES curve
    and of its model at infinity."""
    for q, fstr in DEDEKIND_CURVES:
        finite = make_ctx(q, fstr)
        for ctx in (finite, P.infinity_context(finite)):
            for p, _ in P.discriminant_factors(ctx):
                yield ctx, p


def test_dedekind_regularity_is_the_remainder_rule():
    seen = 0
    for ctx, p in _dedekind_cases():
        rec = P.dedekind(ctx, p)
        for g, e in rec.factors:
            assert rec.regular(g) == _remainder_rule_regular(ctx, p, g, e)
            seen += 1
        # and at two primes of each degree 1, 2 that need not divide disc(f)
        for d in (1, 2):
            for p2 in list(monic_irreducibles(ctx.field, d))[:2]:
                rec = P.dedekind(ctx, p2)
                assert all(rec.regular(g) == _remainder_rule_regular(ctx, p2, g, e)
                           for g, e in rec.factors)
    assert seen >= 40


def _linear_residue_results():
    """At every prime T - c of each DEDEKIND_CURVES and CENSUS_CURVES curve
    and of its model at infinity, in fresh contexts: the factors of f mod p,
    the Dedekind record's factors and z, and the pattern of f mod p where p
    does not divide disc(f), each element c of A/p written as (c,)."""
    def poly(g):
        return tuple(c if isinstance(c, tuple) else (c,) if c else () for c in g)

    out = []
    for q, fstr in dict.fromkeys(DEDEKIND_CURVES + CENSUS_CURVES):
        field = gf_of_order(q)
        finite = AlgebraContext(field, parse_bipoly(field, fstr))
        for ctx in (finite, P.infinity_context(finite)):
            disc = P.discriminant_of_f(ctx)
            for c in range(q):
                p = FqPoly(field, (c, 1))
                k, fbar = ctx.f.reduce_mod(p)
                rec = P.dedekind(ctx, p)
                out.append(((q, fstr, ctx.tvar, c),
                            [(poly(g), m) for g, m in gpoly.factor(k, fbar)],
                            [(poly(g), e) for g, e in rec.factors], poly(rec.z),
                            None if (disc % p).is_zero() else P._pattern(k, fbar)))
    return out


def test_linear_residues_match_the_tuple_residue_field(monkeypatch):
    # A/(T - c) is F_q through T -> c: factors, Dedekind records and patterns
    # are those over the tuple-valued ResidueField, and a map that evaluates
    # at c + 1 instead is caught
    import gekeler.bifactor
    import gekeler.bipoly
    from gekeler.residue import LinearResidueField
    F = gf(3)
    assert type(residue_field(FqPoly.gen(F))) is LinearResidueField
    assert type(residue_field(FqPoly(F, (1, 0, 1)))) is ResidueField
    got = _linear_residue_results()
    assert len(got) == 172
    with monkeypatch.context() as patch:
        for module in (gekeler.bifactor, gekeler.bipoly):
            patch.setattr(module, "residue_field", ResidueField)
        expected = _linear_residue_results()
    assert got == expected
    monkeypatch.setattr(LinearResidueField, "project", lambda self, poly:
                        gpoly.eval_poly(self.base, poly.coeffs,
                                        self.base.add(self.c, 1)))
    try:
        mutant = _linear_residue_results()
    except InternalCheckError:   # Dedekind's remainder check trips first
        mutant = None
    assert mutant != expected


def _dedekind_order(ctx, p):
    """Dedekind's R' = R + (U(pi)/p) R for U the lift of (f mod p)/z: the
    ring of multipliers of the radical of pR, with [R':R] = p^(deg z)
    (Cohen, GTM 138, Thm 6.1.4)."""
    k, fbar = ctx.f.reduce_mod(p)
    u = gpoly.divmod_poly(k, fbar, P.dedekind(ctx, p).z)[0]
    u = ctx.eval_at_pi(tuple(k.lift(c) for c in u))
    cols = [tuple(c * p for c in e) for e in ctx.power_vectors]
    cols += [ctx.mult_vectors(u, e) for e in ctx.power_vectors]
    return Order(FracIdeal.from_columns(ctx, cols, p))


def test_dedekind_order_is_the_first_radical_step():
    # R' = R + (U(pi)/p) R equals (rad:rad) for rad the radical of pR, and
    # [R':R] = p^(deg z), at every singular p of the pools, the two
    # three-branch curves, a degree-2 prime and their models at infinity
    covered = set()
    for ctx, p in _dedekind_cases():
        if p not in P.singular_primes(ctx):
            assert gpoly.deg(P.dedekind(ctx, p).z) == 0
            continue
        R = Order.monogenic(ctx)
        z = P.dedekind(ctx, p).z
        rad = _radical(R, p)
        first = _dedekind_order(ctx, p).ideal
        assert first == rad.colon(rad)
        assert gpoly.deg(z) > 0
        assert first.index_in(R.ideal) == (p ** gpoly.deg(z)).monic()
        covered.add((ctx.f.to_str(ctx.tvar, ctx.xvar), p.to_str(ctx.tvar)))
    degree_two = make_ctx(2, "x^3 - (T^2+T+1)^5")
    assert (degree_two.f.to_str(), "T^2 + T + 1") in covered
    assert len(covered) == 26


def _radical_chain(start, p):
    """S -> (rad:rad) from the order `start` until it stops."""
    chain = [start]
    while True:
        rad = _radical(chain[-1], p)
        grown = Order(rad.colon(rad))
        if grown == chain[-1]:
            return chain
        chain.append(grown)


def _valuation(a, p):
    v = 0
    while (a % p).is_zero():
        a, v = a // p, v + 1
    return v


def test_saturation_is_the_colon_fixed_point():
    # the tame stop ends each saturation where the radical steps from R
    # stop, at every singular p of the pools and their models at infinity
    seen = 0
    for ctx, p in _dedekind_cases():
        if p in P.singular_primes(ctx):
            assert P.p_saturation(ctx, p) == _radical_chain(Order.monogenic(ctx), p)[-1]
            seen += 1
    assert seen == 26


ORE_CURVES = list(dict.fromkeys(
    ORACLE_CURVES + CONTEXT_POOL + THREE_BRANCH_CURVES + CENSUS_CURVES
    + [(3, "x^2 + 2*T*x + T^2 + T^3"),   # irregular at T: (y + 1)^2
       (3, "(x^2 + 1)^2 + T^3"),          # singular factor x^2 + 1 at T
       (3, "(x^2 - 1)^2 - T^3")]))        # singular factors x - 1, x + 1 at T


def test_ore_order_is_the_saturation_where_f_is_p_regular(monkeypatch):
    # at every singular p of the pools and their models at infinity, Ore's
    # order lies in O, the saturation opened at R ends at the one opened at
    # Ore's order, and Ore's order is O except at one prime where f is not
    # p-regular; at the other, (y + 1)^2 at T, it is O all the same
    exact = {}
    for q, fstr in ORE_CURVES:
        finite = make_ctx(q, fstr)
        for ctx in (finite, P.infinity_context(finite)):
            for p in P.singular_primes(ctx):
                sat = P.p_saturation(ctx, p)
                ore = P.ore_order(ctx, p)
                assert sat.ideal.contains(ore.ideal)
                with monkeypatch.context() as m:
                    m.setattr(P, "ore_order", lambda ctx, p: Order.monogenic(ctx))
                    assert P._saturation.__wrapped__(ctx, p)[0] == sat
                rec = P.dedekind(ctx, p)
                singular = [(gpoly.deg(g), e) for g, e in rec.factors
                            if not rec.regular(g)]
                exact[fstr, p.to_str(ctx.tvar), tuple(singular)] = ore == sat
    below = [key for key, ok in exact.items() if not ok]
    assert below == [   # irregular: residual polynomial (y - 1)^2
        ("(x^2 - (1 + T^3 - T - 1))^2 + 4*x^2", "U", ((1, 4),))]
    assert exact["x^2 + 2*T*x + T^2 + T^3", "T", ((1, 2),)]
    assert exact["(x^2 + 1)^2 + T^3", "T", ((2, 2),)]
    assert exact["(x^2 - 1)^2 - T^3", "T", ((1, 2), (1, 2))]
    assert len(exact) == 31


# irregular primes: polygons of two or more sides, finite and at infinity,
# and singular factors of degree 2 over F_3
RING_CURVES = [
    (q, fstr.format(a=a, b=b, c=b + 1, m=m, n=n))
    for q in (2, 3) for a in (1, 2) for b in (1, 3, 5) for m in (1, 2)
    for n in (7, 11)
    for fstr in ("(x - T^{a})^2*(x^2 - T^{b})^{m} + T^{n}",
                 "(x^2 - T^{a})*(x^2 - T^{b}*x - T^{c})^{m} + T^{n}*x")
] + [(3, f"(x^2 + 1)^{m} + T^{b}*x^{c}")
     for m in (2, 3) for b in (3, 5, 6, 9) for c in (1, 2)]


def test_ore_order_is_a_ring_between_dedekinds_order_and_o():
    # where f is not p-regular Ore's order need not be O, but at every
    # singular p it is a ring, lies in O, contains R' and meets Ore's index
    # (ore_order raises where it misses it)
    curves = primes = below = below_at_degree_two = 0
    for q, fstr in RING_CURVES:
        field = gf_of_order(q)
        try:
            finite = AlgebraContext(field, parse_bipoly(field, fstr))
            infinite = P.infinity_context(finite)
        except (ReducibleError, InseparableError):
            continue
        curves += 1
        for ctx in (finite, infinite):
            for p in P.singular_primes(ctx):
                ore = P.ore_order(ctx, p).ideal
                sat = P.p_saturation(ctx, p).ideal
                assert is_order_lattice(ore)
                assert sat.contains(ore)
                assert ore.contains(_dedekind_order(ctx, p).ideal)
                rec = P.dedekind(ctx, p)
                primes += 1
                below += ore != sat
                below_at_degree_two += ore != sat and any(
                    gpoly.deg(g) == 2 for g, _ in rec.factors if not rec.regular(g))
    assert (curves, primes, below, below_at_degree_two) == (86, 178, 69, 4)


def test_saturation_opened_at_ore_order_takes_no_colon(monkeypatch):
    # where Ore's order is O the saturation builds S/pS once, to certify
    # it, and takes no colon; from Dedekind's order at a singular factor
    # of degree 2 it built S/pS twice and took one colon
    calls = {"colon": 0, "p_radical": 0}
    real_colon, real_radical = FracIdeal.colon, P.p_radical

    def colon(self, other):
        calls["colon"] += 1
        return real_colon(self, other)

    def p_radical(order, p):
        calls["p_radical"] += 1
        return real_radical(order, p)

    monkeypatch.setattr(FracIdeal, "colon", colon)
    monkeypatch.setattr(P, "p_radical", p_radical)
    for q, fstr, builds in ((3, "(x^2+1)^2 + T^5*x", 1),
                            (2, "(x^2+x+1)^3 + T^4*x", 2)):
        field = gf_of_order(q)
        ctx = AlgebraContext(field, parse_bipoly(field, fstr))
        calls.update(colon=0, p_radical=0)
        P.maximal_order(ctx)
        assert calls == {"colon": 0, "p_radical": builds}
        assert len(P.singular_primes(ctx)) == builds


def test_the_radical_steps_certify_the_start(monkeypatch):
    # opened at a proper sub-order of O, R' or R itself, the saturation
    # still ends at O, with more builds of S/pS than the one that
    # certifies Ore's order
    F = gf(2)
    T = FqPoly.gen(F)
    target = P.p_saturation(make_ctx(2, "x^3 - T^5"), T).ideal
    real = P.p_radical
    for start in (_dedekind_order, lambda ctx, p: Order.monogenic(ctx)):
        steps = []
        with monkeypatch.context() as m:
            m.setattr(P, "ore_order", start)
            m.setattr(P, "p_radical",
                      lambda order, p: steps.append(order) or real(order, p))
            ctx = AlgebraContext(F, parse_bipoly(F, "x^3 - T^5"))
            opened = start(ctx, T).ideal
            sat = P.p_saturation(ctx, T).ideal
        assert (opened.num, opened.den) != (target.num, target.den)
        assert (sat.num, sat.den) == (target.num, target.den)
        assert len(steps) >= 3


def test_ore_index_fault_names_the_stage_and_instance(monkeypatch):
    # an Ore's order whose HNF misses Ore's index is a fault of maximal_order
    real = FracIdeal.covolume
    monkeypatch.setattr(FracIdeal, "covolume", lambda self: real(self) + 1)
    F = gf(3)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))
    with pytest.raises(InternalCheckError) as exc:
        P.maximal_order(ctx)
    assert str(exc.value) == ("maximal_order: Ore's order misses Ore's index "
                              "for q = 3, f = x^2 + 2*T^3, p = T")


def _r_plus(ctx, b):
    """R + A*b for an element b of K, given by its numerator and
    denominator."""
    return FracIdeal.from_elements(
        ctx, [*Order.monogenic(ctx).basis_elements(), KElement(ctx, *b)])


def _no_ring_lattice(ctx, b, p):
    """R + A*b for an element b of O, or None where that lattice is a ring
    (by the product table of its quotient mod p)."""
    lattice = _r_plus(ctx, b)
    try:
        p_el = KElement.from_fqpoly(ctx, p)
        LatticeQuotient(lattice, lattice.scale(p_el)).algebra()
    except InternalCheckError as exc:
        assert str(exc) == NOT_A_RING
        return lattice
    return None


def test_saturation_restarts_from_r_where_ore_lattice_is_no_ring(
        monkeypatch, capsys):
    # where the lattice the saturation opens at fails the product table of
    # the first radical step, it starts again from R and ends at the same
    # O: the saturation, O_K and the icm report at T are unchanged
    from gekeler import cli
    q, fstr = 2, "(x^2 - T^1)*(x^2 - T^5*x - T^6)^1 + T^7*x"
    assert (q, fstr) in RING_CURVES
    F = gf(q)
    T = FqPoly.gen(F)

    def fresh():
        return AlgebraContext(F, parse_bipoly(F, fstr))

    def run():
        sat = P.p_saturation(fresh(), T).ideal
        ok = P.maximal_order(fresh()).ideal
        assert cli.main(["icm", "--q", str(q), "--f", fstr, "--prime", "T"]) == 0
        return (sat.num, sat.den), (ok.num, ok.den), capsys.readouterr().out

    expected = run()
    ctx = fresh()
    sat = P.p_saturation(ctx, T).ideal
    assert P.ore_order(ctx, T).ideal != sat   # T is irregular here
    b = next(b for b in ((z.num, z.den) for z in sat.basis_elements())
             if _no_ring_lattice(ctx, b, T) is not None)
    opened = []

    def no_ring(c, p):
        opened.append(p)
        return Order(_no_ring_lattice(c, b, p))

    monkeypatch.setattr(P, "ore_order", no_ring)
    assert run() == expected
    assert opened == [T, T, T]   # once in each fresh context


def _work(monkeypatch, argv):
    """The calls (name, T variable of the context, the other arguments) of
    discriminant_factors, dedekind, _saturation, maximal_order,
    order_discriminant, FracIdeal.__mul__ and FracIdeal.index_in while the
    CLI runs argv, and its stdout."""
    from gekeler import cli
    calls = []

    def spy(owner, name, ctx_of):
        real = getattr(owner, name)

        def wrapper(*args):
            calls.append((name, ctx_of(*args).tvar, args[1:]))
            return real(*args)
        # every module binding of it, so that no call goes uncounted
        for module in [owner, *(m for n, m in list(sys.modules.items())
                                if n.startswith("gekeler"))]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)

    for name in ("discriminant_factors", "dedekind", "_saturation",
                 "maximal_order"):
        spy(P, name, lambda ctx, *args: ctx)
    spy(P, "order_discriminant", lambda order: order.ctx)
    for name in ("__mul__", "index_in"):
        spy(FracIdeal, name, lambda a, b: a.ctx)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return calls, out.getvalue()


def test_zeta_reads_the_place_at_infinity_at_u_alone(monkeypatch):
    # the model at infinity factors no discriminant, builds one Dedekind
    # record and one saturation, both at U, and no run multiplies lattices
    U = FqPoly.gen(gf(2))
    calls, _ = _work(monkeypatch, ["zeta", "--q", "2", "--f",
                                   "x^3 + T*x + T^4 + T + 1"])
    assert ("discriminant_factors", "U", ()) not in calls
    assert {args for name, tvar, args in calls
            if name == "dedekind" and tvar == "U"} == {(U,)}
    assert {(tvar, args) for name, tvar, args in calls
            if name == "_saturation"} == {("U", (U,))}
    assert not [c for c in calls if c[0] == "__mul__"]


def test_icm_at_one_prime_reads_that_prime_alone(monkeypatch):
    # no factorization of disc(f), no product of saturations, and no Gram
    # or index determinant: the radical loop certifies the saturation
    calls, _ = _work(monkeypatch, ["icm", "--q", "2", "--f", "x^3 - T^5",
                                   "--prime", "T"])
    names = Counter(name for name, _, _ in calls)
    assert names["discriminant_factors"] == names["__mul__"] == 0
    assert names["order_discriminant"] == names["index_in"] == 0


def test_genus_forms_no_maximal_order_at_two_singular_primes(monkeypatch):
    # the finite part of the genus is the sum of the saturations'
    # covolumes, so zeta multiplies no lattices even where two primes
    # are singular
    import json
    q, fstr = 3, "x^2 - T^3*(T + 1)^3"
    assert len(P.singular_primes(make_ctx(q, fstr))) == 2
    calls, out = _work(monkeypatch, ["zeta", "--q", str(q), "--f", fstr])
    names = Counter(name for name, _, _ in calls)
    assert names["__mul__"] == names["maximal_order"] == 0
    assert names["order_discriminant"] == names["index_in"] == 0
    report = json.loads(out)
    assert (report["g"], report["L"]) == (0, [1])


def test_power_sums_wait_for_order_discriminant():
    # a fresh context, and every stage that reads it, computes no power
    # sums; order_discriminant computes them once per context
    from gekeler.zeta import genus
    F = gf(2)
    T = FqPoly.gen(F)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^3 - T^5"))
    key = (P._power_sums.__wrapped__,)
    assert not hasattr(ctx, "trace_powers")
    P.primes_above_in_max(ctx, T)
    genus(ctx)
    assert key not in ctx.cache
    R = Order.monogenic(ctx)
    assert P.order_discriminant(R) == T ** 10
    sums = ctx.cache[key]
    assert P.order_discriminant(P.p_saturation(ctx, T)) == T ** 2
    assert ctx.cache[key] is sums


# every pool of curves with a singular prime, finite and at infinity
_POOL_CURVES = list(dict.fromkeys(ORACLE_CURVES + THREE_BRANCH_CURVES
                                  + CENSUS_CURVES + CONTEXT_POOL + RING_CURVES))


def test_each_prime_reads_the_same_whether_or_not_o_k_came_first():
    # _is_singular agrees with singular_primes at every prime of degree <= 2
    # (U among them); a context that built O_K first and one that never did
    # read the same saturations and splitting types at the primes of disc(f)
    # among them and at the singular primes, the same places at infinity
    # and genus, and O_K is the product of the saturations, whose
    # covolumes sum to its own, as genus reads it
    from gekeler.zeta import genus
    curves = singular = 0
    for q, fstr in _POOL_CURVES:
        field = gf_of_order(q)
        try:
            first, never = (AlgebraContext(field, parse_bipoly(field, fstr))
                            for _ in range(2))
        except (ReducibleError, InseparableError):
            continue
        curves += 1
        pairs = [(first, never),
                 (P.infinity_context(first), P.infinity_context(never))]
        low = [p for d in (1, 2) for p in monic_irreducibles(field, d)]
        for a, b in pairs:
            P.maximal_order(a)
            sing = P.singular_primes(a)
            singular += len(sing)
            disc = P.discriminant_of_f(a)
            for p in low:
                assert P._is_singular(a, p) == (p in sing)
            for p in dict.fromkeys([p for p in low if (disc % p).is_zero()]
                                   + sing):
                sat_a = P.p_saturation(a, p).ideal
                sat_b = P.p_saturation(b, p).ideal
                assert (sat_a.num, sat_a.den) == (sat_b.num, sat_b.den)
                assert P.primes_above_in_max(a, p) == P.primes_above_in_max(b, p)
        assert P.infinite_places(first) == P.infinite_places(never)
        assert genus(first) == genus(never)
        for a, b in pairs:
            for c in (a, b):
                product = FracIdeal.unit_ideal(c)
                covolume = 0
                for p in P.singular_primes(c):
                    product = product * P.p_saturation(c, p).ideal
                    covolume += P.p_saturation(c, p).ideal.covolume()
                ok = P.maximal_order(c).ideal
                assert ok == product
                assert ok.covolume() == covolume
    assert (curves, singular) == (111, 202)


def test_tame_bound_is_met_only_at_the_end_of_a_chain():
    # D(S) = deg p * v_p(disc S), from the trace form, and n(S), the
    # dimension of the nilradical of S/pS: D(S) >= n(S) along the radical
    # chain from Dedekind's order, with equality only at its end, and there
    # exactly when every e is prime to the characteristic
    wild = 0
    for ctx, p in _dedekind_cases():
        if p not in P.singular_primes(ctx):
            continue
        terms = []
        for order in _radical_chain(_dedekind_order(ctx, p), p):
            d = int(p.degree) * _valuation(P.order_discriminant(order), p)
            terms.append((d, len(P.p_radical(order, p)[1].nilradical_basis())))
        assert all(d > n for d, n in terms[:-1])
        tame = all(e % ctx.field.p for e, _ in P.primes_above_in_max(ctx, p))
        assert terms[-1][0] >= terms[-1][1]
        assert (terms[-1][0] == terms[-1][1]) == tame
        wild += not tame
    assert wild == 2


def test_wild_saturation_takes_the_confirming_colon(monkeypatch):
    # at infinity x*(x+T)*(x^2+T) + T^5 (q=2) has one place, with e = 4,
    # so D(O) > n(O) and only the colon of the radical of O shows that O
    # is maximal; at T, x^3 - T^5 (e = 3) stops without it
    F = gf(2)
    U = FqPoly.gen(F)
    taken = []
    real = FracIdeal.colon

    def colon(self, other):
        taken.append(self)
        return real(self, other)

    monkeypatch.setattr(FracIdeal, "colon", colon)
    wild = P.infinity_context(AlgebraContext(
        F, parse_bipoly(F, "x*(x+T)*(x^2+T) + T^5")))
    tame = AlgebraContext(F, parse_bipoly(F, "x^3 - T^5"))
    for ctx, e, confirmed in ((wild, 4, True), (tame, 3, False)):
        taken.clear()
        sat = P.p_saturation(ctx, U)
        assert P.primes_above_in_max(ctx, U) == ((e, 1),)
        assert (_radical(sat, U) in taken) == confirmed


def test_dedekind_faults_name_the_stage_and_instance(monkeypatch):
    # a lift whose product is not f mod p leaves prod G_i^e_i - f outside pA[x]
    from gekeler.cli import main
    real = P._lift_to_ax
    F = gf(3)

    def shifted(k, g):
        lifted = real(k, g)
        return (lifted[0] + FqPoly.one(F),) + lifted[1:]

    monkeypatch.setattr(P, "_lift_to_ax", shifted)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))
    with pytest.raises(InternalCheckError) as exc:
        P.singular_primes(ctx)
    assert str(exc.value) == ("kummer_dedekind: prod g_i^e_i - f is not "
                              "divisible by p for q = 3, f = x^2 + 2*T^3, p = T")
    code = main(["primes", "--q", "3", "--f", "x^2 - T^3"])
    assert code == 1


def test_primes_above_in_max():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    assert P.primes_above_in_max(ctx, T) == ((2, 1),)
    assert P.primes_above_in_max(ctx, T - one) == ((1, 1), (1, 1))
    # inert in O_K: T^2 + T + 2 -> t^4 + t^2 + 2 is irreducible over F_3
    assert P.primes_above_in_max(ctx, T ** 2 + T + FqPoly.const(F, 2)) == ((1, 2),)
    with pytest.raises(InputError):
        P.primes_above_in_max(ctx, T ** 2 - one)


def test_reference_prime_of_the_cusp():
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    (q,) = _reference_primes_above(ctx, T)
    norm = ctx.field.q ** (int(q.below.degree) * q.f_res)
    assert (q.e, q.f_res, norm) == (2, 1, 3)
    # O_K = A[x/T] with (x/T)^2 = T, so its prime above T is (x/T) O_K
    z = KElement(ctx, KElement.gen(ctx).num, T)
    assert q.ideal == FracIdeal.from_elements(ctx, [z]) * P.maximal_order(ctx).ideal


def test_max_splitting_matches_algebra_reference():
    # Dedekind's criterion: every Kummer-Dedekind prime above p is regular
    # exactly when p does not divide [O_K:R], and then the primes of O_K
    # are the P*O_K; on either route the splitting type must match the
    # decomposition of O_K/pO_K
    for q, fstr in CONTEXT_POOL:
        for ctx in (make_ctx(q, fstr), P.infinity_context(make_ctx(q, fstr))):
            R = Order.monogenic(ctx)
            ok = P.maximal_order(ctx).ideal
            idx = ok.index_in(R.ideal)
            for d in (1, 2, 3):
                for p in monic_irreducibles(ctx.field, d):
                    kd = P.kummer_dedekind(R, p).primes
                    regular = all(x.regular for x in kd)
                    assert regular == (not (idx % p).is_zero())
                    ref = _reference_primes_above(ctx, p)
                    assert P.primes_above_in_max(ctx, p) == _pairs(ref)
                    if regular:
                        got = sorted(((x.ideal * ok, x.e, x.f_res) for x in kd),
                                     key=lambda t: t[0].canonical_key())
                        assert got == [(x.ideal, x.e, x.f_res) for x in ref]


@pytest.mark.parametrize("q, fstr, pstr, pairs", [
    (3, "x^2 - (T + 1)*(T^2 + 1)^2", "T^2 + 1", ((1, 2),)),
    (3, "x^2 - (T^2 + 1)^3", "T^2 + 1", ((2, 1),)),
    (2, "x^3 + (T^2 + T + 1)^2*x + (T^2 + T + 1)^3", "T^2 + T + 1", ((1, 3),))])
def test_index_primes_of_higher_degree_match_the_algebra_reference(q, fstr, pstr,
                                                                    pairs):
    # O_K/pO_K is built over F_q, where a component of type (e, f) has
    # dimension e*f*deg p; the reference decomposes it over A/p
    ctx = make_ctx(q, fstr)
    p = parse_fqpoly(ctx.field, pstr)
    assert P.singular_primes(ctx) == [p]
    assert P.primes_above_in_max(ctx, p) == _pairs(_reference_primes_above(ctx, p))
    assert P.primes_above_in_max(ctx, p) == pairs


def test_saturation_runs_only_at_singular_primes(monkeypatch):
    # disc(f) = [O_K:R]^2 disc(O_K): a p with p || disc(f), or one whose
    # Kummer-Dedekind primes are all regular, does not divide the index;
    # every saturation step builds S/pS through p_radical
    steps = []
    real = P.p_radical

    def p_radical(order, p):
        steps.append((order.ctx, p))
        return real(order, p)

    monkeypatch.setattr(P, "p_radical", p_radical)
    F = gf(2)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^3 - T"))   # disc(f) = T^2
    assert P.maximal_order(ctx).ideal == Order.monogenic(ctx).ideal
    assert steps == []
    for q, fstr in CENSUS_CURVES + [(3, "x^2 - 2")]:
        field = gf_of_order(q)
        ctx = AlgebraContext(field, parse_bipoly(field, fstr))
        for c in (ctx, P.infinity_context(ctx)):
            P.maximal_order(c)
    assert steps
    for c, p in steps:
        assert p in P.singular_primes(c)


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
                assert sum(e * f for e, f in P.primes_above_in_max(ctx, p)) == 2
    with pytest.raises(AssertionError):
        P.primes_above_in_max(ctx, T)   # the index prime


def test_no_lattice_is_built_for_a_prime_of_the_maximal_order(monkeypatch):
    from gekeler.ratios import gekeler_ratio
    F = gf(3)
    T = FqPoly.gen(F)

    def refuse(*args):
        raise AssertionError("built a lattice for O_K")

    # T is regular and divides disc(x^2 - T): O_K is never needed
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T"))  # nothing cached
    with monkeypatch.context() as m:
        m.setattr(P, "maximal_order", refuse)
        m.setattr(FracIdeal, "__mul__", refuse)
        assert gekeler_ratio(ctx, T).residues == ((2, 1, 3),)
    # T is an index prime of x^2 - T^3: the type is read off O_K/TO_K
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))
    P.maximal_order(ctx)
    P.singular_primes(ctx)   # the Kummer-Dedekind primes of R above T
    with monkeypatch.context() as m:
        m.setattr(FracIdeal, "__init__", refuse)
        assert P.primes_above_in_max(ctx, T) == ((2, 1),)


def test_infinite_places():
    assert P.infinite_places(make_ctx(3, "x^2 - T")) == ((2, 1),)
    assert P.infinite_places(make_ctx(3, "x^2 - T^3")) == ((2, 1),)
    assert P.infinite_places(make_ctx(5, "x^2 - (T^3 + T + 1)")) == ((2, 1),)
    # split infinity: x^2 - (T^2 + 1) -> y^2 - (1 + U^2), and y^2 - 1 splits
    assert P.infinite_places(make_ctx(3, "x^2 - (T^2 + 1)")) == ((1, 1), (1, 1))
    for q, fstr in CONTEXT_POOL:
        ctx = make_ctx(q, fstr)
        U = FqPoly.gen(ctx.field)
        assert P.infinite_places(ctx) == _pairs(
            _reference_primes_above(P.infinity_context(ctx), U))


def test_infinity_order_is_over_u():
    ctx = make_ctx(3, "x^2 - T^3")
    ictx = P.infinity_context(ctx)
    assert ictx.tvar == "U" and ictx.xvar == "y"
    o_inf = P.maximal_order(ictx)
    assert is_order_lattice(o_inf.ideal)


def test_splitting_type_matches_the_ideal_path():
    for q, fstr in CONTEXT_POOL:
        for ctx in (make_ctx(q, fstr), P.infinity_context(make_ctx(q, fstr))):
            for d in (1, 2, 3):
                for p in monic_irreducibles(ctx.field, d):
                    assert P.primes_above_in_max(ctx, p) == _pairs(
                        _reference_primes_above(ctx, p))


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
            power = gpoly.powmod(F, disc.coeffs, (q ** d - 1) // 2, p.coeffs)
            square = FqPoly(F, power) == one
            assert P.primes_above_in_max(ctx, p) == (((1, 1), (1, 1)) if square
                                                     else ((1, 2),))


def test_a_prime_off_the_discriminant_is_read_with_no_factorization(monkeypatch):
    # at p not dividing disc(f) the type is the distinct-degree pattern of
    # f mod p: neither f mod p nor disc(f) is factored, and the pattern
    # is the Dedekind record's (e_i, deg g_i)
    def refuse(*args, **kwargs):
        raise AssertionError("factored a polynomial")

    for q, fstr in CONTEXT_POOL:
        field = gf_of_order(q)
        ctx = AlgebraContext(field, parse_bipoly(field, fstr))  # nothing cached
        disc = P.discriminant_of_f(ctx)
        primes = [p for d in (1, 2) for p in monic_irreducibles(field, d)
                  if not (disc % p).is_zero()]
        with monkeypatch.context() as m:
            m.setattr(gpoly, "factor", refuse)
            types = [P.primes_above_in_max(ctx, p) for p in primes]
        assert types == [tuple(sorted((e, gpoly.deg(g))
                                      for g, e in P.dedekind(ctx, p).factors))
                         for p in primes]


def test_no_fact_at_p_is_kept_under_a_side_key():
    # every fact is memoised under its routine: after icm, product and zeta
    # each key of either context's cache is a context.memoized key, whose
    # first element is the routine, or the verified-prime marker
    # ("prime", p); no saturation, O_K/pO_K, splitting type or
    # discriminant sits under a key of its own
    import inspect
    from gekeler.ratios import gekeler_product, partial_products
    from gekeler.weakeq import local_icm
    from gekeler.zeta import constant_field_degree, genus, l_polynomial
    ctx = AlgebraContext(gf(3), parse_bipoly(gf(3), "x^2 - T^3*(T + 1)^3"))
    singular = P.singular_primes(ctx)
    assert len(singular) == 2
    for p in singular:
        local_icm(ctx, p)
    gekeler_product(ctx)
    partial_products(ctx, 3)
    for zeta_step in (l_polynomial, constant_field_degree, genus):
        zeta_step(ctx)
    side = [k for c in (ctx, P.infinity_context(ctx)) for k in c.cache
            if not (isinstance(k, tuple) and inspect.isfunction(k[0]))
            and not (isinstance(k, tuple) and len(k) == 2 and k[0] == "prime"
                     and isinstance(k[1], FqPoly))]
    assert side == []
    for p in singular:
        assert (P._saturation.__wrapped__, p) in ctx.cache
        assert (P.primes_above_in_max.__wrapped__, p) in ctx.cache


def test_census_builds_ideals_only_at_the_discriminant(monkeypatch):
    # partial_products and l_polynomial read one census per degree, whose
    # primes of disc(f) are typed by primes_above_in_max: the Dedekind
    # record is read only at p | disc(f) and at the infinite place, and no
    # ideal is built (kummer_dedekind, the one caller of
    # FracIdeal.from_elements, is not called); the census lists no other
    # prime, so none is sieved and none meets the Rabin test
    from gekeler import gpoly, weakeq
    from gekeler.ratios import partial_products
    from gekeler.zeta import constant_field_degree, l_polynomial
    records, rabin_calls = [], []
    real_dedekind = P.dedekind
    real_is_irreducible = gpoly.is_irreducible

    def dedekind(ctx, p):
        records.append((ctx, p))
        return real_dedekind(ctx, p)

    def is_irreducible(F, f):
        rabin_calls.append(f)
        return real_is_irreducible(F, f)

    def refuse(*args):
        raise AssertionError(f"built an ideal or listed primes: {args!r}")

    tower = "(x^2 - (1 + T^3 - T - 1))^2 + 4*x^2"
    for q, fstr in [(3, "x^2 - T^3"), (3, "x^2 - (T^2 + 1)"), (2, "x^3 - T^4"),
                    (5, "x^2 - (T^3 + T + 1)"), (3, tower)]:
        field = gf_of_order(q)
        ctx = AlgebraContext(field, parse_bipoly(field, fstr))  # nothing cached
        # the constant-field test may build GF(q^m), and the census builds
        # GF(q^d) for d = 2, 3, whose moduli the Rabin test finds once per
        # field
        constant_field_degree(ctx)
        for d in (2, 3):
            gf(field.p, field.e * d)
        with monkeypatch.context() as m:
            m.setattr(P, "monic_irreducibles", refuse)
            m.setattr(P, "dedekind", dedekind)
            m.setattr(P, "kummer_dedekind", refuse)
            m.setattr(weakeq, "kummer_dedekind", refuse)
            m.setattr(FracIdeal, "from_elements", staticmethod(refuse))
            m.setattr(gpoly, "is_irreducible", is_irreducible)
            partial_products(ctx, 3)
            l_polynomial(ctx)
        ictx = P.infinity_context(ctx)
        U = FqPoly.gen(field)
        assert records
        for kctx, p in records:
            assert kctx in (ctx, ictx)
            assert ((kctx is ictx and p == U)
                    or (P.discriminant_of_f(kctx) % p).is_zero())
        assert rabin_calls == []
        records.clear()


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
        P.primes_above_in_max(ctx, p)
    assert str(exc.value) == ("primes_above_in_max: sum of e*f is not r for "
                              "q = 3, f = x^2 + 2*T, p = T + 1")
    # T divides disc(f) = T and is not singular: its type is the record's
    monkeypatch.setattr(gpoly, "factor", lambda k, f, seed: 2 * real_factor(k, f, seed))
    with pytest.raises(InternalCheckError, match="^kummer_dedekind: .* "
                       r"q = 3, f = x\^2 \+ 2\*T, p = T$"):
        P.primes_above_in_max(ctx, T)


def test_internal_checks_name_the_stage_and_instance(monkeypatch):
    from gekeler import amatrix
    from gekeler.errors import InternalCheckError
    from gekeler.quotient import LatticeQuotient
    F = gf(3)
    T = FqPoly.gen(F)
    where = "for q = 3, f = x^2 + 2*T^3"

    def fresh():
        return AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))

    def fail(*args, **kwargs):
        raise InternalCheckError("minimal polynomial search ran away")

    order = Order.monogenic(fresh())
    with monkeypatch.context() as m:
        m.setattr(amatrix, "det", lambda gram: FqPoly.zero(F))
        with pytest.raises(InternalCheckError) as exc:
            P.order_discriminant(order)
    assert str(exc.value) == ("order_discriminant: degenerate trace form on "
                              f"an order {where}")
    # a kalgebra failure in the saturation, where each step reads the
    # nilradical of S/pS before any pullback, and in the splitting at T
    with monkeypatch.context() as m:
        m.setattr(kalgebra.FiniteAlgebra, "nilradical_basis", fail)
        with pytest.raises(InternalCheckError) as exc:
            P.maximal_order(fresh())
    assert str(exc.value) == ("maximal_order: minimal polynomial search ran "
                              f"away {where}, p = T")
    ctx = fresh()
    P.maximal_order(ctx)
    with monkeypatch.context() as m:
        # the local split reads the Frobenius and needs no minimal polynomial
        m.setattr(kalgebra.FiniteAlgebra, "frobenius_matrix", fail)
        with pytest.raises(InternalCheckError) as exc:
            P.primes_above_in_max(ctx, T)
    assert str(exc.value) == ("primes_above_in_max: minimal polynomial search "
                              f"ran away {where}, p = T")
    # the quotient refuses a top lattice that is not a ring: (1/T) R
    ctx = fresh()
    top = Order.monogenic(ctx).ideal.scale(
        KElement(ctx, (FqPoly.one(F), FqPoly.zero(F)), T))
    with pytest.raises(InternalCheckError, match="^the top lattice is not a ring$"):
        LatticeQuotient(top, top.scale(KElement.from_fqpoly(ctx, T))).algebra()


def _ddf_pattern(k, fbar):
    return sorted((gpoly.deg(g), d) for g, d in gpoly.distinct_degree(k, fbar))


def _pool_contexts(q):
    """Fresh contexts of the CONTEXT_POOL curves that are irreducible and
    separable over F_q, and their models at infinity, one per polynomial."""
    field = gf_of_order(q)
    seen = set()
    for fstr in dict.fromkeys(fstr for _, fstr in CONTEXT_POOL):
        try:
            ctx = AlgebraContext(field, parse_bipoly(field, fstr))
        except InputError:
            continue
        for c in (ctx, P.infinity_context(ctx)):
            if c.f not in seen:
                seen.add(c.f)
                yield c


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_splitting_at_a_root_matches_reduction_into_a_mod_p(q):
    # the oracle census: f(alpha, x) over GF(q^D) against f mod p over A/p,
    # at every p of degree <= 4 not dividing disc(f); of the 1,638 primes
    # of degree 4 over F_9, a seeded sample of 100 per curve keeps the run
    # short
    rng = random.Random(q)
    seen = 0
    for ctx in _pool_contexts(q):
        disc = P.discriminant_of_f(ctx)
        for d in (1, 2, 3, 4):
            primes = list(monic_irreducibles(ctx.field, d))
            if len(primes) > 1000:
                primes = rng.sample(primes, 100)
            for p in primes:
                if (disc % p).is_zero():
                    continue
                big, fbar = census_oracle.reduce_at_root(ctx, p)
                assert isinstance(big, GF) and big.q == q ** d
                assert _ddf_pattern(big, fbar) == _ddf_pattern(*ctx.f.reduce_mod(p))
                seen += 1
    assert seen


# the degrees at which the per-prime census runs in a few seconds
_CENSUS_DEPTH = {2: 6, 3: 6, 4: 6, 5: 6, 9: 4}


@pytest.mark.parametrize("q", sorted(_CENSUS_DEPTH))
def test_type_counts_match_the_per_prime_census(q):
    # counts per splitting type against the sieve, the root table and one
    # distinct-degree pattern per prime, and at each sieved prime of disc(f)
    # the type of the algebra reference, on the pool and its models at
    # infinity
    def disc_type(ctx, p):
        return _pairs(_reference_primes_above(ctx, p))

    for ctx in _pool_contexts(q):
        for d in range(1, _CENSUS_DEPTH[q] + 1):
            assert P.type_counts(ctx, d) == \
                census_oracle.census_type_counts(ctx, d, disc_type), (ctx, d)


def test_root_table_lists_the_sieved_primes(monkeypatch):
    # the oracle's root table lists the sieve's primes; and the counts read
    # at the roots agree with those read in A/p, which a table bound below
    # q^d forces
    from gekeler.fqpoly import _sieve
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 81):
        F = gf_of_order(q)
        d = 2
        while q ** d <= 3 ** 8:
            big, emb, roots = census_oracle.root_table(F, d)
            assert sorted(roots) == sorted(p.coeffs for p in _sieve(F, d)), (q, d)
            for coeffs, alpha in roots.items():
                assert gpoly.eval_poly(big, [emb(c) for c in coeffs], alpha) == 0
            d += 1
    for q, fstr in [(2, "x^3 - T^2 - 1"), (3, "x^3 - T*x - T^2"),
                    (4, "x^2 + x + T^3"), (5, "x^2 - (T^3 + T + 1)"),
                    (8, "x^2 + x + T^3 + 1"), (9, "x^2 - (T^3 + a)"),
                    (27, "x^2 - (T^3 + T + 1)")]:
        F = gf_of_order(q)
        depth = 2
        while q ** (depth + 1) <= 3 ** 6:
            depth += 1
        tabled = [P.type_counts(AlgebraContext(F, parse_bipoly(F, fstr)), d)
                  for d in range(2, depth + 1)]
        with monkeypatch.context() as m:
            m.setattr(sys.modules["gekeler.gf"], "MAX_TABLE", q)
            ctx = AlgebraContext(F, parse_bipoly(F, fstr))
            assert [P.type_counts(ctx, d) for d in range(2, depth + 1)] == tabled, q


def test_census_agrees_across_the_table_boundary(monkeypatch):
    # with tables capped at 3^3 elements, the degrees 2 and 3 are counted
    # at the roots in GF(3^d) and the degrees 4 and 5 by reducing f into A/p
    from gekeler.bipoly import BiPoly
    from gekeler.ratios import partial_products
    F = gf(3)
    fstr = "x^3 - T*x - T^2"
    expected_ctx = AlgebraContext(F, parse_bipoly(F, fstr))
    expected = partial_products(expected_ctx, 5)
    reduced, walked = [], []
    real_reduce, real_logs = BiPoly.reduce_mod, P._orbit_logs

    def reduce_mod(self, p):
        reduced.append(p)
        return real_reduce(self, p)

    def orbit_logs(q, degree):
        walked.append(degree)
        return real_logs(q, degree)

    ctx = AlgebraContext(F, parse_bipoly(F, fstr))
    monkeypatch.setattr(sys.modules["gekeler.gf"], "MAX_TABLE", 3 ** 3)
    monkeypatch.setattr(BiPoly, "reduce_mod", reduce_mod)
    monkeypatch.setattr(P, "_orbit_logs", orbit_logs)
    assert partial_products(ctx, 5) == expected
    assert [P.type_counts(ctx, d) for d in range(1, 6)] == \
        [P.type_counts(expected_ctx, d) for d in range(1, 6)]
    disc = P.discriminant_of_f(ctx)
    assert set(walked) == {2, 3}
    assert {int(p.degree) for p in reduced if not (disc % p).is_zero()} == {4, 5}


@pytest.mark.parametrize("q", [3, 5, 9])
def test_euler_criterion_matches_distinct_degree(q):
    # at each root alpha walked for a rank-2 curve, the discriminant
    # a^2 - 4b is a square at alpha exactly when f(alpha, x) splits
    seen = 0
    for ctx in _pool_contexts(q):
        if ctx.r != 2:
            continue
        F = ctx.field
        b, a = ctx.f.coeffs[0], ctx.f.coeffs[1]
        disc = a * a - b.scale(F.from_int(4))
        for d in range(1, 5 if q < 9 else 4):
            big = gf(F.p, F.e * d)
            emb = gf_embedding(F, big)
            alphas = (F.elements() if d == 1
                      else [big.gen_power(k) for k in P._orbit_logs(q, d)])
            for alpha in alphas:
                value = gpoly.eval_poly(big, [emb(c) for c in disc.coeffs], alpha)
                if not value:
                    continue
                fbar = [gpoly.eval_poly(big, [emb(c) for c in coeff.coeffs], alpha)
                        for coeff in ctx.f.coeffs]
                split = census_oracle.pattern(big, fbar) == ((1, 1), (1, 1))
                assert big.is_square(value) == split
                seen += 1
    assert seen


def test_type_counts_check_gauss_count(monkeypatch):
    # an orbit lost from the walk shows as a shortfall against Gauss's
    # count of the primes of that degree
    F = gf(3)
    real_logs = P._orbit_logs
    monkeypatch.setattr(P, "_orbit_logs", lambda q, d: real_logs(q, d)[1:])
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T"))
    # T divides disc(f) and is counted with its type, ramified
    assert sum(P.type_counts(ctx, 1).values()) == 3
    assert P.type_counts(ctx, 1)[((2, 1),)] == 1
    with pytest.raises(InternalCheckError) as exc:
        P.type_counts(ctx, 2)
    assert str(exc.value) == ("type_counts: orbits and primes of disc(f) miss "
                              "Gauss's count for q = 3, f = x^2 + 2*T, "
                              "p = each prime of degree 2")
    assert [P._prime_count(q, d) for q, d in [(2, 1), (2, 6), (3, 4), (9, 2)]] == \
        [2, 9, 18, 36]


def test_census_refuses_a_huge_degree_before_allocating(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated a census")

    F = gf(3)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T"))
    monkeypatch.setattr(P, "_orbit_logs", refuse)
    monkeypatch.setattr(P, "monic_irreducibles", refuse)
    for _ in range(2):   # a refusal is not memoised: it is refused again
        with pytest.raises(BudgetExceeded, match="census of degree 13 over F_3 "):
            P.type_counts(ctx, 13)
    assert (P.type_counts.__wrapped__, 13) not in ctx.cache


def test_census_reduces_f_only_at_the_discriminant(monkeypatch):
    from gekeler.bipoly import BiPoly
    from gekeler.ratios import partial_products
    F = gf(3)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T"))  # nothing cached
    reduced = []
    real_reduce = BiPoly.reduce_mod

    def reduce_mod(self, p):
        reduced.append(p)
        return real_reduce(self, p)

    monkeypatch.setattr(BiPoly, "reduce_mod", reduce_mod)
    partial_products(ctx, 4)
    disc = P.discriminant_of_f(ctx)
    assert [p for p in reduced if not (disc % p).is_zero()] == []


def test_a_prime_asked_for_alone_builds_no_table(monkeypatch):
    # one prime of degree 10 would pay for all 3^10 elements of GF(3^10)
    F = gf(3)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T"))
    p = FqPoly(F, (2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1))
    monkeypatch.setattr(sys.modules["gekeler.gf"], "_FIELD_CACHE", {})
    assert P.primes_above_in_max(ctx, p) == ((1, 2),)
    assert sys.modules["gekeler.gf"]._FIELD_CACHE == {}
