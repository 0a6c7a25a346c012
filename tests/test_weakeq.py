import random

import pytest

from conftest import ORACLE_CURVES, make_ctx
from gekeler.gf import gf
from gekeler.fqpoly import FqPoly, poly_lcm
from gekeler.context import AlgebraContext, KElement
from gekeler.ideals import FracIdeal, Order
from gekeler.parse import parse_bipoly
from gekeler.primes import (infinity_context, maximal_order, p_saturation,
                            singular_primes)
from gekeler.overorders import p_overorders
from gekeler.quotient import LatticeQuotient, invariant_subspaces, submodule_lattices
from gekeler.weakeq import (weak_classes, locally_weakly_equivalent,
                            local_icm, globally_weakly_equivalent,
                            is_gorenstein)
from gekeler.errors import InputError, InternalCheckError


def test_weak_classes_maximal_order_is_single():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    ok = maximal_order(ctx)
    wc = weak_classes(R, ok, FqPoly.gen(ctx.field))
    assert len(wc) == 1
    assert wc[0].ideal == ok.ideal


def test_weak_classes_cusp_base_is_single():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    wc = weak_classes(R, R, FqPoly.gen(ctx.field))
    assert len(wc) == 1
    assert wc[0].ideal.colon(wc[0].ideal) == R.ideal


def test_weak_class_window_invariant():
    # with O the p-saturation, every representative satisfies
    # (S:O) <= I <= O and (I:I) = S
    for q, fstr in [(3, "x^2 - T^3"), (2, "x^3 - T^4"),
                    (3, "x^2 - T^3*(T + 1)^3")]:
        ctx = make_ctx(q, fstr)
        R = Order.monogenic(ctx)
        for p in singular_primes(ctx):
            sat = p_saturation(ctx, p)
            for s in p_overorders(ctx, p).orders:
                cond = s.ideal.colon(sat.ideal)
                for rep in weak_classes(R, s, p):
                    assert rep.ideal.colon(rep.ideal) == s.ideal
                    assert rep.ideal.contains(cond)
                    assert sat.ideal.contains(rep.ideal)


def test_weak_classes_requires_overorder():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    T = FqPoly.gen(ctx.field)
    bad = Order(R.ideal.scale(KElement.from_fqpoly(ctx, T)), check=False)
    with pytest.raises(InputError):
        weak_classes(R, bad, T)
    # O_K is not a T-overorder when T + 1 is singular too
    ctx = make_ctx(3, "x^2 - T^3*(T + 1)^3")
    with pytest.raises(InputError):
        weak_classes(Order.monogenic(ctx), maximal_order(ctx), T)


def test_local_equivalence_is_equivalence_and_respects_scaling():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    pi = KElement.gen(ctx)
    m = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi])
    ok = maximal_order(ctx).ideal
    ideals = [R.ideal, m, ok, m * m]
    for i in ideals:
        assert locally_weakly_equivalent(i, i, T)
    z = KElement(ctx, (T + FqPoly.one(F), T), T ** 2 + FqPoly.one(F))
    for i in ideals:
        assert locally_weakly_equivalent(i, i.scale(z), T)
    # symmetric + transitive on the sample
    rng = random.Random(1)
    for _ in range(10):
        a, b, c = rng.choices(ideals, k=3)
        ab = locally_weakly_equivalent(a, b, T)
        assert ab == locally_weakly_equivalent(b, a, T)
        if ab and locally_weakly_equivalent(b, c, T):
            assert locally_weakly_equivalent(a, c, T)


def test_local_inequivalence_mult_rings_differ():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    pi = KElement.gen(ctx)
    m = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi])
    assert m.colon(m) != R.ideal
    assert not locally_weakly_equivalent(R.ideal, m, T)


def test_global_implies_local():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    pi = KElement.gen(ctx)
    rng = random.Random(5)
    ideals = [R.ideal,
              FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi]),
              maximal_order(ctx).ideal]
    primes = [T, T - FqPoly.one(F), T ** 2 + FqPoly.one(F)]
    for i in ideals:
        for j in ideals:
            if globally_weakly_equivalent(i, j):
                for p in primes:
                    assert locally_weakly_equivalent(i, j, p)


def test_local_equivalence_forces_local_mult_ring_agreement():
    # if I ~ J locally at p then for every prime p_i above p neither
    # ((I:I):(J:J)) nor ((J:J):(I:I)) is contained in p_i
    from gekeler.primes import kummer_dedekind
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    pi = KElement.gen(ctx)
    m = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi])
    z = KElement(ctx, (T, FqPoly.one(F)), T + FqPoly.one(F))
    pool = [R.ideal, m, maximal_order(ctx).ideal, m.scale(z), R.ideal.scale(z)]
    for p in [T, T - FqPoly.one(F)]:
        primes = kummer_dedekind(R, p).primes
        for i in pool:
            for j in pool:
                if not locally_weakly_equivalent(i, j, p):
                    continue
                s1 = i.colon(i)
                s2 = j.colon(j)
                for q in primes:
                    assert not q.ideal.contains(s1.colon(s2))
                    assert not q.ideal.contains(s2.colon(s1))


def _global_window_classes(ctx, p):
    """The global-window algorithm, as a reference.

    Enumerates the lattices (R:O_K) <= I <= O_K, collapses those with
    multiplicator ring S by global weak equivalence, keeps the first
    lattice of each group that contains (S:O_K), and collapses those
    representatives again by weak equivalence at p.
    """
    R = Order.monogenic(ctx)
    ok = maximal_order(ctx).ideal
    window = sorted(submodule_lattices(ok, R.ideal.colon(ok), R),
                    key=lambda l: l.canonical_key())
    out = []
    for s in p_overorders(ctx, p).orders:
        groups = []
        for lat in window:
            if lat.colon(lat) != s.ideal:
                continue
            for group in groups:
                if globally_weakly_equivalent(lat, group[0]):
                    group.append(lat)
                    break
            else:
                groups.append([lat])
        cond = s.ideal.colon(ok)
        reps = [next(lat for lat in group if lat.contains(cond))
                for group in groups]
        local = []
        for lat in reps:
            if not any(locally_weakly_equivalent(lat, r, p) for r in local):
                local.append(lat)
        out.append((s, local))
    return out


@pytest.mark.parametrize("fstr", ["x^2 - T^3*(T + 1)^3", "x^2 - T^2*(T + 1)^3"])
def test_local_window_matches_global_window_reference(fstr):
    # several singular primes: the global window is the product of the
    # local ones, and its two collapses must give the local classes
    ctx = make_ctx(3, fstr)
    sing = singular_primes(ctx)
    assert len(sing) == 2
    for p in sing:
        report = local_icm(ctx, p)
        reference = _global_window_classes(ctx, p)
        assert report.m_p == sum(len(reps) for _, reps in reference)
        assert len(report.by_overorder) == len(reference)
        for (s, classes), (s_ref, reps) in zip(report.by_overorder, reference):
            assert s == s_ref
            assert [c.ideal for c in classes] == reps


def _one_window_classes(ctx, p):
    """The one-window path, as a reference.

    Enumerates every R-module lattice (R:O) <= I <= O, O the
    p-saturation, in canonical order; for each p-overorder S collapses
    those with multiplicator ring S by global weak equivalence and
    represents each class by its first lattice that contains (S:O).
    """
    R = Order.monogenic(ctx)
    sat = p_saturation(ctx, p).ideal
    lattices = sorted(submodule_lattices(sat, R.ideal.colon(sat), R),
                      key=lambda l: l.canonical_key())
    window = [(lat, lat.colon(lat)) for lat in lattices]
    out = []
    for s in p_overorders(ctx, p).orders:
        groups = []
        for lat, mult in window:
            if mult != s.ideal:
                continue
            for group in groups:
                if globally_weakly_equivalent(lat, group[0]):
                    group.append(lat)
                    break
            else:
                groups.append([lat])
        cond = s.ideal.colon(sat)
        out.append((s, [next(lat for lat in group if lat.contains(cond))
                        for group in groups]))
    return out


@pytest.mark.parametrize("q,fstr", ORACLE_CURVES)
def test_per_order_windows_match_one_window_oracle(q, fstr):
    ctx = make_ctx(q, fstr)
    for p in singular_primes(ctx):
        report = local_icm(ctx, p)
        reference = _one_window_classes(ctx, p)
        assert report.m_p == sum(len(reps) for _, reps in reference)
        assert [s for s, _ in report.by_overorder] == [s for s, _ in reference]
        for (s, classes), (_, reps) in zip(report.by_overorder, reference):
            assert len(classes) == len(reps)
            assert is_gorenstein(s) == (len(reps) == 1)
            for c in classes:
                assert c.ideal.colon(c.ideal) == s.ideal
                assert sum(globally_weakly_equivalent(c.ideal, r)
                           for r in reps) == 1
            # output rule: [S] first, represented by S, then canonical order
            assert classes[0].ideal == s.ideal
            keys = [c.ideal.canonical_key() for c in classes[1:]]
            assert keys == sorted(keys)


def _r_span_pullback(quo, vectors):
    """bottom + the R-span of the lifted vectors."""
    ctx = quo.ctx
    D = poly_lcm(quo.bottom.den, quo.top.den)
    a = D.exact_div(quo.bottom.den)
    b = D.exact_div(quo.top.den)
    cols = [tuple(e * a for e in col) for col in quo.bottom.basis_columns()]
    for col in quo.lift_columns(vectors):
        base = tuple(e * b for e in col)
        for k in range(ctx.r):
            cols.append(ctx.mult_vectors(base, ctx.power_vectors[k]))
    return FracIdeal.from_columns(ctx, cols, D)


@pytest.mark.parametrize("q,fstr", ORACLE_CURVES)
def test_pullback_of_invariant_subspaces_is_the_r_span(q, fstr):
    # the A-span of the lifts of a subspace invariant under T and the ring
    # is a module over the ring already: O/R, then each window (S:O) <= O
    ctx = make_ctx(q, fstr)
    R = Order.monogenic(ctx)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    for p in singular_primes(ctx):
        sat = p_saturation(ctx, p).ideal
        cases = [(R.ideal, R)] + [(s.ideal.colon(sat), s)
                                  for s in p_overorders(ctx, p).orders
                                  if not is_gorenstein(s)]
        for bottom, ring in cases:
            quo = LatticeQuotient(sat, bottom)
            mats = [quo.action_matrix(z) for z in [t_el] + ring.basis_elements()]
            nil = quo.action_matrix(KElement.from_fqpoly(ctx, p))
            for sub in invariant_subspaces(ctx.field, quo.dim, mats, nil):
                assert quo.pullback(sub) == _r_span_pullback(quo, sub)


@pytest.mark.parametrize("k", range(1, 13))
def test_closed_form_x2_minus_odd_power(k):
    # m_T(x^2 - T^(2k+1)) = k + 1 over F_3: one class per overorder
    ctx = make_ctx(3, f"x^2 - T^{2 * k + 1}")
    T = FqPoly.gen(ctx.field)
    assert local_icm(ctx, T).m_p == k + 1
    if k <= 4:
        reference = _one_window_classes(ctx, T)
        assert sum(len(reps) for _, reps in reference) == k + 1


def test_chain_of_overorders_is_walked_not_swept(monkeypatch):
    # O/R of x^2 - T^19 at T is A/T^9, whose submodules form a chain of 10,
    # so the walk closes one line per step; a sweep over all 9,841 lines of
    # the quotient makes tens of thousands of row reductions
    from gekeler import klinalg
    calls = []
    rref = klinalg.rref
    monkeypatch.setattr(klinalg, "rref",
                        lambda *args: calls.append(1) or rref(*args))
    field = gf(3)
    ctx = AlgebraContext(field, parse_bipoly(field, "x^2 - T^19"))
    assert local_icm(ctx, FqPoly.gen(field)).m_p == 10
    assert len(calls) < 200


RANK2_CURVES = [
    (3, "x^2 - T^3"),
    (3, "x^2 - T^3*(T + 1)^3"),
    (3, "x^2 - T^2*(T + 1)^3"),
    (3, "x^2 - T"),
    (4, "x^2 + a*x + T"),
    (3, "x^2 - T^5"),
    (9, "x^2 - T^5"),
    (2, "x^2 + T*x + T^3"),
]


@pytest.mark.parametrize("q,fstr", RANK2_CURVES)
def test_rank2_overorders_are_gorenstein(q, fstr):
    # every order of rank 2 is Gorenstein, so m_p counts the p-overorders
    finite = make_ctx(q, fstr)
    for ctx in (finite, infinity_context(finite)):
        for p in singular_primes(ctx):
            orders = p_overorders(ctx, p).orders
            assert all(is_gorenstein(s) for s in orders)
            assert local_icm(ctx, p).m_p == len(orders)


def test_empty_class_monoid_names_stage_and_instance(monkeypatch):
    from gekeler import weakeq
    from gekeler.overorders import POverorderSet
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    monkeypatch.setattr(weakeq, "p_overorders",
                        lambda c, p: POverorderSet(p, ()))
    with pytest.raises(InternalCheckError) as err:
        local_icm(ctx, T)
    msg = str(err.value)
    assert "local_icm" in msg and "q = 3" in msg
    assert f"f = {ctx.f.to_str()}" in msg and "p = T" in msg


def test_local_icm_values():
    assert local_icm(make_ctx(3, "x^2 - T"), FqPoly.gen(gf(3))).m_p == 1
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    rep = local_icm(ctx, T)
    assert rep.m_p == 2
    # classes across multiplicator rings are pairwise locally inequivalent
    flat = [c.ideal for _, classes in rep.by_overorder for c in classes]
    assert len(flat) == 2
    assert not locally_weakly_equivalent(flat[0], flat[1], T)
    # regular primes short-circuit, and the full computation agrees there
    one = FqPoly.one(ctx.field)
    assert local_icm(ctx, T - one).m_p == 1
    R = Order.monogenic(ctx)
    assert p_overorders(ctx, T - one).orders == (R,)
    assert len(weak_classes(R, R, T - one)) == 1


def test_local_icm_regular_for_unit_disc():
    ctx = make_ctx(3, "1 - x + x^3")
    F = ctx.field
    T = FqPoly.gen(F)
    for p in [T, T + FqPoly.one(F)]:
        assert p not in singular_primes(ctx)
        assert local_icm(ctx, p).m_p == 1


def test_rank_one_is_trivial():
    ctx = make_ctx(3, "x - T^2")
    p = FqPoly.gen(ctx.field)
    assert local_icm(ctx, p).m_p == 1
    R = Order.monogenic(ctx)
    assert p_overorders(ctx, p).orders == (R,)
    assert len(weak_classes(R, R, p)) == 1


def test_extension_field_pipeline():
    # the whole stack over F_4
    ctx = make_ctx(4, "x^2 + a*x + T")
    p = FqPoly.gen(ctx.field)
    assert local_icm(ctx, p).m_p == 1
    from gekeler.ratios import gekeler_ratio, gekeler_product
    from fractions import Fraction
    assert gekeler_ratio(ctx, p).value == Fraction(4, 3)   # split prime
    assert gekeler_product(ctx).value == 1


def test_rank3_counts_match_raw_subspace_oracle(cubic_cusp2):
    """Full submodule-enumeration oracle at F_q-dimension 6.

    Enumerates every F_2-subspace of O_K/(R:O_K), takes the R-span of the
    pullbacks, buckets by multiplicator ring, and collapses by the weak
    equivalence tests; the pipeline must agree bucket by bucket.
    """
    from gekeler.quotient import LatticeQuotient
    from gekeler import klinalg
    ctx = cubic_cusp2
    k = ctx.field
    T = FqPoly.gen(k)
    R = Order.monogenic(ctx)
    ok = maximal_order(ctx)
    quo = LatticeQuotient(ok.ideal, R.ideal.colon(ok.ideal))
    assert quo.dim == 6

    seen = {()}
    frontier = [()]
    vecs = [tuple((n >> i) & 1 for i in range(6)) for n in range(1, 64)]
    while frontier:
        basis = frontier.pop()
        pivots = klinalg.rref(k, list(basis))[1] if basis else []
        for v in vecs:
            if basis and klinalg.in_span(k, basis, pivots, v):
                continue
            nb, _ = klinalg.rref(k, list(basis) + [v])
            if tuple(nb) not in seen:
                seen.add(tuple(nb))
                frontier.append(tuple(nb))
    assert len(seen) == 2825  # all subspaces of F_2^6

    lattices = {}
    for sub in seen:
        lat = quo.pullback(sub) * R.ideal
        lattices[lat.canonical_key()] = lat
    buckets = {}
    for lat in lattices.values():
        buckets.setdefault(lat.colon(lat).canonical_key(), []).append(lat)

    report = local_icm(ctx, T)
    assert len(buckets) == len(report.by_overorder) == 4
    oracle_global = 0
    oracle_local = 0
    for group in buckets.values():
        group.sort(key=lambda l: l.canonical_key())
        reps = []
        for lat in group:
            if not any(globally_weakly_equivalent(lat, r) for r in reps):
                reps.append(lat)
        lreps = []
        for lat in reps:
            if not any(locally_weakly_equivalent(lat, r, T) for r in lreps):
                lreps.append(lat)
        oracle_global += len(reps)
        oracle_local += len(lreps)
    assert report.m_p == oracle_local == 5
    # one overorder carries two classes
    assert sorted(len(cl) for _, cl in report.by_overorder) == [1, 1, 1, 2]
    assert oracle_global == 5
