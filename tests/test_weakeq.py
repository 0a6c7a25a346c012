import functools
import itertools
import random
import sys

import pytest

from conftest import ORACLE_CURVES, THREE_BRANCH_CURVES, make_ctx
from gorenstein_oracle import is_gorenstein
from property_suite import CONTEXT_POOL
import slot_oracle
from gekeler.gf import gf
from gekeler.fqpoly import FqPoly, poly_lcm
from gekeler.context import AlgebraContext, KElement
from gekeler.ideals import FracIdeal, Order
from gekeler.parse import parse_bipoly, parse_fqpoly
from gekeler.primes import (infinity_context, maximal_order, p_saturation,
                            singular_primes)
from gekeler.overorders import p_overorders
from gekeler.quotient import LatticeQuotient, invariant_subspaces
from gekeler.kalgebra import unit_count, unit_transversal
from gekeler import klinalg
from gekeler.weakeq import (weak_classes, locally_weakly_equivalent,
                            local_icm, globally_weakly_equivalent)
from gekeler.errors import InputError, InternalCheckError


def window(top, bottom, ring, g):
    """V = top/bottom and its subspaces invariant under T and each basis
    element of `ring`, an order that stabilizes both, for g in A with
    [top:bottom] dividing a power of g: g acts nilpotently on V."""
    ctx = top.ctx
    quo = LatticeQuotient(top, bottom)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    mats = [quo.action_matrix(z) for z in [t_el] + ring.basis_elements()]
    nil = quo.action_matrix(KElement.from_fqpoly(ctx, g))
    return quo, invariant_subspaces(ctx.field, mats, nil)


def submodule_lattices(top, bottom, ring, g):
    """Every ring-module lattice between bottom and top: the pullbacks of
    `window`."""
    quo, subs = window(top, bottom, ring, g)
    return [quo.pullback(sub) for sub in subs]


def test_weak_classes_maximal_order_is_single():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    ok = maximal_order(ctx)
    wc = weak_classes(R, ok, FqPoly.gen(ctx.field))
    assert len(wc) == 1
    assert wc[0] == ok.ideal


def test_weak_classes_cusp_base_is_single():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    wc = weak_classes(R, R, FqPoly.gen(ctx.field))
    assert len(wc) == 1
    assert wc[0].colon(wc[0]) == R.ideal


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
                    assert rep.colon(rep) == s.ideal
                    assert rep.contains(cond)
                    assert sat.ideal.contains(rep)


def test_weak_classes_requires_overorder():
    ctx = make_ctx(3, "x^2 - T^3")
    R = Order.monogenic(ctx)
    T = FqPoly.gen(ctx.field)
    bad = Order(R.ideal.scale(KElement.from_fqpoly(ctx, T)))
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
    # [O_K:(R:O_K)] divides a power of the product of the singular primes
    rad = functools.reduce(lambda a, b: a * b, singular_primes(ctx))
    window = sorted(submodule_lattices(ok, R.ideal.colon(ok), R, rad),
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
            assert list(classes) == reps


def _one_window_classes(ctx, p):
    """The one-window path, as a reference.

    Enumerates every R-module lattice (R:O) <= I <= O, O the
    p-saturation, in canonical order; for each p-overorder S collapses
    those with multiplicator ring S by global weak equivalence and
    represents each class by its first lattice that contains (S:O).
    """
    R = Order.monogenic(ctx)
    sat = p_saturation(ctx, p).ideal
    lattices = sorted(submodule_lattices(sat, R.ideal.colon(sat), R, p),
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
                assert c.colon(c) == s.ideal
                assert sum(globally_weakly_equivalent(c, r)
                           for r in reps) == 1
            # output rule: [S] first, represented by S, then canonical order
            assert classes[0] == s.ideal
            keys = [c.canonical_key() for c in classes[1:]]
            assert keys == sorted(keys)


def _r_span_pullback(quo, vectors):
    """bottom + the R-span of the lifted vectors."""
    ctx = quo.ctx
    D = poly_lcm(quo.bottom.den, quo.top.den)
    a = D.exact_div(quo.bottom.den)
    b = D.exact_div(quo.top.den)
    cols = [tuple(e * a for e in col) for col in quo.bottom.basis_columns()]
    for col in slot_oracle.lift_columns(quo, vectors):
        base = tuple(e * b for e in col)
        for k in range(ctx.r):
            cols.append(ctx.mult_vectors(base, ctx.power_vectors[k]))
    return FracIdeal.from_columns(ctx, cols, D)


@pytest.mark.parametrize("q,fstr", ORACLE_CURVES + THREE_BRANCH_CURVES
                         + [(2, "x^3 - (T^2+T+1)^5")])
def test_pullback_of_invariant_subspaces_is_the_r_span(q, fstr):
    # the A-span of the lifts of a subspace invariant under T and the ring
    # is a module over the ring already: O/R, then each window (S:O) <= O;
    # and the lattice read off the echelon form is the A-HNF of those lifts
    finite = make_ctx(q, fstr)
    for ctx in (finite, infinity_context(finite)):
        for p in singular_primes(ctx):
            R = Order.monogenic(ctx)
            sat = p_saturation(ctx, p).ideal
            cases = [(R.ideal, R)] + [(s.ideal.colon(sat), s)
                                      for s in p_overorders(ctx, p).orders
                                      if not is_gorenstein(s)]
            for bottom, ring in cases:
                quo, subs = window(sat, bottom, ring, p)
                for sub in subs:
                    lattice = quo.pullback(sub)
                    assert lattice == slot_oracle.pullback(quo, sub)
                    assert lattice == _r_span_pullback(quo, sub)


# F_4 needs 1 + c*b for both c in an F_2-basis of the constants
WEAK_CURVES = ORACLE_CURVES + [(2, "x^3 - T^7"), (2, "x^3 - T^8"),
                               (4, "x^3 - T^4")] + THREE_BRANCH_CURVES


def _colon_collapse(s_order, p):
    """The colon collapse, as an oracle for `weak_classes` of a
    non-Gorenstein S: every lattice (S:O) <= I <= O of the window with
    (I:I) = S, one colon each, and the representatives picked by the
    pairwise test 1 in (I:J)(J:I): [S] first, then, in canonical order,
    each such lattice weakly equivalent to no earlier representative."""
    sat = p_saturation(s_order.ctx, p).ideal
    s = s_order.ideal
    lattices = sorted(submodule_lattices(sat, s.colon(sat), s_order, p),
                      key=lambda l: l.canonical_key())
    kept = [lat for lat in lattices if lat.colon(lat) == s]
    reps = [s]
    for lat in kept:
        if not any(globally_weakly_equivalent(lat, r) for r in reps):
            reps.append(lat)
    return kept, tuple(reps)


@functools.lru_cache(maxsize=None)
def _non_gorenstein_windows(q, fstr):
    """(ctx, p, S, kept lattices, oracle representatives) for every
    non-Gorenstein p-overorder S at every singular prime p of the curve
    and of its model at infinity."""
    finite = make_ctx(q, fstr)
    out = []
    for ctx in (finite, infinity_context(finite)):
        for p in singular_primes(ctx):
            for s in p_overorders(ctx, p).orders:
                if not is_gorenstein(s):
                    out.append((ctx, p, s) + _colon_collapse(s, p))
    return out


@pytest.mark.parametrize("q,fstr", WEAK_CURVES)
def test_unit_orbits_match_the_colon_collapse(q, fstr):
    for ctx, p, s, _, reps in _non_gorenstein_windows(q, fstr):
        classes = weak_classes(Order.monogenic(ctx), s, p)
        assert classes == reps


def _stabilizer_dim(k, mats, w):
    """dim {x : xW <= W}, for the multiplication matrices of a basis: the
    kernel of x -> (x*w mod W) over the basis vectors w of W."""
    piv = klinalg.rref(k, w)[1]
    rows = [row for v in w for row in zip(*[
        klinalg.reduce(k, w, piv, klinalg.matmul_vec(k, m, v)) for m in mats])]
    return len(mats) - len(klinalg.rref(k, rows)[0])


@pytest.mark.parametrize("q,fstr", WEAK_CURVES)
def test_stabilizer_rule_keeps_exactly_the_lattices_with_io_equal_o(q, fstr):
    # a window W = I/f with stab(W) = S/f has O*W = O/f, and these W pull
    # back to exactly the lattices with (I:I) = S, each with IO = O
    for ctx, p, s, kept, _ in _non_gorenstein_windows(q, fstr):
        k = ctx.field
        sat = p_saturation(ctx, p).ideal
        quo, subs = window(sat, s.ideal.colon(sat), s, p)
        alg = quo.algebra()
        basis = [alg.basis_vector(j) for j in range(alg.dim)]
        mats = [alg.mult_matrix(b) for b in basis]
        s_dim = len(quo.image(s.ideal))
        stab_kept = [w for w in subs if _stabilizer_dim(k, mats, w) == s_dim]
        for w in stab_kept:
            ow = klinalg.span_basis(k, [alg.mul(b, v) for b in basis for v in w])
            assert len(ow) == alg.dim
        assert (sorted(quo.pullback(w).canonical_key() for w in stab_kept)
                == [lat.canonical_key() for lat in kept])
        assert all(lat * sat == sat for lat in kept)


def test_windows_of_x3_minus_t8_keep_their_lattices_with_io_equal_o():
    # the five non-Gorenstein windows at T keep 248 lattices, each window
    # in two classes
    ctx = make_ctx(2, "x^3 - T^8")
    windows = [w for w in _non_gorenstein_windows(2, "x^3 - T^8")
               if w[0] is ctx]
    assert sorted(len(kept) for *_, kept, _ in windows) == [8, 16, 32, 64, 128]
    assert [len(reps) for *_, reps in windows] == [2] * 5


TRANSVERSAL_CURVES = list(dict.fromkeys(
    ORACLE_CURVES + [(4, "x^3 - T^4")] + CONTEXT_POOL + THREE_BRANCH_CURVES))


@pytest.mark.parametrize("q,fstr", TRANSVERSAL_CURVES)
def test_unit_transversal_meets_each_coset_once(q, fstr):
    # in O/f, each invertible element lies in t*(S/f) for exactly one t of U
    for ctx, p, s, _, _ in _non_gorenstein_windows(q, fstr):
        k = ctx.field
        sat = p_saturation(ctx, p).ideal
        quo = LatticeQuotient(sat, s.ideal.colon(sat))
        alg = quo.algebra()
        units = {z for z in itertools.product(k.elements(), repeat=alg.dim)
                 if len(klinalg.rref(k, alg.mult_matrix(z))[0]) == alg.dim}
        assert len(units) == unit_count(alg)
        # a unit of V in S/f is a unit of the finite ring S/f
        s_sub = quo.image(s.ideal)
        s_piv = klinalg.rref(k, s_sub)[1]
        s_units = [u for u in units if klinalg.in_span(k, s_sub, s_piv, u)]
        assert unit_count(alg.subalgebra(s_sub, s_piv)) == len(s_units)
        cosets = [{alg.mul(t, h) for h in s_units}
                  for t in unit_transversal(alg, s_sub)]
        assert all(sum(z in coset for coset in cosets) == 1 for z in units)


def test_weak_classes_take_no_colon_per_window_lattice(monkeypatch):
    # the five non-Gorenstein windows of x^3 - T^8 over F_2 at T hold
    # hundreds of lattices; the collapse takes a fixed number of colons
    # per p-overorder and no pairwise test
    from gekeler import weakeq
    field = gf(2)
    ctx = AlgebraContext(field, parse_bipoly(field, "x^3 - T^8"))
    colons = []
    colon = FracIdeal.colon
    monkeypatch.setattr(FracIdeal, "colon",
                        lambda i, j: colons.append(1) or colon(i, j))

    def pairwise(i, j):
        raise AssertionError("pairwise weak equivalence test")

    monkeypatch.setattr(weakeq, "globally_weakly_equivalent", pairwise)
    report = local_icm(ctx, FqPoly.gen(field))
    assert report.m_p == 17
    assert len(colons) <= 4 * len(report.by_overorder)


def test_pullbacks_hand_the_hnf_triangular_matrices(monkeypatch):
    # a pullback reads its r columns off an echelon form, upper triangular
    # with monic diagonal, so the HNF behind it runs no gcd step; the A-HNF
    # of bottom and the lifts took r + dim W columns
    from gekeler import amatrix
    field = gf(2)
    ctx = AlgebraContext(field, parse_bipoly(field, "x^3 - T^8"))
    depth, handed = [], []
    pullback, hnf = LatticeQuotient.pullback, amatrix.hnf

    def traced_pullback(self, fq_vectors):
        depth.append(1)
        try:
            return pullback(self, fq_vectors)
        finally:
            depth.pop()

    def traced_hnf(mat, *args, **kwargs):
        if depth:
            handed.append(mat)
        return hnf(mat, *args, **kwargs)

    monkeypatch.setattr(LatticeQuotient, "pullback", traced_pullback)
    monkeypatch.setattr(amatrix, "hnf", traced_hnf)
    assert local_icm(ctx, FqPoly.gen(field)).m_p == 17
    assert handed
    r = ctx.r
    for mat in handed:
        assert len(mat) == r and all(len(row) == r for row in mat)
        assert all(mat[i][j].is_zero() for i in range(r) for j in range(i))


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
    flat = [c for _, classes in rep.by_overorder for c in classes]
    assert len(flat) == 2
    assert not locally_weakly_equivalent(flat[0], flat[1], T)
    # a regular prime has R as its one overorder and [R] as its one class
    one = FqPoly.one(ctx.field)
    assert local_icm(ctx, T - one).m_p == 1
    R = Order.monogenic(ctx)
    assert p_overorders(ctx, T - one).orders == (R,)
    assert len(weak_classes(R, R, T - one)) == 1


def test_local_icm_report_is_read_only():
    ctx = make_ctx(3, "x^2 - T^3")
    rep = local_icm(ctx, FqPoly.gen(ctx.field))
    with pytest.raises(AttributeError):
        rep.m_p = 3
    with pytest.raises(AttributeError):
        rep.extra = 0
    assert rep.m_p == 2


def test_local_icm_regular_for_unit_disc():
    ctx = make_ctx(3, "1 - x + x^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    for p in [T, T + FqPoly.one(F)]:
        assert p not in singular_primes(ctx)
        report = local_icm(ctx, p)
        assert report.by_overorder == ((R, (R.ideal,)),)
        assert report.m_p == 1


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


def _non_gorenstein_order_of_x3_minus_t4():
    F = gf(2)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^3 - T^4"))  # nothing cached
    (s,) = [s for s in p_overorders(ctx, FqPoly.gen(F)).orders
            if not is_gorenstein(s)]
    return Order.monogenic(ctx), s


def test_weak_class_checks_name_the_stage_and_instance(monkeypatch):
    from gekeler import weakeq
    F = gf(2)
    T = FqPoly.gen(F)
    where = "for q = 2, f = x^3 + T^4, p = T"
    base, s = _non_gorenstein_order_of_x3_minus_t4()
    with monkeypatch.context() as m:
        m.setattr(weakeq, "_stabilized_by_none", lambda k, others, w: False)
        with pytest.raises(InternalCheckError) as exc:
            weak_classes(base, s, T)
    assert str(exc.value) == ("weak_classes: S/f is missing from its own "
                              f"window {where}")
    # keep S/f alone: a unit of O/f outside S/f moves it to a W not kept
    base, s = _non_gorenstein_order_of_x3_minus_t4()
    sat = p_saturation(base.ctx, T).ideal
    quo = LatticeQuotient(sat, s.ideal.colon(sat))
    s_sub = tuple(quo.image(s.ideal))
    with monkeypatch.context() as m:
        m.setattr(weakeq, "_stabilized_by_none", lambda k, others, w: w == s_sub)
        with pytest.raises(InternalCheckError) as exc:
            weak_classes(base, s, T)
    assert str(exc.value) == ("weak_classes: a unit moved W out of the "
                              f"window {where}")


@pytest.mark.parametrize("q,fstr,m_p", [curve + (m_p,) for curve, m_p
                                        in zip(THREE_BRANCH_CURVES, (7, 10))])
def test_three_branch_windows_walk_from_zero(q, fstr, m_p):
    # three primes of O above T exceed q = 2, so the walk covers the whole
    # window; the colon collapse (test_unit_orbits_match_the_colon_collapse)
    # confirms each class
    from gekeler import weakeq
    ctx = make_ctx(q, fstr)
    T = FqPoly.gen(ctx.field)
    assert not weakeq._interval_suffices(ctx, T)
    assert local_icm(ctx, T).m_p == m_p


def test_each_window_is_walked_under_the_ring_that_acts_on_it(monkeypatch):
    # O/R is walked under T and pi, with the action of p to find covers:
    # three action matrices per window at any rank, two at p = T, where the
    # matrix of T is the action of p; the weak window is multiplied in the
    # ring V = O/f and takes no action matrix, and at p = T its matrix of T
    # is again the action of p, one multiplication matrix fewer
    from gekeler import weakeq
    from gekeler.kalgebra import FiniteAlgebra
    calls, mults = [], []
    action_matrix = LatticeQuotient.action_matrix
    mult_matrix = FiniteAlgebra.mult_matrix

    def counted_action_matrix(self, z):
        calls.append(z)
        return action_matrix(self, z)

    def counted_mult_matrix(self, z):
        mults.append(z)
        return mult_matrix(self, z)

    monkeypatch.setattr(LatticeQuotient, "action_matrix", counted_action_matrix)
    monkeypatch.setattr(FiniteAlgebra, "mult_matrix", counted_mult_matrix)
    for q, fstr, pstr, expected, walked in [
            (2, "x^3 - T^5", "T", 2, [0, 15, 0, 10, 0]),
            (3, "x^4 + T^3", "T", 2, None),
            (2, "x^3 - (T + 1)^5", "T + 1", 3, [0, 16, 0, 11, 0])]:
        field = gf(q)
        ctx = AlgebraContext(field, parse_bipoly(field, fstr))
        p = parse_fqpoly(field, pstr)
        p_saturation(ctx, p)
        calls.clear()
        overorders = p_overorders(ctx, p).orders
        assert len(calls) == expected
        if walked:
            # two of the five overorders have a second class, found by a walk
            calls.clear()
            counts, per_window = [], []
            for s in overorders:
                mults.clear()
                counts.append(len(weakeq._weak_classes(ctx, p, s)))
                per_window.append(len(mults))
            assert counts == [1, 2, 1, 2, 1] and not calls
            assert per_window == walked


def test_interval_walk_tests_a_few_hundred_stabilizers(monkeypatch):
    # x^3 - T^10 over F_2 at T: the whole windows hold 10,091 S-invariant
    # subspaces, the intervals above S/f 214
    from gekeler import weakeq
    calls = []
    stabilized = weakeq._stabilized_by_none
    monkeypatch.setattr(weakeq, "_stabilized_by_none",
                        lambda *args: calls.append(1) or stabilized(*args))
    field = gf(2)
    ctx = AlgebraContext(field, parse_bipoly(field, "x^3 - T^10"))
    assert local_icm(ctx, FqPoly.gen(field)).m_p == 27
    assert len(calls) <= 300


@pytest.mark.parametrize("q,fstr", [(2, "x^3 - T^5"), (2, "x^3 - T^8"),
                                    (3, "x^4 + T^3")])
def test_weak_classes_take_one_colon_per_overorder(monkeypatch, q, fstr):
    field = gf(q)
    ctx = AlgebraContext(field, parse_bipoly(field, fstr))
    T = FqPoly.gen(field)
    orders = p_overorders(ctx, T).orders
    colons = []
    colon = FracIdeal.colon
    monkeypatch.setattr(FracIdeal, "colon",
                        lambda i, j: colons.append(1) or colon(i, j))
    # R and O are Gorenstein without a conductor; every other S of these
    # rank >= 3 orders takes exactly the one colon f = (S:O)
    ends = (Order.monogenic(ctx), p_saturation(ctx, T))
    assert ctx.r >= 3 and all(end in orders for end in ends)
    for s in orders:
        del colons[:]
        weak_classes(Order.monogenic(ctx), s, T)
        assert len(colons) == (0 if s in ends else 1)


GORENSTEIN_CURVES = list(dict.fromkeys(
    ORACLE_CURVES + CONTEXT_POOL + THREE_BRANCH_CURVES
    + [(2, "x^3 - T^8"), (3, "x^4 - T^5")]))


@pytest.mark.parametrize("q,fstr", GORENSTEIN_CURVES)
def test_length_criterion_matches_the_two_colon_oracle(q, fstr):
    from gekeler import weakeq
    finite = make_ctx(q, fstr)
    for ctx in (finite, infinity_context(finite)):
        for p in singular_primes(ctx):
            sat = p_saturation(ctx, p).ideal
            for s in p_overorders(ctx, p).orders:
                cond = s.ideal.colon(sat)
                assert (weakeq._gorenstein_by_lengths(sat, s.ideal, cond)
                        == is_gorenstein(s))


def test_orbit_size_check_names_the_stage_and_instance(monkeypatch):
    # with the first unit of U repeated |U| times, the orbit of S/f is too
    # small
    from gekeler import kalgebra
    base, s = _non_gorenstein_order_of_x3_minus_t4()
    transversal = kalgebra.unit_transversal
    monkeypatch.setattr(kalgebra, "unit_transversal",
                        lambda alg, sub: [transversal(alg, sub)[0]]
                        * len(transversal(alg, sub)))
    with pytest.raises(InternalCheckError) as exc:
        weak_classes(base, s, FqPoly.gen(base.ctx.field))
    msg = str(exc.value)
    assert msg.startswith("weak_classes: a unit orbit has 1 members, ")
    assert msg.endswith("for q = 2, f = x^3 + T^4, p = T")


def test_transversal_size_check_names_the_stage_and_instance(monkeypatch):
    # with the last unit of U dropped, U misses a coset of (S/f)^x
    from gekeler import kalgebra
    base, s = _non_gorenstein_order_of_x3_minus_t4()
    transversal = kalgebra.unit_transversal
    monkeypatch.setattr(kalgebra, "unit_transversal",
                        lambda alg, sub: transversal(alg, sub)[:-1])
    with pytest.raises(InternalCheckError) as exc:
        weak_classes(base, s, FqPoly.gen(base.ctx.field))
    msg = str(exc.value)
    assert msg.startswith("weak_classes: the unit transversal has ")
    assert msg.endswith("for q = 2, f = x^3 + T^4, p = T")


@pytest.mark.parametrize("q,fstr,prime", [(2, "x^3 - T^8", "T"),
                                          (2, "x^3 - (T^2+T+1)^5", "T^2+T+1")])
def test_orbits_apply_each_unit_once_per_class(monkeypatch, q, fstr, prime):
    # over a local_icm call, _orbit_representatives maps subspaces under at
    # most (classes of S) * |U| unit matrices per S, |U| = |V^x|/|(S/f)^x|;
    # each image is one span_basis call it makes itself
    from gekeler import weakeq
    applied, bound = [], []
    span_basis = klinalg.span_basis

    def counted_span_basis(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):   # a comprehension
            frame = frame.f_back
        if frame.f_code.co_name == "_orbit_representatives":
            applied.append(1)
        return span_basis(*args)

    orbit_representatives = weakeq._orbit_representatives

    def counted_orbit_representatives(quo, alg, s_sub, subs, p):
        reps = orbit_representatives(quo, alg, s_sub, subs, p)
        s_piv = klinalg.rref(quo.ctx.field, s_sub)[1]
        size = unit_count(alg) // unit_count(alg.subalgebra(s_sub, s_piv))
        bound.append((len(reps) + 1) * size)
        return reps

    monkeypatch.setattr(klinalg, "span_basis", counted_span_basis)
    monkeypatch.setattr(weakeq, "_orbit_representatives",
                        counted_orbit_representatives)
    field = gf(q)
    ctx = AlgebraContext(field, parse_bipoly(field, fstr))
    local_icm(ctx, parse_fqpoly(field, prime))
    assert bound and len(applied) <= sum(bound)


@pytest.mark.parametrize("power,m_p,counts", [(5, 7, [1, 1, 1, 2, 2]),
                                              (4, 5, [1, 1, 1, 2])])
def test_degree_two_prime_matches_its_base_change(power, m_p, counts):
    # the completion of F_2[T] at T^2+T+1 is F_4[[t]], t = T^2+T+1, so the
    # local ring of x^3 - (T^2+T+1)^n there is that of x^3 - T^n over F_4
    ctx = make_ctx(2, f"x^3 - (T^2+T+1)^{power}")
    F = ctx.field
    p = FqPoly(F, (1, 1, 1))
    over_f4 = make_ctx(4, f"x^3 - T^{power}")
    base = local_icm(over_f4, FqPoly.gen(over_f4.field))
    report = local_icm(ctx, p)
    for rep in (report, base):
        assert rep.m_p == m_p
        assert sorted(len(cl) for _, cl in rep.by_overorder) == counts


@pytest.mark.parametrize("q,fstr", GORENSTEIN_CURVES)
def test_orders_that_skip_the_conductor_are_gorenstein(q, fstr):
    # weak_classes takes no colon for R, O and any order of rank <= 2, on
    # the grounds that each is Gorenstein; the two-colon oracle agrees
    finite = make_ctx(q, fstr)
    for ctx in (finite, infinity_context(finite)):
        for p in singular_primes(ctx):
            orders = p_overorders(ctx, p).orders
            skipped = [s for s in orders if ctx.r <= 2
                       or s in (Order.monogenic(ctx), p_saturation(ctx, p))]
            assert len(skipped) >= 2
            assert all(is_gorenstein(s) for s in skipped)


def _count_work(monkeypatch, q, fstr):
    """local_icm at T on a fresh context, counting colons and the builds of
    S/pS by p_radical."""
    from gekeler import primes
    calls = {"colon": 0, "p_radical": 0}
    colon, p_radical = FracIdeal.colon, primes.p_radical

    def counted_colon(i, j):
        calls["colon"] += 1
        return colon(i, j)

    def counted_p_radical(order, p):
        calls["p_radical"] += 1
        return p_radical(order, p)

    monkeypatch.setattr(FracIdeal, "colon", counted_colon)
    monkeypatch.setattr(primes, "p_radical", counted_p_radical)
    field = gf(q)
    ctx = AlgebraContext(field, parse_bipoly(field, fstr))
    return local_icm(ctx, FqPoly.gen(field)), calls


def test_local_icm_takes_no_colon_whose_answer_is_known(monkeypatch):
    # the saturation opens at Ore's order, which is O here as f is
    # p-regular, and builds S/pS once to certify it; R, O and the orders
    # of rank 2 take no conductor colon
    report, calls = _count_work(monkeypatch, 2, "x^3 - T^5")
    assert report.m_p == 7
    assert calls["colon"] <= 6 and calls["p_radical"] == 1
    monkeypatch.undo()
    report, calls = _count_work(monkeypatch, 3, "x^2 - T^7")
    assert report.m_p == 4
    assert calls["colon"] <= 3 and calls["p_radical"] == 1


def test_local_icm_trusts_its_own_overorders(monkeypatch):
    # the public weak_classes checks R <= S <= O; local_icm hands it the
    # p-overorders it has just enumerated and skips the check
    contains = []
    real = FracIdeal.contains
    monkeypatch.setattr(FracIdeal, "contains",
                        lambda i, j: contains.append(1) or real(i, j))
    field = gf(2)
    ctx = AlgebraContext(field, parse_bipoly(field, "x^3 - T^4"))
    T = FqPoly.gen(field)
    orders = p_overorders(ctx, T).orders
    del contains[:]
    local_icm(ctx, T)
    assert contains == []
    weak_classes(Order.monogenic(ctx), orders[1], T)
    assert len(contains) == 2
