import itertools

import pytest

from conftest import make_ctx
from gekeler.gf import gf
from gekeler.fqpoly import FqPoly
from gekeler import oracle as O
from gekeler.errors import BudgetExceeded, InputError


def gl_order_closed_form(r, big_q, n):
    units = big_q ** (n - 1) * (big_q - 1)
    return units * O.sl_order_closed_form(r, big_q, n)


def test_companion_matrix_has_charpoly_f():
    # det(x I - M_0) expanded by hand for the cusp: x^2 - T^3
    ctx = make_ctx(3, "x^2 - T^3")
    m0 = O.companion_matrix(ctx)
    T = FqPoly.gen(ctx.field)
    # trace = 0, det = -T^3 for f = x^2 - T^3
    assert (m0[0][0] + m0[1][1]).is_zero()
    det = m0[0][0] * m0[1][1] - m0[0][1] * m0[1][0]
    assert det == -(T ** 3)


def test_count_r1_is_one():
    for fstr in ("x - T", "x - T^2"):
        ctx = make_ctx(3, fstr)
        T = FqPoly.gen(ctx.field)
        assert O.count_matrices_with_charpoly(ctx, T, 1) == 1
        assert O.count_matrices_with_charpoly(ctx, T, 2) == 1


def test_count_cusp_level1_cross_check():
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    cnt = O.count_matrices_with_charpoly(ctx, T, 1)
    naive = sum(
        1
        for a in range(3) for b in range(3) for c in range(3) for d in range(3)
        if (a + d) % 3 == 0 and (a * d - b * c) % 3 == 0)
    assert cnt == naive == 9


def test_count_growth_trend():
    # count(n+1)/count(n) approaches |p|^(r^2 - r) = 9 (sanity trend only)
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    counts = [O.count_matrices_with_charpoly(ctx, T, n, budget=10 ** 8)
              for n in (2, 3, 4)]
    assert counts == [99, 891, 7776]
    assert counts[2] * 1.0 / counts[1] == pytest.approx(9, abs=0.8)


def test_generic_charpoly_path_matches_fast_path():
    # r = 2 generic permutation expansion vs the trace/det fast path
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    ring = O.TruncatedRing(T, 2)
    target = O._target_charpoly(ctx, ring)
    fast = 0
    slow = 0
    s = ring.size
    from itertools import product
    for entries in product(range(s), repeat=4):
        mat = [list(entries[:2]), list(entries[2:])]
        coeffs2 = O._ring_charpoly_coeffs(ring, mat, 2)
        if coeffs2 == target:
            slow += 1
    fast = O.count_matrices_with_charpoly(ctx, T, 2)
    assert fast == slow


def test_budget_raises():
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    with pytest.raises(BudgetExceeded):
        O.count_matrices_with_charpoly(ctx, T, 3, budget=1000)


def test_orbit_counts():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    # regular primes: single orbit at n = 1, 2
    assert O.brute_orbit_count(ctx, T - one, 1) == 1
    assert O.brute_orbit_count(ctx, T - one, 2) == 1
    assert O.brute_orbit_count(ctx, T + one, 2) == 1
    # singular prime: 2 at level 1; at level 2 three extra orbits of
    # non-liftable matrices appear (see the README oracle notes)
    assert O.brute_orbit_count(ctx, T, 1) == 2
    assert O.brute_orbit_count(ctx, T, 2) == 5


def test_orbit_sizes_decompose_the_matching_set():
    # orbit sizes at (T, 2): projections of the two ideal classes (72, 8)
    # plus junk orbits {0}, T*N with charpoly(N) = x^2+1 and x^2-1
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    ring, matching = O._matching_matrices(ctx, T, 2, 10 ** 7)
    gl = O._gl_with_inverses(ring, 2, 10 ** 7)
    remaining = set(matching)
    sizes = []
    while remaining:
        mat = sorted(remaining)[0]
        orb = set()
        for g, gi in gl:
            orb.add(O._mat_mul_ring(ring, O._mat_mul_ring(ring, g, mat, 2), gi, 2))
        sizes.append(len(orb))
        remaining -= orb
    assert sorted(sizes) == [1, 6, 8, 12, 72]
    assert sum(sizes) == len(matching) == 99


def test_projected_class_orbits_realize_the_bijection():
    # the multiplication-by-pi matrices of the m_p ideal classes project to
    # pairwise non-conjugate matrices mod T^n for n = 1, 2
    from gekeler import amatrix
    from gekeler.weakeq import local_icm
    ctx = make_ctx(3, "x^2 - T^3")
    T = FqPoly.gen(ctx.field)
    rep = local_icm(ctx, T)
    mats = []
    for _, classes in rep.by_overorder:
        for c in classes:
            lat = c
            num = [list(row) for row in lat.num]
            cols_out = []
            for col in lat.basis_columns():
                vec = ctx.mult_vectors(ctx.power_vectors[1], col)
                cols_out.append(amatrix.solve_upper_triangular(num, list(vec)))
            mats.append([[cols_out[j][i] for j in range(2)] for i in range(2)])
    assert len(mats) == 2
    for n in (1, 2):
        ring = O.TruncatedRing(T, n)
        tgt = O._target_charpoly(ctx, ring)
        red = [tuple(tuple(ring.from_fqpoly(m[i][j]) for j in range(2))
                     for i in range(2)) for m in mats]
        for mr in red:
            assert O._ring_charpoly_coeffs(ring, [list(r) for r in mr], 2) == tgt
        gl = O._gl_with_inverses(ring, 2, 10 ** 7)
        orbits = []
        for mr in red:
            if any(mr in orb for orb in orbits):
                continue
            orb = set()
            for g, gi in gl:
                orb.add(O._mat_mul_ring(ring, O._mat_mul_ring(ring, g, mr, 2),
                                        gi, 2))
            orbits.append(orb)
        assert len(orbits) == 2


def test_sl_counts_and_closed_form():
    F2, F3 = gf(2), gf(3)
    for (field, n), r in itertools.product(
            [(F2, 1), (F3, 1), (F2, 2), (F3, 2)], (1, 2)):
        p = FqPoly.gen(field)
        sl, gl, units = O.brute_sl_count(r, p, n)
        big_q = field.q
        assert sl == O.sl_order_closed_form(r, big_q, n)
        assert gl == gl_order_closed_form(r, big_q, n)
        assert gl == units * sl
    assert O.brute_sl_count(2, FqPoly.gen(F3), 1)[:2] == (24, 48)
    # closed form at a degree-2 prime: Q = 9
    p2 = FqPoly.gen(F3) ** 2 + FqPoly.one(F3)
    sl, gl, units = O.brute_sl_count(1, p2, 1)
    assert (sl, gl) == (1, 8)
    assert O.sl_order_closed_form(2, 9, 1) == 9 * (81 - 1)


def test_commutant_dimensions():
    assert O.commutant_dimension(make_ctx(3, "1 - x + x^3")) == 3
    assert O.commutant_dimension(make_ctx(3, "x^2 - T^3")) == 2
    assert O.commutant_dimension(make_ctx(2, "x^3 - T")) == 3
    assert O.commutant_dimension(make_ctx(3, "x - T")) == 1


def test_conjugator_budget_is_checked_before_the_inverse_search(monkeypatch):
    F = gf(3)
    T = FqPoly.gen(F)
    ring = O.TruncatedRing(T, 2)
    monkeypatch.setattr(ring, "units", None)   # the search would iterate it
    with pytest.raises(BudgetExceeded, match="^enumerating 6561 candidate "):
        O._gl_with_inverses(ring, 2, 100)


def test_truncated_ring_tables():
    F = gf(3)
    T = FqPoly.gen(F)
    ring = O.TruncatedRing(T, 2)
    assert ring.size == 9
    assert len(ring.units) == 6
    # ring axioms on tables
    for a in range(ring.size):
        assert ring.add_table[a][ring.zero] == a
        assert ring.mul_table[a][ring.one] == a
        assert ring.add_table[a][ring.neg_table[a]] == ring.zero
    # encode/decode round trip
    for a in range(ring.size):
        assert ring.from_fqpoly(ring.lift(a)) == a
    with pytest.raises(InputError):
        O.TruncatedRing(T ** 2 - FqPoly.one(F), 1)
