import random

import pytest

from gekeler.gf import gf
from gekeler.fqpoly import FqPoly
from gekeler import amatrix
from gekeler.errors import InputError
from test_ideals import adjugate, cofactor_det, mat_mul


def rand_poly(field, maxdeg, rng):
    return FqPoly(field, [rng.randrange(field.q) for _ in range(maxdeg + 1)])


def rand_unimodular(field, n, rng):
    u = amatrix.mat_identity(field, n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rand_poly(field, 1, rng)
        for row in u:
            row[j] = row[j] + row[i] * c
        if rng.random() < 0.3:
            for row in u:
                row[i], row[j] = row[j], row[i]
        if rng.random() < 0.3:
            c = field.q - 1 or 1
            unit = FqPoly.const(field, rng.randrange(1, field.q))
            for row in u:
                row[i] = row[i] * unit
    return u


def test_hnf_identity():
    F = gf(3)
    eye = amatrix.mat_identity(F, 3)
    assert amatrix.hnf(eye) == eye


def test_hnf_unimodular_invariance():
    F = gf(3)
    rng = random.Random(23)
    done = 0
    while done < 25:
        m = [[rand_poly(F, 2, rng) for _ in range(3)] for _ in range(3)]
        if amatrix.det(m).is_zero():
            continue
        done += 1
        h = amatrix.hnf(m)
        assert amatrix.is_hnf(h)
        u = rand_unimodular(F, 3, rng)
        assert amatrix.hnf(mat_mul(m, u)) == h
        # idempotence
        assert amatrix.hnf(h) == h


def test_hnf_span_equality_by_membership():
    # mutual membership of columns via triangular back-substitution
    F = gf(3)
    rng = random.Random(29)
    done = 0
    while done < 15:
        m = [[rand_poly(F, 2, rng) for _ in range(3)] for _ in range(3)]
        if amatrix.det(m).is_zero():
            continue
        done += 1
        h = amatrix.hnf(m)
        for j in range(3):
            col = [m[i][j] for i in range(3)]
            assert amatrix.solve_upper_triangular(h, col) is not None
        # and determinants agree up to monic normalization
        assert amatrix.det(m).monic() == amatrix.det(h).monic()


def test_hnf_rejects_rank_deficient():
    F = gf(3)
    T = FqPoly.gen(F)
    z = FqPoly.zero(F)
    with pytest.raises(InputError, match="rank"):
        amatrix.hnf([[T, T], [T, T]])
    with pytest.raises(InputError, match="rank-1"):
        amatrix.hnf([[T, z], [z, z]])


def test_index_is_monic_det_of_change_of_basis_random():
    # small = big * m, so [big : small] is generated by det(m)
    from gekeler.context import AlgebraContext
    from gekeler.ideals import FracIdeal
    from gekeler.parse import parse_bipoly
    F = gf(3)
    ctx = AlgebraContext(F, parse_bipoly(F, "x^2 - T^3"))
    one = FqPoly.one(F)
    rng = random.Random(31)
    done = 0
    while done < 30:
        b = [[rand_poly(F, 2, rng) for _ in range(2)] for _ in range(2)]
        m = [[rand_poly(F, 2, rng) for _ in range(2)] for _ in range(2)]
        if amatrix.det(b).is_zero() or amatrix.det(m).is_zero():
            continue
        done += 1
        big = FracIdeal(ctx, b, one)
        small = FracIdeal(ctx, mat_mul(b, m), one)
        assert big.index_in(small) == amatrix.det(m).monic()


def test_kernel_is_exact():
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    z = FqPoly.zero(F)
    m = [[T, one, z], [z, T, one]]
    ker = amatrix.kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    for row in m:
        acc = FqPoly.zero(F)
        for e, x in zip(row, v):
            acc = acc + e * x
        assert acc.is_zero()
    # kernel vector is primitive: content 1
    from gekeler.fqpoly import gcd_list
    assert gcd_list(list(v), F).is_one()


def test_det_and_adjugate():
    F = gf(3)
    rng = random.Random(37)
    for _ in range(20):
        m = [[rand_poly(F, 2, rng) for _ in range(3)] for _ in range(3)]
        d = amatrix.det(m)
        adj = adjugate(m)
        prod = mat_mul(adj, m)
        for i in range(3):
            for j in range(3):
                assert prod[i][j] == (d if i == j else FqPoly.zero(F))


def test_rank_over_fractions():
    F = gf(3)
    T = FqPoly.gen(F)
    one = FqPoly.one(F)
    z = FqPoly.zero(F)
    assert amatrix.rank_over_fractions([[T, one], [T * T, T]]) == 1
    assert amatrix.rank_over_fractions([[T, one], [one, T]]) == 2
    assert amatrix.rank_over_fractions([[z, z], [z, z]]) == 0


def test_bareiss_rank_skips_columns_and_reads_non_square_matrices():
    F = gf(3)
    T = FqPoly.gen(F)
    one, z = FqPoly.one(F), FqPoly.zero(F)
    assert amatrix.rank_over_fractions([[z, T], [z, one]]) == 1
    assert amatrix.rank_over_fractions([[z, T, one], [z, one, T]]) == 2
    assert amatrix.rank_over_fractions([[T, one, T], [T * T, T, T * T]]) == 1
    assert amatrix.rank_over_fractions([[T, one], [T * T, T], [one, z]]) == 2
    assert amatrix.rank_over_fractions([[z], [T]]) == 1


def test_bareiss_determinant_signs_its_row_swaps():
    F = gf(5)
    T = FqPoly.gen(F)
    one, z = FqPoly.one(F), FqPoly.zero(F)
    assert amatrix.det([[z, one], [one, z]]) == -one
    assert amatrix.det([[z, T], [T, z]]) == -(T * T)
    assert amatrix.det([[z, one, z], [z, z, one], [one, z, z]]) == one
    assert amatrix.det([[z, T], [z, one]]) == z


def test_bareiss_determinant_matches_the_cofactor_expansion():
    F = gf(3)
    rng = random.Random(59)
    for n in (1, 2, 3, 4):
        for _ in range(15):
            m = [[rand_poly(F, 1, rng) if rng.random() < 0.6 else FqPoly.zero(F)
                  for _ in range(n)] for _ in range(n)]
            assert amatrix.det(m) == cofactor_det(m), m
