import random
import zlib

import pytest

from conftest import make_ctx
from gekeler.fqpoly import FqPoly
from gekeler.context import KElement
from gekeler.ideals import FracIdeal, Order, multiplicator_ring, index_ideal
from gekeler.errors import InputError, NotContained
from gekeler import amatrix


def adjugate(mat):
    """Adjugate matrix (transpose of cofactors) over A."""
    n = len(mat)
    field = mat[0][0].field
    if n == 1:
        return [[FqPoly.one(field)]]
    out = amatrix.mat_zero(field, n, n)
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = amatrix.det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[j][i] = cof
    return out


def _colon_by_adjugates(i, j):
    """Reference (I:J): the intersection over the generators b of J of
    b^{-1} I, with b^{-1} = adj(M_b) / det(M_b) for the multiplication
    matrix M_b."""
    ctx = i.ctx
    result = None
    for col in j.basis_columns():
        images = [ctx.mult_vectors(col, pv) for pv in ctx.power_vectors]
        m = [[images[c][rw] for c in range(ctx.r)] for rw in range(ctx.r)]
        num = amatrix.mat_mul(adjugate(m), [list(row) for row in i.num])
        num = [[e * j.den for e in row] for row in num]
        lat = FracIdeal(ctx, num, i.den * amatrix.det(m))
        result = lat if result is None else result.intersect(lat)
    return result


def cusp_objects():
    ctx = make_ctx(3, "x^2 - T^3")
    F = ctx.field
    T = FqPoly.gen(F)
    R = Order.monogenic(ctx)
    pi = KElement.gen(ctx)
    m = FracIdeal.from_elements(ctx, [KElement.from_fqpoly(ctx, T), pi])
    t = KElement(ctx, (FqPoly.zero(F), FqPoly.one(F)), T)  # pi/T
    ok = FracIdeal.from_elements(ctx, [KElement.one(ctx), t])
    return ctx, T, R, pi, m, t, ok


def test_monogenic_order_examples():
    for q, fstr in [(3, "x^2 - T"), (3, "1 - x + x^3"), (3, "x^2 - T^3")]:
        ctx = make_ctx(q, fstr)
        R = Order.monogenic(ctx)
        assert R.ideal == FracIdeal.unit_ideal(ctx)
        assert multiplicator_ring(R.ideal).ideal == R.ideal
    # multiplication table has pi^2 = T^3 for the cusp
    ctx = make_ctx(3, "x^2 - T^3")
    pi = KElement.gen(ctx)
    T = FqPoly.gen(ctx.field)
    assert pi * pi == KElement.from_fqpoly(ctx, T ** 3)


def test_ideal_sum_product_basics():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    assert m + m == m
    assert m * R.ideal == m
    a = KElement.from_fqpoly(ctx, T + FqPoly.one(ctx.field))
    b = KElement.from_fqpoly(ctx, T ** 2 + FqPoly.const(ctx.field, 2))
    assert R.ideal.scale(a) * R.ideal.scale(b) == R.ideal.scale(a * b)


def test_cusp_m_squared_vs_hand_hnf():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    m2 = m * m
    hand = FracIdeal.from_elements(
        ctx, [KElement.from_fqpoly(ctx, T ** 2), KElement.from_fqpoly(ctx, T) * pi])
    assert m2 == hand
    assert m2.to_json_dict() == {"den": "1", "num": [["T^2", "0"], ["0", "T"]]}


def test_colon_properties():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    # (I:I) contains R and is a ring
    mm = m.colon(m)
    assert mm.contains(R.ideal)
    assert mm.is_order_lattice()
    # cusp: (m : m) = O_K
    assert mm == ok
    assert mm.contains_element(t)
    # (R:R) = R
    assert R.ideal.colon(R.ideal) == R.ideal
    # colon containment (I:J) * J <= I
    for i, j in [(R.ideal, m), (m, R.ideal), (m, m), (ok, m)]:
        assert i.contains(i.colon(j) * j)


def test_index_ideal_examples():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    assert index_ideal(m, m).is_one()
    TR = R.ideal.scale(KElement.from_fqpoly(ctx, T))
    assert index_ideal(R.ideal, TR) == T ** 2
    assert index_ideal(ok, R.ideal) == T
    with pytest.raises(NotContained):
        index_ideal(TR, R.ideal)


def test_index_multiplicativity():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    chain = [ok, R.ideal, m, m * m]
    for i in range(len(chain) - 2):
        big, mid, small = chain[i], chain[i + 1], chain[i + 2]
        assert (index_ideal(big, mid) * index_ideal(mid, small)
                == index_ideal(big, small))


def test_contains_and_eq():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    assert m.contains(m)
    assert ok.contains(R.ideal)
    assert not R.ideal.contains(ok)
    TR = R.ideal.scale(KElement.from_fqpoly(ctx, T))
    assert R.ideal.contains(TR)
    assert not TR.contains(R.ideal)
    assert m == m
    # eq agrees with double inclusion
    mr = m * R.ideal
    assert m.contains(mr) and mr.contains(m) and m == mr


def test_context_mismatch_rejected():
    ctx1 = make_ctx(3, "x^2 - T^3")
    ctx2 = make_ctx(3, "x^2 - T")
    i1 = FracIdeal.unit_ideal(ctx1)
    i2 = FracIdeal.unit_ideal(ctx2)
    with pytest.raises(InputError):
        i1 + i2
    with pytest.raises(InputError):
        i1 * i2


def rand_kelement(ctx, rng, maxdeg=2):
    F = ctx.field
    while True:
        num = tuple(FqPoly(F, [rng.randrange(F.q) for _ in range(maxdeg + 1)])
                    for _ in range(ctx.r))
        if any(not c.is_zero() for c in num):
            break
    dens = [FqPoly.one(F), FqPoly.gen(F),
            FqPoly.gen(F) + FqPoly.one(F)]
    return KElement(ctx, num, dens[rng.randrange(len(dens))])


def rand_ideal(ctx, rng):
    gens = [rand_kelement(ctx, rng) for _ in range(2)]
    return FracIdeal.from_elements(ctx, gens)


@pytest.mark.parametrize("q,fstr", [(3, "x^2 - T^3"), (2, "x^3 - T^4"),
                                    (3, "x^3 - T*x - T^2"), (2, "x^2 + T")])
def test_randomized_colon_scaling_normalization(q, fstr):
    ctx = make_ctx(q, fstr)
    rng = random.Random(zlib.crc32(f"{q} {fstr}".encode()))
    for _ in range(10):
        i = rand_ideal(ctx, rng)
        j = rand_ideal(ctx, rng)
        # colon containment, and equality with the adjugate reference
        assert i.contains(i.colon(j) * j)
        assert i.colon(j) == _colon_by_adjugates(i, j)
        assert i.dual().dual() == i
        # principal scaling invariance
        z = rand_kelement(ctx, rng)
        assert i.scale(z).colon(j.scale(z)) == i.colon(j)
        # normalization uniqueness: eq iff double inclusion
        k = i + j
        assert k.contains(i) and k.contains(j)
        if i.contains(k):
            assert i == k


def test_multiplicator_ring_idempotent():
    ctx, T, R, pi, m, t, ok = cusp_objects()
    s = multiplicator_ring(m)
    again = multiplicator_ring(s.ideal)
    assert again.ideal == s.ideal
