import random

import pytest

from conftest import make_ctx
from gekeler.gf import gf_of_order
from gekeler.fqpoly import FqPoly
from gekeler.bipoly import BiPoly
from gekeler.context import AlgebraContext, KElement


def power_table_product(ctx, u, v):
    """Reference product of numerator vectors: convolve, then replace each
    pi^k (k >= r) by its vector from a table built by the recurrence
    pi^r = -(c_0 + c_1 pi + ... + c_{r-1} pi^{r-1})."""
    r = ctx.r
    zero = FqPoly.zero(ctx.field)
    one = FqPoly.one(ctx.field)
    table = [[one if i == k else zero for i in range(r)] for k in range(r)]
    top = [-ctx.f.coeff(i) for i in range(r)]
    table.append(top)
    while len(table) < 2 * r - 1:
        prev = table[-1]
        shifted = [zero] + prev[:r - 1]
        table.append([shifted[i] + top[i] * prev[r - 1] for i in range(r)])
    conv = [zero] * (2 * r - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            conv[i + j] = conv[i + j] + ui * vj
    out = [zero] * r
    for k, ck in enumerate(conv):
        for i in range(r):
            out[i] = out[i] + table[k][i] * ck
    return tuple(out)


def rand_fqpoly(field, rng, max_deg):
    return FqPoly(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


def rand_monic(field, rng, r):
    coeffs = [rand_fqpoly(field, rng, 3) for _ in range(r)]
    return BiPoly(field, coeffs + [FqPoly.one(field)])


# random monic f of every rank 1-4 over F_2, F_3, F_4 and F_9, and the
# inseparable x^2 + T over F_2
CASES = [(q, r, None) for q in (2, 3, 4, 9) for r in range(1, 5)]
CASES.append((2, 2, "x^2 + T"))


@pytest.mark.parametrize("q,r,fstr", CASES)
def test_mult_vectors_matches_power_table(q, r, fstr):
    rng = random.Random(10 * q + r)
    if fstr is None:
        field = gf_of_order(q)
        ctx = AlgebraContext(field, rand_monic(field, rng, r), check=False)
    else:
        ctx = make_ctx(q, fstr)
    for _ in range(8):
        u = tuple(rand_fqpoly(ctx.field, rng, 4) for _ in range(r))
        v = tuple(rand_fqpoly(ctx.field, rng, 4) for _ in range(r))
        prod = ctx.mult_vectors(u, v)
        assert len(prod) == r
        assert prod == power_table_product(ctx, u, v)


def test_gen_of_rank_one():
    ctx = make_ctx(3, "x - T^2")
    T = FqPoly.gen(ctx.field)
    assert KElement.gen(ctx) == KElement.from_fqpoly(ctx, T ** 2)
    cusp = make_ctx(3, "x^2 - T^3")
    assert KElement.gen(cusp).num == cusp.power_vectors[1]
