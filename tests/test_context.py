import random

import pytest

from conftest import make_ctx
from gekeler.gf import gf_of_order
from gekeler.fqpoly import FqPoly
from gekeler.bipoly import BiPoly
from gekeler.context import AlgebraContext, KElement, memoized
from gekeler.errors import InputError, InseparableError
from gekeler.parse import parse_bipoly


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
# Artin-Schreier x^2 + x + T over F_2
CASES = [(q, r, None) for q in (2, 3, 4, 9) for r in range(1, 5)]
CASES.append((2, 2, "x^2 + x + T"))


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


@pytest.mark.parametrize("check", [False, True])
def test_the_context_refuses_an_inseparable_f_before_the_irreducibility_test(
        monkeypatch, check):
    from gekeler import context

    def refuse(*args, **kwargs):
        raise AssertionError("ran the irreducibility test on an inseparable f")

    monkeypatch.setattr(context, "is_irreducible_bivariate", refuse)
    field = gf_of_order(3)
    with pytest.raises(InseparableError):
        AlgebraContext(field, parse_bipoly(field, "x^3 - T"), check=check)


def test_gen_of_rank_one():
    ctx = make_ctx(3, "x - T^2")
    T = FqPoly.gen(ctx.field)
    assert KElement.gen(ctx) == KElement.from_fqpoly(ctx, T ** 2)
    cusp = make_ctx(3, "x^2 - T^3")
    assert KElement.gen(cusp).num == cusp.power_vectors[1]


def test_a_memoized_body_runs_once_per_context_and_arguments():
    calls = []

    @memoized
    def square(ctx, n):
        calls.append((ctx, n))
        return n * n

    @memoized
    def refuse(ctx, n):
        calls.append((ctx, n))
        raise InputError("refused")

    field = gf_of_order(3)
    a, b = (AlgebraContext(field, parse_bipoly(field, "x^2 - T")) for _ in range(2))
    assert [square(c, n) for c in (a, b, a, b) for n in (2, 3, 2)] == [4, 9, 4] * 4
    assert calls == [(a, 2), (a, 3), (b, 2), (b, 3)]
    calls.clear()
    for _ in range(2):
        with pytest.raises(InputError):
            refuse(a, 5)
    assert calls == [(a, 5), (a, 5)]



def test_one_resultant_per_context_on_the_benchmark_jobs(monkeypatch):
    # the irreducibility test's repeated-factor guard and disc(f) read the
    # same res_x(f, df/dx); each context builds it once (twice before)
    import contextlib
    import io
    from conftest import perfbench_workloads
    from gekeler import bipoly, cli, context
    calls, contexts = [], []
    real_resultant, real_init = bipoly.resultant_x, context.AlgebraContext.__init__

    def resultant_x(f, g):
        calls.append(f)
        return real_resultant(f, g)

    def init(self, *args, **kwargs):
        contexts.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(bipoly, "resultant_x", resultant_x)
    monkeypatch.setattr(context.AlgebraContext, "__init__", init)
    workloads = perfbench_workloads()
    for argvs, total in ((workloads.ICM_WINDOW, 11), (workloads.CENSUS, 26)):
        calls.clear()
        contexts.clear()
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(list(argv)) == 0
        assert [sum(f is ctx.f for f in calls) for ctx in contexts] \
            == [1] * len(contexts)
        # no other call: the zeta census counts the factors of f over a
        # constant field extension without testing it for squares again
        assert len(calls) == total == len(contexts)
