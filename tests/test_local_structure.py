"""Local structure read instead of searched for: Berlekamp's split of the
local algebras, the A-linear maps of the lattice quotients, and the work
they leave to one pass of the `icm_window` benchmark jobs."""

import contextlib
import io
import random
import sys

from conftest import (ORACLE_CURVES, THREE_BRANCH_CURVES, make_ctx,
                      perfbench_workloads)
from property_suite import CONTEXT_POOL
import slot_oracle
from split_oracle import split_by_minimal_polynomials
from gekeler import cli, kalgebra, klinalg
from gekeler import primes as P
from gekeler.context import KElement
from gekeler.fqpoly import FqPoly
from gekeler.gf import gf
from gekeler.ideals import FracIdeal, Order
from gekeler.overorders import p_overorders
from gekeler.quotient import LatticeQuotient

LOCAL_CURVES = list(dict.fromkeys(ORACLE_CURVES + CONTEXT_POOL
                                  + THREE_BRANCH_CURVES))


def _singular_cases():
    """(ctx, p) at every singular p of each LOCAL_CURVES curve and of its
    model at infinity."""
    for q, fstr in LOCAL_CURVES:
        finite = make_ctx(q, fstr)
        for ctx in (finite, P.infinity_context(finite)):
            for p in P.singular_primes(ctx):
                yield ctx, p


def _windows(ctx, p):
    """The (quotient, ring) pairs the pipeline builds at p: O/R under R,
    O/(S:O) under S for each p-overorder S, and S/pS under S for S = R, O."""
    base = Order.monogenic(ctx)
    sat = P.p_saturation(ctx, p)
    out = [(LatticeQuotient(sat.ideal, base.ideal), base)]
    for s in p_overorders(ctx, p).orders:
        out.append((LatticeQuotient(sat.ideal, s.ideal.colon(sat.ideal)), s))
    p_el = KElement.from_fqpoly(ctx, p)
    for s in (base, sat):
        out.append((LatticeQuotient(s.ideal, s.ideal.scale(p_el)), s))
    return out


def test_frobenius_split_matches_the_minimal_polynomial_search():
    # O_K/pO_K, each O/(S:O) and each S/(S:O) at every singular p of the
    # pools, finite and infinity models; the three-branch curves give
    # c = 3 > q = 2 local components
    seen, split = 0, 0
    for ctx, p in _singular_cases():
        P.maximal_order(ctx)
        algebras = [P._saturation(ctx, p)[1]]
        sat = P.p_saturation(ctx, p).ideal
        for s in p_overorders(ctx, p).orders:
            if s.ideal == sat:   # O/(O:O) is the zero ring, below
                continue
            quo = LatticeQuotient(sat, s.ideal.colon(sat))
            alg = quo.algebra()
            s_sub = quo.image(s.ideal)
            algebras += [alg, alg.subalgebra(s_sub, klinalg.rref(ctx.field, s_sub)[1])]
        for alg in algebras:
            idempotents = kalgebra.split_local_components(alg)
            assert idempotents == split_by_minimal_polynomials(alg)
            seen += 1
            split += len(idempotents) > 1
    assert seen == 115 and split == 23
    # the zero ring has no local component and one unit, 0 = 1
    sat = P.p_saturation(*next(_singular_cases())).ideal
    zero = LatticeQuotient(sat, sat).algebra()
    assert kalgebra.split_local_components(zero) == []
    assert kalgebra.unit_count(zero) == 1


def _scrambled(k, blocks, seed):
    """The product of the algebras given by (struct, one), in a random
    basis: the algebra and the block identities in that basis."""
    dim = sum(len(struct) for struct, _ in blocks)
    big = [[(k.zero(),) * dim] * dim for _ in range(dim)]
    one, ends, at = [], [], 0
    for struct, unit in blocks:
        n = len(struct)

        def pad(v):
            return (k.zero(),) * at + tuple(v) + (k.zero(),) * (dim - at - n)

        for i in range(n):
            big[at + i] = [pad(struct[i][j - at]) if at <= j < at + n else e
                           for j, e in enumerate(big[at + i])]
        ends.append(pad(unit))
        one += unit
        at += n
    plain = kalgebra.FiniteAlgebra(k, big, one)
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randrange(k.order) for _ in range(dim)) for _ in range(dim)]
        if len(klinalg.rref(k, rows)[0]) == dim:
            break
    cols = [tuple(row[i] for row in rows) for i in range(dim)]

    def coords(v):   # in the basis `rows`
        return klinalg.solve(k, cols, v)

    struct = [[coords(plain.mul(u, v)) for v in rows] for u in rows]
    return kalgebra.FiniteAlgebra(k, struct, coords(plain.one)), [coords(e) for e in ends]


def test_frobenius_split_of_synthetic_products():
    # F_2^3 and F_2 x F_4 x F_2[e]/e^2, each in three random bases
    k = gf(2)
    f2 = ([[(1,)]], (1,))
    f4 = ([[(1, 0), (0, 1)], [(0, 1), (1, 1)]], (1, 0))     # a^2 = a + 1
    dual = ([[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0))   # e^2 = 0
    for blocks in ([f2, f2, f2], [f2, f4, dual]):
        for seed in range(3):
            alg, ends = _scrambled(k, blocks, seed)
            idempotents = kalgebra.split_local_components(alg)
            assert idempotents == split_by_minimal_polynomials(alg)
            assert sorted(idempotents) == sorted(ends)
    alg, _ = _scrambled(k, [f2, f4, dual], 0)
    assert sorted(kalgebra.local_components(alg)) == [
        (1, 1), (2, 1), (2, 2)]
    assert kalgebra.unit_count(alg) == 1 * 3 * 2


def test_a_linear_quotient_maps_match_the_slot_oracles():
    # every window of the pools, finite and infinity models
    seen = 0
    for ctx, p in _singular_cases():
        t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
        overorders = p_overorders(ctx, p).orders
        for quo, ring in _windows(ctx, p):
            for z in [t_el] + ring.basis_elements():
                assert quo.action_matrix(z) == slot_oracle.action_matrix(quo, z)
            assert quo.product_table() == slot_oracle.product_table(quo)
            for s in overorders:
                if quo.top.contains(s.ideal) and s.ideal.contains(quo.bottom):
                    assert quo.image(s.ideal) == klinalg.span_basis(
                        ctx.field, slot_oracle.image_vectors(quo, s.ideal))
            if quo.bottom != FracIdeal.unit_ideal(ctx):
                assert quo.algebra().one == slot_oracle.one_vector(quo)
            seen += 1
    assert seen == 138


def _mult_matrix_by_columns(alg, z):
    """Multiplication by z, column j the product z * b_j."""
    cols = [alg.mul(z, alg.basis_vector(j)) for j in range(alg.dim)]
    return [tuple(col[i] for col in cols) for i in range(alg.dim)]


def test_mult_matrix_matches_the_column_products():
    # S/pS (p_radical) and O/(S:O) (LatticeQuotient.algebra) for every
    # p-overorder S at every singular p of the oracle and three-branch
    # curves, finite and infinity models (21 of the 130 are the zero ring);
    # each basis vector and three seeded random elements
    rng = random.Random(0)
    seen = 0
    for q, fstr in ORACLE_CURVES + THREE_BRANCH_CURVES:
        finite = make_ctx(q, fstr)
        for ctx in (finite, P.infinity_context(finite)):
            for p in P.singular_primes(ctx):
                sat = P.p_saturation(ctx, p).ideal
                for s in p_overorders(ctx, p).orders:
                    for alg in (P.p_radical(s, p)[1],
                                LatticeQuotient(sat, s.ideal.colon(sat)).algebra()):
                        k = alg.k
                        zs = [alg.basis_vector(j) for j in range(alg.dim)]
                        zs += [tuple(rng.choice(k.elements()) for _ in range(alg.dim))
                               for _ in range(3)]
                        for z in zs:
                            assert alg.mult_matrix(z) == _mult_matrix_by_columns(alg, z)
                        seen += 1
    assert seen == 130


def _workload_argvs(name):
    """The argvs of one benchmark workload, read from perfbench."""
    return getattr(perfbench_workloads(), name)


def _count_radical_pullbacks(monkeypatch):
    """A list that grows by one for each lattice pulled back while a
    saturation runs: the radicals of its steps."""
    pulled = []
    real, code = LatticeQuotient.pullback, P._saturation.__wrapped__.__code__

    def pullback(self, fq_vectors):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is not None:
            pulled.append(self)
        return real(self, fq_vectors)

    monkeypatch.setattr(LatticeQuotient, "pullback", pullback)
    return pulled


def test_icm_window_pass_reads_local_structure(monkeypatch):
    # one in-process pass of the 9 icm_window jobs: the saturations stop at
    # the tame bound and take 15 colons (26 before), no local algebra is
    # split by minimal polynomials, O_K/pO_K is split once per (ctx, p),
    # and a radical is pulled back only for a colon, 10 of them (21 before)
    colons, built, splits = [], [], []
    real_colon, real_radical = FracIdeal.colon, P.p_radical
    real_split = kalgebra.split_local_components

    def colon(self, other):
        colons.append(1)
        return real_colon(self, other)

    def p_radical(order, p):
        quo, alg = real_radical(order, p)
        built.append(alg)
        return quo, alg

    def split(alg):
        splits.append(alg)
        return real_split(alg)

    def refuse(*args):
        raise AssertionError("minimal polynomial of a local algebra element")

    monkeypatch.setattr(FracIdeal, "colon", colon)
    monkeypatch.setattr(P, "p_radical", p_radical)
    monkeypatch.setattr(kalgebra, "split_local_components", split)
    monkeypatch.setattr(kalgebra.FiniteAlgebra, "minimal_polynomial", refuse)
    pulled = _count_radical_pullbacks(monkeypatch)
    for argv in _workload_argvs("ICM_WINDOW"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0
    assert len(colons) <= 15
    assert len(pulled) <= 10
    per_algebra = [sum(a is r for a in splits) for r in built]
    assert max(per_algebra) == 1 and sum(per_algebra) == 3


def test_icm_window_saturations_build_one_radical_and_no_colon(monkeypatch):
    # every singular p of the icm_window curves is p-regular, so each
    # saturation opens at Ore's order, which is O there, and builds S/pS
    # once to certify it
    from gekeler.context import AlgebraContext
    from gekeler.gf import gf_of_order
    from gekeler.parse import parse_bipoly
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
    seen = 0
    for argv in _workload_argvs("ICM_WINDOW"):   # one context per job
        field = gf_of_order(int(argv[2]))
        ctx = AlgebraContext(field, parse_bipoly(field, argv[4]))
        for p in P.singular_primes(ctx):
            calls.update(colon=0, p_radical=0)
            P._saturation(ctx, p)
            assert calls == {"colon": 0, "p_radical": 1}
            seen += 1
    assert seen == 10


def test_census_pass_pulls_back_no_radical(monkeypatch):
    # the census saturations all stop at the tame bound, so none of them
    # pulls its nilradical back to a lattice (one before)
    pulled = _count_radical_pullbacks(monkeypatch)
    for argv in _workload_argvs("CENSUS"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
    assert pulled == []
