import itertools
import random

import pytest

from conftest import ORACLE_CURVES, THREE_BRANCH_CURVES, make_ctx
from gorenstein_oracle import is_gorenstein
from ring_oracle import is_order_lattice
from gekeler import klinalg
from gekeler.gf import gf_of_order
from gekeler.fqpoly import FqPoly, monic_irreducibles
from gekeler.context import KElement
from gekeler.ideals import Order
from gekeler.primes import maximal_order, singular_primes
from gekeler.overorders import p_overorders, p_saturation
from gekeler.quotient import LatticeQuotient, invariant_subspaces
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
        assert is_order_lattice(s.ideal)
        assert s.ideal.contains(R.ideal)
        assert sat.ideal.contains(s.ideal)
        idx = s.ideal.index_in(R.ideal)
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
    with pytest.raises(InseparableError):
        AlgebraContext(F, parse_bipoly(F, "x^3 - T"))


def test_subspace_count_of_trivial_module_is_q_plus_3():
    # (A/p)^2 with trivial action: candidate count is q + 3
    for q in (2, 3, 4, 9):
        field = gf_of_order(q)
        zero_mat = [tuple(0 for _ in range(2)) for _ in range(2)]
        subs = invariant_subspaces(field, [zero_mat], zero_mat)
        assert len(subs) == q + 3


def test_nilpotent_jordan_block_has_a_chain_of_subspaces():
    # a 3x3 nilpotent Jordan block over F_9 leaves exactly 0, ker N,
    # ker N^2 and the whole space invariant
    field = gf_of_order(9)
    jordan = [(0, 1, 0), (0, 0, 1), (0, 0, 0)]
    subs = invariant_subspaces(field, [jordan], jordan)
    assert subs == [(), ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)),
                    ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def test_rank3_overorders_match_numerical_semigroups():
    # for x^3 - T^4 over F_2 (T = u^3, pi = u^4) the overorders correspond to
    # the numerical semigroups containing <3,4>: <3,4>, <3,4,5>, <2,3>, <1>
    ctx = make_ctx(2, "x^3 - T^4")
    T = FqPoly.gen(ctx.field)
    out = p_overorders(ctx, T)
    indexes = sorted(maximal_order(ctx).ideal.index_in(s.ideal).to_str()
                     for s in out.orders)
    # gaps of the semigroups: 3, 2, 1, 0 -> indexes T^3, T^2, T, 1
    assert indexes == ["1", "T", "T^2", "T^3"]


# -- the line sweep with atom joins, as the reference for the walk ----------

def _line_vectors(field, dim):
    """One nonzero vector per line of F_q^dim: the last nonzero coordinate
    is 1."""
    elems = list(field.elements())
    for k in range(dim):
        tail = (field.one(),) + (field.zero(),) * (dim - 1 - k)
        for head in itertools.product(elems, repeat=k):
            yield head + tail


def _closure(field, mats, vec):
    """Smallest invariant subspace containing vec."""
    basis, pivots = klinalg.rref(field, [vec])
    changed = True
    while changed:
        changed = False
        for m in mats:
            for v in list(basis):
                w = klinalg.matmul_vec(field, m, v)
                if not klinalg.in_span(field, basis, pivots, w):
                    basis, pivots = klinalg.rref(field, list(basis) + [w])
                    changed = True
    return basis, pivots


def _oracle_invariant_subspaces(field, dim, mats):
    """All subspaces of F_q^dim invariant under the given matrices.

    Every invariant subspace is a sum of cyclic ones, so the closures of
    the single vectors are computed once (the atoms; v and c*v have the
    same closure, so one vector per line) and the lattice they
    generate is explored by joins, which stay invariant without further
    closing.  Returns RREF row tuples sorted by (dimension, encoding).
    """
    atoms = {}
    for vec in _line_vectors(field, dim):
        basis, pivots = _closure(field, mats, vec)
        atoms.setdefault(tuple(basis), pivots)
    seen = {(): ()}
    frontier = [((), ())]
    while frontier:
        basis, pivots = frontier.pop()
        for atom_basis in atoms:
            if all(klinalg.in_span(field, basis, pivots, v)
                   for v in atom_basis):
                continue
            nb, np_ = klinalg.rref(field, list(basis) + list(atom_basis))
            key = tuple(nb)
            if key not in seen:
                seen[key] = tuple(np_)
                frontier.append((nb, np_))
    return sorted(seen, key=lambda s: (len(s), s))


def _block_diagonal(field, blocks):
    dim = sum(len(b) for b in blocks)
    out, at = [], 0
    for b in blocks:
        for row in b:
            out.append((field.zero(),) * at + tuple(row)
                       + (field.zero(),) * (dim - at - len(b)))
        at += len(b)
    return out


def _inverse(field, m):
    n = len(m)
    eye = [tuple(field.one() if i == j else field.zero() for j in range(n))
           for i in range(n)]
    rows, pivots = klinalg.rref(field, [m[i] + eye[i] for i in range(n)])
    if pivots[-1] >= n:
        return None
    return [row[n:] for row in rows]


def _commuting_pair(field, dim, rng):
    """(N, S): N nilpotent and commuting with S, block-diagonal up to a
    random change of basis.  A scalar block of S carries a random strictly
    upper-triangular block of N; the companion block of an irreducible
    carries a zero block."""
    elems = list(field.elements())
    n_blocks, s_blocks, left = [], [], dim
    while left:
        b = rng.randint(1, left)
        left -= b
        if b > 1 and rng.random() < 0.4:
            g = rng.choice(list(monic_irreducibles(field, b)))
            s_blocks.append([tuple(field.one() if i == j + 1 else field.zero()
                                   for j in range(b - 1))
                             + (field.neg(g[i]),) for i in range(b)])
            n_blocks.append([(field.zero(),) * b] * b)
        else:
            lam = rng.choice(elems)
            s_blocks.append([tuple(lam if i == j else field.zero()
                                   for j in range(b)) for i in range(b)])
            n_blocks.append([tuple(rng.choice(elems) if j > i else field.zero()
                                   for j in range(b)) for i in range(b)])
    while True:
        p = [tuple(rng.choice(elems) for _ in range(dim)) for _ in range(dim)]
        p_inv = _inverse(field, p)
        if p_inv is not None:
            break

    def conj(m):
        return klinalg.matmul(field, klinalg.matmul(field, p, m), p_inv)

    return (conj(_block_diagonal(field, n_blocks)),
            conj(_block_diagonal(field, s_blocks)))


def test_walk_matches_line_sweep_on_random_commuting_pairs():
    rng = random.Random(20240611)
    for q, max_dim in ((2, 6), (3, 6), (4, 4), (9, 3)):
        field = gf_of_order(q)
        for dim in range(1, max_dim + 1):
            for _ in range(3):
                n, s = _commuting_pair(field, dim, rng)
                assert (invariant_subspaces(field, [n, s], n)
                        == _oracle_invariant_subspaces(field, dim, [n, s]))


def _pipeline_quotients(ctx, p):
    """(quotient, acting order) of every enumeration at p: O/R, then the
    window O/(S:O) of each non-Gorenstein p-overorder S."""
    R = Order.monogenic(ctx)
    sat = p_saturation(ctx, p).ideal
    yield LatticeQuotient(sat, R.ideal), R
    for s in p_overorders(ctx, p).orders:
        if not is_gorenstein(s):
            yield LatticeQuotient(sat, s.ideal.colon(sat)), s


@pytest.mark.parametrize("q,fstr", ORACLE_CURVES)
def test_walk_matches_line_sweep_on_pipeline_quotients(q, fstr):
    # nil is taken as in the pipeline: the action of p, nilpotent as
    # [top:bottom] is a power of p
    ctx = make_ctx(q, fstr)
    t_el = KElement.from_fqpoly(ctx, FqPoly.gen(ctx.field))
    for p in singular_primes(ctx):
        for quo, ring in _pipeline_quotients(ctx, p):
            index = quo.top.index_in(quo.bottom)
            assert index == p ** v_p(index, p)
            mats = [quo.action_matrix(z)
                    for z in [t_el] + ring.basis_elements()]
            nil = quo.action_matrix(KElement.from_fqpoly(ctx, p))
            assert (invariant_subspaces(ctx.field, mats, nil)
                    == _oracle_invariant_subspaces(ctx.field, quo.dim, mats))


def test_covolume_is_the_degree_of_the_index():
    # deg [S:R] = -S.covolume(), read off the HNF diagonal, at every
    # p-overorder S
    seen = 0
    for q, fstr in ORACLE_CURVES + THREE_BRANCH_CURVES:
        ctx = make_ctx(q, fstr)
        base = Order.monogenic(ctx).ideal
        assert base.covolume() == 0
        for p in singular_primes(ctx):
            for s in p_overorders(ctx, p).orders:
                assert -s.ideal.covolume() == int(s.ideal.index_in(base).degree)
                seen += 1
    assert seen > 20
