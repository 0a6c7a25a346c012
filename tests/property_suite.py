"""Randomized ideal-calculus property checks shared with the acceptance gate.

Instances run over a deterministic pool of irreducible separable f with
rank <= 3 and q in {2, 3}; every check is seeded, so repeated runs test
identical instances.
"""

import random

from conftest import make_ctx
from gekeler.fqpoly import FqPoly
from gekeler.context import KElement
from gekeler.ideals import FracIdeal, Order
from gekeler import amatrix
from gekeler.primes import singular_primes
from gekeler.weakeq import local_icm, locally_weakly_equivalent
from test_ideals import mat_mul

CONTEXT_POOL = [
    (3, "x^2 - T^3"),
    (3, "x^2 - T"),
    (3, "x^2 - (T^2 + 1)"),
    (3, "x^3 - T*x - T^2"),
    (2, "x^2 + T*x + T"),
    (2, "x^3 - T^2"),
    (2, "x^3 - T^4"),
    (2, "x^2 + T*x + 1"),
]


def pool_context(rng):
    q, fstr = CONTEXT_POOL[rng.randrange(len(CONTEXT_POOL))]
    return make_ctx(q, fstr)


def rand_kelement(ctx, rng, maxdeg=2):
    F = ctx.field
    while True:
        num = tuple(FqPoly(F, [rng.randrange(F.q) for _ in range(maxdeg + 1)])
                    for _ in range(ctx.r))
        if any(not c.is_zero() for c in num):
            break
    T = FqPoly.gen(F)
    dens = [FqPoly.one(F), T, T + FqPoly.one(F)]
    return KElement(ctx, num, dens[rng.randrange(len(dens))])


def rand_ideal(ctx, rng):
    return FracIdeal.from_elements(ctx, [rand_kelement(ctx, rng)
                                         for _ in range(2)])


def rand_prime(ctx, rng):
    from gekeler.fqpoly import monic_irreducibles
    degree = 1 + (rng.random() < 0.25)
    primes = list(monic_irreducibles(ctx.field, degree))
    return primes[rng.randrange(len(primes))]


def check_colon_containment(ctx, rng):
    i = rand_ideal(ctx, rng)
    j = rand_ideal(ctx, rng)
    assert i.contains(i.colon(j) * j)


def check_index_multiplicativity(ctx, rng):
    big = rand_ideal(ctx, rng)
    z1 = rand_kelement(ctx, rng)
    z2 = rand_kelement(ctx, rng)
    mid = big.scale(z1).intersect(big)
    small = mid.scale(z2).intersect(mid)
    assert (big.index_in(mid) * mid.index_in(small)
            == big.index_in(small))


def check_hnf_canonicity(ctx, rng):
    F = ctx.field
    r = ctx.r

    def rand_poly(maxdeg):
        return FqPoly(F, [rng.randrange(F.q) for _ in range(maxdeg + 1)])

    while True:
        m = [[rand_poly(2) for _ in range(r)] for _ in range(r)]
        if not amatrix.det(m).is_zero():
            break
    u = amatrix.mat_identity(F, r)
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        c = rand_poly(1)
        for row in u:
            row[j] = row[j] + row[i] * c
        if rng.random() < 0.3:
            for row in u:
                row[i], row[j] = row[j], row[i]
    assert amatrix.hnf(mat_mul(m, u)) == amatrix.hnf(m)


def check_weak_equivalence_laws(ctx, rng):
    p = rand_prime(ctx, rng)
    base = Order.monogenic(ctx)
    pool = [rand_ideal(ctx, rng), rand_ideal(ctx, rng), base.ideal]
    z = rand_kelement(ctx, rng)
    pool.append(pool[0].scale(z))
    a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
    # reflexive, symmetric, transitive + scaling invariance
    assert locally_weakly_equivalent(a, a, p)
    ab = locally_weakly_equivalent(a, b, p)
    assert ab == locally_weakly_equivalent(b, a, p)
    if ab and locally_weakly_equivalent(b, c, p):
        assert locally_weakly_equivalent(a, c, p)
    assert locally_weakly_equivalent(a, a.scale(z), p)


def check_regular_prime_trivial_icm(ctx, rng):
    p = rand_prime(ctx, rng)
    if p in singular_primes(ctx):
        assert local_icm(ctx, p).m_p >= 2
    else:
        assert local_icm(ctx, p).m_p == 1


CHECKS = [
    (check_colon_containment, 150),
    (check_index_multiplicativity, 100),
    (check_hnf_canonicity, 100),
    (check_weak_equivalence_laws, 100),
    (check_regular_prime_trivial_icm, 50),
]


def run_property_suite(total=500, seed=20240):
    rng = random.Random(seed)
    weight = sum(n for _, n in CHECKS)
    executed = 0
    for check, share in CHECKS:
        n = max(1, round(total * share / weight))
        for _ in range(n):
            ctx = pool_context(rng)
            check(ctx, rng)
            executed += 1
    return executed
