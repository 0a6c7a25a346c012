"""Microbenchmarks of the arithmetic layers, reported as operations per second.

Each benchmark times its operation in a loop of about ``SLICE_S`` seconds,
three times, and keeps the median rate.  Inputs come from a seeded
generator; each result is checked once against an identity it must
satisfy, so a broken kernel cannot report a rate.
"""

import random
import statistics
import time

SLICE_S = 0.08
REPEATS = 3


def _rate(op, arg_list):
    """Median calls per second of op over cycles of arg_list."""
    rates = []
    n_args = len(arg_list)
    for _ in range(REPEATS):
        n = 0
        t0 = time.perf_counter()
        while True:
            for args in arg_list:
                op(*args)
            n += n_args
            elapsed = time.perf_counter() - t0
            if elapsed >= SLICE_S:
                break
        rates.append(n / elapsed)
    return statistics.median(rates)


def _rand_poly(rng, FqPoly, F, deg):
    coeffs = [rng.randrange(F.q) for _ in range(deg)] + [rng.randrange(1, F.q)]
    return FqPoly(F, coeffs)


def run(seed):
    """Returns ({metric name: ops per second}, list of failed checks)."""
    from gekeler import gf
    from gekeler.amatrix import det, hnf, is_hnf
    from gekeler.context import AlgebraContext
    from gekeler.fqpoly import FqPoly, monic_irreducibles
    from gekeler.ideals import FracIdeal, Order
    from gekeler.klinalg import rref
    from gekeler.parse import parse_bipoly
    from gekeler.primes import kummer_dedekind
    from gekeler.residue import ResidueField

    rng = random.Random(f"micro:{seed}")
    rates = {}
    bad = []

    for q, e in ((3, 1), (9, 2)):
        F = gf(3, e)
        for d in (4, 16, 64):
            pairs = [(_rand_poly(rng, FqPoly, F, d),
                      _rand_poly(rng, FqPoly, F, d)) for _ in range(8)]
            divs = [(a * b + _rand_poly(rng, FqPoly, F, d - 1), b)
                    for a, b in pairs]
            quot, rem = divs[0][0].divmod(divs[0][1])
            if quot * divs[0][1] + rem != divs[0][0] or rem.degree >= d:
                bad.append(f"fqpoly.divmod q{q} d{d}")
            rates[f"fqpoly.mul.q{q}_d{d}.ops_s"] = _rate(
                lambda a, b: a * b, pairs)
            rates[f"fqpoly.divmod.q{q}_d{d}.ops_s"] = _rate(
                lambda a, b: a.divmod(b), divs)

    F9 = gf(3, 2)
    elems = [(rng.randrange(9), rng.randrange(9)) for _ in range(64)]
    if any(F9.mul(a, F9.one()) != a for a, _ in elems):
        bad.append("gf.mul q9")
    rates["gf.mul.q9.ops_s"] = _rate(F9.mul, elems)

    F3 = gf(3)
    k = ResidueField(next(monic_irreducibles(F3, 4)))
    units = []
    while len(units) < 16:
        a = tuple(rng.randrange(3) for _ in range(4))
        a = k.project(FqPoly(F3, a))
        if a:
            units.append((a,))
    if k.mul(units[0][0], k.inv(units[0][0])) != k.one():
        bad.append("residue.inv d4")
    rates["residue.inv.d4.ops_s"] = _rate(k.inv, units)

    mats = []
    while len(mats) < 4:
        m = [[_rand_poly(rng, FqPoly, F3, rng.randrange(4)) for _ in range(4)]
             for _ in range(4)]
        if not det(m).is_zero():
            mats.append(m)
    if not is_hnf(hnf([row[:] for row in mats[0]])):
        bad.append("amatrix.hnf n4")
    rates["amatrix.hnf.n4.ops_s"] = _rate(
        lambda m: hnf([row[:] for row in m]), [(m,) for m in mats])

    for r in (2, 4):
        ctx = AlgebraContext(F3, parse_bipoly(F3, f"x^{r} - T^3"))
        base = Order.monogenic(ctx)
        prime = kummer_dedekind(base, FqPoly.gen(F3)).primes[0].ideal
        unit = FracIdeal.unit_ideal(ctx)
        if not unit.colon(prime).contains(unit):
            bad.append(f"ideals.colon r{r}")
        rates[f"ideals.colon.r{r}.ops_s"] = _rate(
            lambda i, j: i.colon(j), [(unit, prime), (prime, prime)])

    rows8 = [[tuple(rng.randrange(3) for _ in range(8)) for _ in range(8)]
             for _ in range(4)]
    basis, pivots = rref(F3, rows8[0])
    if len(basis) != len(pivots) or any(basis[i][c] != 1
                                        for i, c in enumerate(pivots)):
        bad.append("klinalg.rref n8")
    rates["klinalg.rref.n8.ops_s"] = _rate(lambda m: rref(F3, m),
                                           [(m,) for m in rows8])
    return rates, bad


METRICS = ([f"fqpoly.{op}.q{q}_d{d}.ops_s" for q in (3, 9) for d in (4, 16, 64)
            for op in ("mul", "divmod")]
           + ["gf.mul.q9.ops_s", "residue.inv.d4.ops_s", "amatrix.hnf.n4.ops_s",
              "ideals.colon.r2.ops_s", "ideals.colon.r4.ops_s",
              "klinalg.rref.n8.ops_s"])
