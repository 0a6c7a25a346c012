"""The per-prime census, kept as the oracle of primes.type_counts.

It lists every prime of a degree with the sieve, finds a root of each in
E = GF(q^D) from a table of the Frobenius orbits and their minimal
polynomials, and reads the splitting type of each prime not dividing
disc(f) from the distinct-degree pattern of f(alpha, x) over E; where E
is too large to tabulate, f is reduced into A/p.  The primes of disc(f)
are found by the sieve too, and typed by a reference the caller passes.
The table is built once per field and degree.
"""

from collections import Counter

from gekeler import gpoly
from gekeler.fqpoly import monic_irreducibles
from gekeler.gf import embedding, fits_table, gf
from gekeler.primes import discriminant_of_f

_ROOT_TABLES = {}


def root_table(field, degree):
    """(E, F_q -> E, {coefficients of p: a root of p in E}) over the monic
    irreducibles p of the given degree, with E = GF(q^degree).

    The primes of degree D are the Frobenius orbits of size D in E^x: on
    the logs k of the powers g^k of E's generator, x -> x^q is k -> kq mod
    q^D - 1.  The minimal polynomial of each such orbit, a product over E,
    has its coefficients in the image of F_q and is read back through the
    inverse of the embedding; its root is g^k for the least k of the orbit.
    """
    if (field, degree) in _ROOT_TABLES:
        return _ROOT_TABLES[field, degree]
    big = gf(field.p, field.e * degree)
    emb = embedding(field, big)
    back = {emb(a): a for a in field.elements()}
    q, n = field.q, big.q - 1
    seen = bytearray(n)
    roots = {}
    for k in range(1, n):
        if seen[k]:
            continue
        orbit = [k]
        j = k * q % n
        while j != k:
            orbit.append(j)
            j = j * q % n
        for j in orbit:
            seen[j] = 1
        if len(orbit) != degree:
            continue
        poly = [1]
        for j in orbit:   # poly * (x - g^j), coefficients by increasing degree
            c = big.neg(big.gen_power(j))
            poly = [big.add(a, big.mul(c, b))
                    for a, b in zip([0] + poly, poly + [0])]
        roots[tuple(back[c] for c in poly)] = big.gen_power(k)
    _ROOT_TABLES[field, degree] = (big, emb, roots)
    return _ROOT_TABLES[field, degree]


def reduce_at_root(ctx, p):
    """f mod p over a field isomorphic to A/p, as (field, coefficients):
    f(alpha, x) for a root alpha of p, in F_q when deg p = 1 and in
    GF(q^deg p) when it can be tabulated; otherwise f reduced into A/p."""
    field = ctx.field
    degree = len(p.coeffs) - 1
    if degree == 1:
        alpha = field.neg(p.coeffs[0])
        return field, [gpoly.eval_poly(field, c.coeffs, alpha) for c in ctx.f.coeffs]
    if not fits_table(field.q ** degree):
        return ctx.f.reduce_mod(p)
    big, emb, roots = root_table(field, degree)
    alpha = roots[p.coeffs]
    return big, [gpoly.eval_poly(big, [emb(a) for a in c.coeffs], alpha)
                 for c in ctx.f.coeffs]


def pattern(k, fbar):
    """Sorted (e, f) pairs of the squarefree reduction fbar over k."""
    return tuple(sorted((1, d) for g, d in gpoly.distinct_degree(k, fbar)
                        for _ in range(gpoly.deg(g) // d)))


def census_type_counts(ctx, degree, disc_type):
    """Counter of the splitting types of every prime of the given degree,
    one prime at a time: the pattern of f(alpha, x) at a prime not
    dividing disc(f), and disc_type(ctx, p) at a prime of disc(f)."""
    disc = discriminant_of_f(ctx)
    return Counter(disc_type(ctx, p) if (disc % p).is_zero()
                   else pattern(*reduce_at_root(ctx, p))
                   for p in monic_irreducibles(ctx.field, degree))


def hensel_constant_field_degree(ctx):
    """m by factor counts alone: the largest divisor i of r at which f has
    i irreducible factors over F_{q^i}(T)."""
    from gekeler.bifactor import count_irreducible_factors
    field = ctx.field
    for i in range(ctx.r, 1, -1):
        if ctx.r % i:
            continue
        big = gf(field.p, field.e * i)
        fi = ctx.f.map_coefficients(embedding(field, big), big)
        if count_irreducible_factors(fi, seed=ctx.seed) == i:
            return i
    return 1
