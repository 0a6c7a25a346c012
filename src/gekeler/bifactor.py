"""Irreducibility and factor counts for f in A[x] monic in x.

The separable route reduces f modulo a few small primes p; where f mod p
stays irreducible, so does f.  Otherwise it lifts the squarefree
factorization with the fewest factors to precision p^K, lifted all
together, one power of p per step, then recombines lifted factors into
true divisors; the coefficient-degree bound r * deg_T(f) caps the
precision.  An inseparable f (df/dx = 0) is refused with
InseparableError.
"""

from functools import reduce
from itertools import combinations, islice

from .errors import InputError, InseparableError, InternalCheckError
from .fqpoly import FqPoly, monic_irreducibles
from .bipoly import BiPoly, resultant_x
from .residue import residue_field
from . import gpoly


def _lift_generic(field, R, coeffs):
    """Canonical lift of a generic (A/p)[x] polynomial to A[x]."""
    return BiPoly(field, [R.lift(c) for c in coeffs])


SCANNED_PRIMES = 8


def _squarefree_reductions(f):
    """(p, A/p, f mod p) for the primes p of A with f squarefree mod p,
    smallest degree first; the linear primes are tried lazily, so that a
    large q builds no sieve."""
    field = f.field
    cap = 2 * (f.deg_x + 1) * (f.max_coeff_degree() + 2)
    for d in range(1, cap):
        linear = (FqPoly(field, (c, 1)) for c in range(field.q))
        for p in linear if d == 1 else monic_irreducibles(field, d):
            R, fb = f.reduce_mod(p)
            der = gpoly.derivative(R, fb)
            if der and gpoly.deg(gpoly.gcd(R, fb, der)) == 0:
                yield p, R, fb


def _choose_hensel_prime(f, seed=0):
    """A prime p of A with f squarefree mod p, and the factors of f mod p.

    The factors mod the first SCANNED_PRIMES such p are counted by their
    distinct-degree parts.  The first p that keeps f irreducible ends the
    scan: f is monic in x, so by Gauss's lemma it is irreducible too.
    Otherwise f is factored mod the first p with the fewest factors.
    """
    best = None
    for p, R, fb in islice(_squarefree_reductions(f), SCANNED_PRIMES):
        count = sum(gpoly.deg(part) // d
                    for part, d in gpoly.distinct_degree(R, fb))
        if count == 1:
            return p, [fb]
        if best is None or count < best[0]:
            best = (count, p, R, fb)
    if best is None:  # pragma: no cover
        raise InternalCheckError("no squarefree reduction found")
    _, p, R, fb = best
    return p, [fac for fac, _ in gpoly.factor(R, fb, seed=seed)]


def _hensel_lift_list(f, p, target, local):
    """Lift the coprime monic factors l_i of f mod p in `local` to the
    monic factors L_i of f mod p^target, all together, one power of p
    per step.

    With F the product of the l_i and a_i = (F/l_i)^-1 mod l_i, the
    digit c of (f - prod L_i)/p^j in (A/p)[x] is the sum of the
    (a_i c mod l_i) F/l_i, so each L_i gains p^j (a_i c mod l_i).  The
    step at j = target only checks that p^target divides f - prod L_i.
    """
    field = f.field
    R = residue_field(p)
    prod_mod_p = reduce(lambda a, b: gpoly.mul(R, a, b), local)
    inverses = [gpoly.xgcd(R, gpoly.divmod_poly(R, prod_mod_p, l)[0], l)[1]
                for l in local]
    lifted = [_lift_generic(field, R, l) for l in local]
    power = p
    for j in range(1, target + 1):
        modulus = power * p
        prod = BiPoly.one(field)
        for fac in lifted:
            prod = (prod * fac).reduce_coeffs_mod(modulus)
        digit = []
        for c in (f - prod).reduce_coeffs_mod(modulus).coeffs:
            quot, rem = c.divmod(power)
            if rem:
                raise InternalCheckError("Hensel step lost divisibility")
            digit.append(R.project(quot))
        if j == target:
            return lifted
        for i, (a, l) in enumerate(zip(inverses, local)):
            step = gpoly.rem(R, gpoly.mul(R, a, digit), l)
            lifted[i] += BiPoly(field, [power * R.lift(d) for d in step])
        power = modulus


def factor_squarefree_bivariate(f, seed=0):
    """Irreducible monic-in-x factors of f, which must be squarefree over F.

    Subsets of the lifted factors are tried by size; a true factor's
    subset leaves the pool, and the size is kept, as a subset that
    divided no earlier cofactor divides no later one.
    """
    field = f.field
    p, local = _choose_hensel_prime(f, seed)
    if len(local) == 1:
        return [f]
    bound = f.deg_x * max(f.max_coeff_degree(), 0)
    target = bound // int(p.degree) + 1
    lifted = _hensel_lift_list(f, p, target, local)
    modulus = p ** target

    result, current, size = [], f, 1
    while 2 * size <= len(lifted):
        for subset in combinations(lifted, size):
            cand = BiPoly.one(field)
            for fac in subset:
                cand = (cand * fac).reduce_coeffs_mod(modulus)
            if cand.max_coeff_degree() > bound:
                continue
            quot, rem = current.divmod_monic(cand)
            if rem.is_zero():
                result.append(cand)
                current = quot
                lifted = [fac for fac in lifted if fac not in subset]
                break
        else:
            size += 1
    result.append(current)
    return result


def is_irreducible_bivariate(f, seed=0, res=None):
    """Irreducibility of f over F_q(T); f must be monic in x of degree >= 1
    and separable (InseparableError otherwise).  res is res_x(f, df/dx)
    when the caller already has it."""
    if f.deg_x < 1 or not f.is_monic_in_x():
        raise InputError("irreducibility test needs f monic in x, deg >= 1")
    fx = f.derivative_x()
    if fx.is_zero():
        raise InseparableError()
    if (resultant_x(f, fx) if res is None else res).is_zero():
        return False  # repeated factor
    return len(factor_squarefree_bivariate(f, seed=seed)) == 1


def count_irreducible_factors(f, seed=0):
    """Number of irreducible factors of a squarefree monic-in-x f."""
    return len(factor_squarefree_bivariate(f, seed=seed))
