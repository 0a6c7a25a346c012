"""Irreducibility and factor counts for f in A[x] monic in x.

The separable route lifts a squarefree factorization of f mod p to
precision p^K with quadratic Hensel steps, then recombines lifted factors
into true divisors; the coefficient-degree bound r * deg_T(f) caps the
precision.  The inseparable case peels Frobenius: f(x) = g(x^p) is
irreducible iff g is irreducible and not every coefficient of g is a p-th
power in F_q(T).
"""

from itertools import combinations

from .errors import InputError, InternalCheckError
from .fqpoly import FqPoly, monic_irreducibles
from .bipoly import BiPoly
from .residue import ResidueField
from . import gpoly


def _lift_generic(field, R, coeffs):
    """Canonical lift of a generic (A/p)[x] polynomial to A[x]."""
    return BiPoly(field, [R.lift(c) for c in coeffs])


def _choose_hensel_prime(f):
    """Smallest monic irreducible p with f squarefree mod p; the linear
    primes are tried lazily, so that a large q builds no sieve."""
    field = f.field
    cap = 2 * (f.deg_x + 1) * (f.max_coeff_degree() + 2)
    for d in range(1, cap):
        linear = (FqPoly(field, (c, 1)) for c in range(field.q))
        for p in linear if d == 1 else monic_irreducibles(field, d):
            R, fb = f.reduce_mod(p)
            der = gpoly.derivative(R, fb)
            if der and gpoly.deg(gpoly.gcd(R, fb, der)) == 0:
                return p
    raise InternalCheckError("no squarefree reduction found")  # pragma: no cover


def _hensel_pair(f, g, h, u, v, p, target):
    """Lift f = g*h (with u*g + v*h = 1) from mod p to mod p^target.

    f, g, h, u, v are BiPoly with coefficients already reduced; g, h are
    monic in x.  Returns (g, h) mod p^target.
    """
    prec = 1
    modulus = p
    while prec < target:
        prec = min(2 * prec, target)
        modulus = p ** prec
        red = lambda b: b.reduce_coeffs_mod(modulus)
        e = red(f - g * h)
        # dg = (v*e) mod g;  dh = (e - h*dg) / g
        _, dg = red(v * e).divmod_monic(g)
        dg = red(dg)
        num = red(e - h * dg)
        dh, rem0 = num.divmod_monic(g)
        dh = red(dh)
        if not red(rem0).is_zero():  # pragma: no cover
            raise InternalCheckError("Hensel step lost divisibility")
        g = red(g + dg)
        h = red(h + dh)
        # refresh the Bezout pair
        b = red(u * g + v * h - BiPoly.one(f.field))
        s = red(u - u * b)
        t = red(v - v * b)
        _, u = red(s).divmod_monic(h)
        u = red(u)
        num = red(BiPoly.one(f.field) - u * g)
        v, rem1 = num.divmod_monic(h)
        v = red(v)
        if not red(rem1).is_zero():  # pragma: no cover
            raise InternalCheckError("Hensel Bezout step failed")
    return g, h


def _hensel_lift_list(f, p, target, local):
    """Lift the coprime monic factorization `local` of f mod p to mod p^target."""
    if len(local) == 1:
        return [f.reduce_coeffs_mod(p ** target)]
    field = f.field
    mid = len(local) // 2
    left, right = local[:mid], local[mid:]
    R = ResidueField(p, check=False)

    def prod_mod_p(parts):
        acc = [R.one()]
        for part in parts:
            acc = gpoly.mul(R, acc, part)
        return acc

    g0 = prod_mod_p(left)
    h0 = prod_mod_p(right)
    dd, uu, vv = gpoly.xgcd(R, g0, h0)
    if gpoly.deg(dd) != 0:  # pragma: no cover - factors are coprime
        raise InternalCheckError("Hensel halves not coprime")
    g, h = _hensel_pair(
        f.reduce_coeffs_mod(p ** target),
        _lift_generic(field, R, g0), _lift_generic(field, R, h0),
        _lift_generic(field, R, uu), _lift_generic(field, R, vv),
        p, target)
    return (_hensel_lift_list(g, p, target, left)
            + _hensel_lift_list(h, p, target, right))


def factor_squarefree_bivariate(f, seed=0):
    """Irreducible monic-in-x factors of f, which must be squarefree over F."""
    if f.deg_x == 1:
        return [f]
    field = f.field
    p = _choose_hensel_prime(f)
    R, fb = f.reduce_mod(p)
    local = [fac for fac, _ in gpoly.factor(R, fb, seed=seed)]
    if len(local) == 1:
        return [f]
    bound = f.deg_x * max(f.max_coeff_degree(), 0)
    target = bound // int(p.degree) + 1
    lifted = _hensel_lift_list(f, p, target, local)
    modulus = p ** target

    result = []
    remaining = list(range(len(lifted)))
    current = f
    found = True
    while found and len(remaining) > 1:
        found = False
        for size in range(1, len(remaining) // 2 + 1):
            for subset in combinations(remaining, size):
                cand = BiPoly.one(field)
                for idx in subset:
                    cand = (cand * lifted[idx]).reduce_coeffs_mod(modulus)
                if cand.max_coeff_degree() > bound:
                    continue
                quot, rem = current.divmod_monic(cand)
                if rem.is_zero():
                    result.append(cand)
                    current = quot
                    remaining = [i for i in remaining if i not in subset]
                    found = True
                    break
            if found:
                break
    result.append(current)
    return result


def _coeffs_are_pth_powers(f):
    """True iff every coefficient of f lies in F_q[T^p] (p = char)."""
    p = f.field.p
    for c in f.coeffs:
        for j, cj in enumerate(c.coeffs):
            if cj and j % p != 0:
                return False
    return True


def _frobenius_descent(f):
    """Write f(x) = g(x^p) and return g; requires df/dx = 0."""
    p = f.field.p
    out = []
    for i in range(0, f.deg_x + 1, p):
        out.append(f.coeff(i))
    return BiPoly(f.field, out)


def is_irreducible_bivariate(f, seed=0):
    """Irreducibility of f over F_q(T); f must be monic in x of degree >= 1."""
    if f.deg_x < 1 or not f.is_monic_in_x():
        raise InputError("irreducibility test needs f monic in x, deg >= 1")
    if f.deg_x == 1:
        return True
    fx = f.derivative_x()
    if fx.is_zero():
        g = _frobenius_descent(f)
        return is_irreducible_bivariate(g, seed=seed) and not _coeffs_are_pth_powers(g)
    # separable-or-repeated-factor branch
    from .bipoly import resultant_x
    if resultant_x(f, fx).is_zero():
        return False  # repeated factor
    return len(factor_squarefree_bivariate(f, seed=seed)) == 1


def count_irreducible_factors(f, seed=0):
    """Number of irreducible factors of a squarefree monic-in-x f."""
    fx = f.derivative_x()
    from .bipoly import resultant_x
    if fx.is_zero() or resultant_x(f, fx).is_zero():
        raise InputError("factor counting requires squarefree f")
    return len(factor_squarefree_bivariate(f, seed=seed))
