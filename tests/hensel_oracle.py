"""The quadratic two-factor Hensel lift, its halving tree and the
recombination loop that restarts at subsets of size 1, kept as an
oracle: bifactor lifts every factor at once, one power of p per step,
and keeps the subset size after each true factor; both must give the
same lifts and the same factor lists."""

from itertools import combinations

from gekeler.bifactor import _choose_hensel_prime, _lift_generic
from gekeler.bipoly import BiPoly
from gekeler.errors import InternalCheckError
from gekeler.residue import residue_field
from gekeler import gpoly


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
    R = residue_field(p)

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
    p, local = _choose_hensel_prime(f, seed)
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
