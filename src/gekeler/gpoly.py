"""Dense polynomial arithmetic, and factorization over a finite field.

This is the one polynomial kernel of the package: fqpoly.FqPoly, the
residue fields A/p, the moduli of GF(p^e), A[x] as bipoly.BiPoly and
multiplication in K = Frac(A[x]/f) all run on it.  Polynomials are tuples
of element values of a ring object with the element protocol
zero/one/add/sub/neg/mul (plus char and from_int for the derivative), by
increasing degree with no trailing zeros; inputs may be lists or tuples,
and every polynomial returned is such a normalised tuple.  The ring may be
a field following the gf.GF protocol (GF itself, or residue.ResidueField)
or A = F_q[T] itself (fqpoly.poly_ring); inv is needed only to divide by
a non-monic divisor, and the gcd, factorization and field-order routines
need a field.  Factorization is squarefree decomposition, then
distinct-degree splitting, then equal-degree splitting; the equal-degree
stage draws candidates from a seeded PRNG so every run is reproducible.
"""

import random

from .errors import InputError


def normalize(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n]) if n < len(c) else tuple(c)


def deg(c):
    return len(c) - 1


def add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return normalize(out)


def neg(F, a):
    return tuple([F.neg(x) for x in a])


def sub(F, a, b):
    out = list(a) + [F.zero()] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = F.sub(out[i], x)
    return normalize(out)


def mul(F, a, b):
    if not a or not b:
        return ()
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return normalize(out)


def scale(F, a, c):
    if not c:
        return ()
    return normalize([F.mul(x, c) for x in a])


def divmod_poly(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), normalize(a)
    rem = list(a)
    inv_lead = None if b[-1] == F.one() else F.inv(b[-1])
    quot = [F.zero()] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        if inv_lead is not None:
            c = F.mul(c, inv_lead)
        quot[i - db] = c
        for j, y in enumerate(b):
            if y:
                rem[i - db + j] = F.sub(rem[i - db + j], F.mul(c, y))
    return normalize(quot), normalize(rem)


def rem(F, a, b):
    return divmod_poly(F, a, b)[1]


def monic(F, a):
    if not a or a[-1] == F.one():
        return normalize(a)
    return scale(F, a, F.inv(a[-1]))


def gcd(F, a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, rem(F, a, b)
    return monic(F, a)


def xgcd(F, a, b):
    """Extended gcd: (g, u, v) with g = u*a + v*b, g monic or zero."""
    r0, r1 = normalize(a), normalize(b)
    s0, s1 = (F.one(),), ()
    t0, t1 = (), (F.one(),)
    while r1:
        q, r = divmod_poly(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
        t0, t1 = t1, sub(F, t0, mul(F, q, t1))
    if not r0:
        return r0, s0, t0
    c = F.inv(r0[-1])
    return scale(F, r0, c), scale(F, s0, c), scale(F, t0, c)


def powmod(F, base, n, modulus):
    out = (F.one(),)
    base = rem(F, base, modulus)
    while n:
        if n & 1:
            out = rem(F, mul(F, out, base), modulus)
        base = rem(F, mul(F, base, base), modulus)
        n >>= 1
    return out


def derivative(F, a):
    p = F.char
    out = []
    for i in range(1, len(a)):
        k = i % p
        out.append(F.mul(F.from_int(k), a[i]) if k else F.zero())
    return normalize(out)


def eval_poly(F, a, x):
    out = F.zero()
    for c in reversed(a):
        out = F.add(F.mul(out, x), c)
    return out


def prime_divisors(n):
    """Distinct prime divisors of an integer n >= 1, increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def elt_key(c):
    """Sort key of a field element: an int, or a residue coefficient tuple."""
    return c if isinstance(c, int) else (len(c), c)


def _pth_root_poly(F, a):
    """Inverse Frobenius on coefficients of a polynomial in x^p."""
    p = F.char
    root_exp = F.order // p
    out = []
    for i in range(0, len(a), p):
        out.append(F.pow(a[i], root_exp))
    return normalize(out)


def squarefree_decomposition(F, f):
    """f monic nonconstant -> list of (squarefree monic part, multiplicity)."""
    out = {}

    def accumulate(g, m):
        out[g] = out.get(g, 0) + m

    def walk(f, mult):
        fp = derivative(F, f)
        if not fp:
            walk(_pth_root_poly(F, f), mult * F.char)
            return
        c = gcd(F, f, fp)
        w = divmod_poly(F, f, c)[0]
        i = 1
        while deg(w) > 0:
            y = gcd(F, w, c)
            fac = divmod_poly(F, w, y)[0]
            if deg(fac) > 0:
                accumulate(fac, mult * i)
            w = y
            c = divmod_poly(F, c, y)[0]
            i += 1
        if deg(c) > 0:
            walk(_pth_root_poly(F, c), mult * F.char)

    walk(monic(F, f), 1)
    return list(out.items())


def distinct_degree(F, f):
    """Squarefree monic f -> list of (product of irreducibles of degree d, d)."""
    q = F.order
    out = []
    x = (F.zero(), F.one())
    h = x
    d = 0
    while deg(f) >= 1:
        d += 1
        if 2 * d > deg(f):
            out.append((f, deg(f)))
            break
        h = powmod(F, h, q, f)
        g = gcd(F, f, sub(F, h, x))
        if deg(g) > 0:
            out.append((g, d))
            f = divmod_poly(F, f, g)[0]
            h = rem(F, h, f)
    return out


def _random_poly(F, max_deg, rng):
    return normalize([F.element(rng.randrange(F.order))
                      for _ in range(max_deg + 1)])


def equal_degree(F, f, d, rng):
    """Split squarefree monic f, all of whose factors have degree d."""
    n = deg(f)
    if n == d:
        return [f]
    q = F.order
    while True:
        r = _random_poly(F, n - 1, rng)
        if deg(r) < 1:
            continue
        g = gcd(F, f, r)
        if 0 < deg(g) < n:
            break
        if q % 2 == 1:
            s = powmod(F, r, (q ** d - 1) // 2, f)
            g = gcd(F, f, sub(F, s, (F.one(),)))
        else:
            # trace map for characteristic 2
            k = d * (q.bit_length() - 1)
            s = r
            acc = r
            for _ in range(k - 1):
                acc = powmod(F, acc, 2, f)
                s = add(F, s, acc)
            g = gcd(F, f, s)
        if 0 < deg(g) < n:
            break
    h = divmod_poly(F, f, g)[0]
    return equal_degree(F, g, d, rng) + equal_degree(F, h, d, rng)


def factor(F, f, seed=0):
    """Full factorization of a nonzero polynomial over F.

    Returns a list of (monic irreducible coeff list, multiplicity) sorted
    by (degree, coefficient encoding) so output order is reproducible.
    """
    f = normalize(f)
    if not f:
        raise InputError("cannot factor the zero polynomial")
    if deg(f) == 0:
        return []
    rng = random.Random(seed)
    result = []
    for sqf, m in squarefree_decomposition(F, f):
        for prod, d in distinct_degree(F, sqf):
            for irr in equal_degree(F, prod, d, rng):
                result.append((list(monic(F, irr)), m))
    result.sort(key=lambda t: (len(t[0]), [elt_key(c) for c in reversed(t[0])]))
    return result


def is_irreducible(F, f):
    """Rabin test: f of degree n is irreducible iff x^(q^n) = x mod f and
    gcd(x^(q^(n/l)) - x, f) = 1 for every prime l | n."""
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    q = F.order
    x = (F.zero(), F.one())
    if powmod(F, x, q ** n, f) != rem(F, x, f):
        return False
    for ell in prime_divisors(n):
        h = sub(F, powmod(F, x, q ** (n // ell), f), x)
        if deg(gcd(F, f, h)) > 0:
            return False
    return True
