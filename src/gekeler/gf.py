"""Finite fields F_q with q = p^e.

Elements are plain ints in [0, q).  For e = 1 the int is the residue mod p.
For e > 1 the base-p digits of the int are the coordinates of the element
with respect to the power basis of a fixed degree-e modulus over F_p; the
modulus is the first monic irreducible of degree e in the integer-encoding
order, so serialized elements are reproducible across runs.

Multiplication for e > 1 goes through discrete log/exp tables, which is
plenty at the field sizes this package ever touches.
"""

from .errors import InputError, InternalCheckError
from . import gpoly

_FIELD_CACHE = {}


def _is_prime(n):
    return gpoly.prime_divisors(n) == [n]


class GF:
    """The finite field with p**e elements; element values are ints."""

    def __init__(self, p, e=1):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        if e < 1:
            raise InputError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        self.char = p
        self.order = self.q
        self.modulus = self._least_irreducible_modulus() if e > 1 else (0, 1)
        if e > 1:
            self._build_tables()

    # -- construction helpers -------------------------------------------

    def _poly_digits(self, n, length):
        out = []
        for _ in range(length):
            out.append(n % self.p)
            n //= self.p
        return out

    def _least_irreducible_modulus(self):
        Fp = gf(self.p)
        for low in range(self.p ** self.e):
            m = tuple(self._poly_digits(low, self.e)) + (1,)
            if gpoly.is_irreducible(Fp, m):
                return m
        raise InternalCheckError("no irreducible modulus found")  # pragma: no cover

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        Fp = gf(p)
        m = self.modulus

        def mul_raw(a, b):
            da = self._poly_digits(a, e)
            db = self._poly_digits(b, e)
            prod = gpoly.rem(Fp, gpoly.mul(Fp, da, db), m)
            n = 0
            for c in reversed(prod):
                n = n * p + c
            return n

        # find a multiplicative generator
        for g in range(2, q):
            cur = g
            n = 1
            while cur != 1:
                cur = mul_raw(cur, g)
                n += 1
            if n == q - 1:
                gen = g
                break
        exp = [1] * (q - 1)
        log = [0] * q
        cur = 1
        for i in range(q - 1):
            exp[i] = cur
            log[cur] = i
            cur = mul_raw(cur, gen)
        self._exp = exp
        self._log = log

    # -- arithmetic -------------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        p = self.p
        if self.e == 1:
            return (a + b) % p
        out = 0
        mul = 1
        for _ in range(self.e):
            out += ((a % p + b % p) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a):
        p = self.p
        if self.e == 1:
            return (-a) % p
        out = 0
        mul = 1
        for _ in range(self.e):
            out += ((-a) % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def elements(self):
        return range(self.q)

    def element(self, n):
        """The n-th element in ``elements()`` order, 0 <= n < q."""
        return n

    def from_int(self, n):
        """Coefficient-wise reduction of an integer into the prime field."""
        return n % self.p

    # -- misc -------------------------------------------------------------

    def element_str(self, a):
        """Render an element in the CLI grammar (`a` = modulus root)."""
        if self.e == 1:
            return str(a)
        digits = self._poly_digits(a, self.e)
        terms = []
        for i in range(self.e - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __hash__(self):
        return hash((self.p, self.e))

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)


def gf(p, e=1):
    """Shared, cached field instance for (p, e)."""
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(p, e)
    return _FIELD_CACHE[key]


def gf_of_order(q):
    """Field with exactly q elements; q must be a prime power."""
    primes = gpoly.prime_divisors(q)
    if len(primes) != 1:
        raise InputError(f"{q} is not a prime power")
    p = primes[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return gf(p, e)


_EMBED_CACHE = {}


def embedding(sub, sup):
    """Field embedding GF(p,e1) -> GF(p,e2) with e1 | e2.

    Deterministic: the generator of the subfield is sent to the smallest
    (by int encoding) root of its modulus in the big field.  Returns a
    function on element values.
    """
    if sub.p != sup.p or sup.e % sub.e != 0:
        raise InputError(f"no embedding {sub} -> {sup}")
    if sub is sup or sub.e == sup.e:
        return lambda a: a
    key = (sub.p, sub.e, sup.e)
    if key in _EMBED_CACHE:
        return _EMBED_CACHE[key]
    # the modulus has F_p digits c < p, which are the same ints in sup
    root = None
    for cand in range(sup.q):
        if gpoly.eval_poly(sup, sub.modulus, cand) == 0:
            root = cand
            break
    if root is None:  # pragma: no cover - roots exist whenever e1 | e2
        raise InternalCheckError("modulus has no root in the extension")
    # image of each F_p digit place: powers of the chosen root
    powers = [1]
    for _ in range(sub.e - 1):
        powers.append(sup.mul(powers[-1], root))

    def emb(a, _powers=powers, _p=sub.p, _sup=sup):
        out = 0
        for pw in _powers:
            d = a % _p
            if d:
                out = _sup.add(out, _sup.mul(d, pw))
            a //= _p
        return out

    _EMBED_CACHE[key] = emb
    return emb
