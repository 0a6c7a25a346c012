"""Finite fields F_q with q = p^e.

Elements are plain ints in [0, q).  For e = 1 the int is the residue mod p.
For e > 1 the base-p digits of the int are the coordinates of the element
with respect to the power basis of a fixed degree-e modulus over F_p; the
modulus is the first monic irreducible of degree e in the integer-encoding
order, so serialized elements are reproducible across runs.  The search
skips every candidate with a root in F_p; at e <= 3 a candidate without
one is irreducible, and above that it takes Rabin's test.

For e = 1 a power is the builtin pow mod p.  For e > 1 every operation is
a table lookup.  The generator g is the least int of full order q - 1;
its search starts at g = p, as the ints below p lie in F_p and their
orders divide p - 1.  exp[i] = g^i and log[g^i] = i turn multiplication
into adding logs and a power a^n into one product n * log(a), and the
Zech table zech[k] = log(1 + g^k) turns addition into one more lookup:
g^i + g^j = g^(i + zech[j - i]).  The exp and Zech tables are stored twice
over, so a sum or difference of two logs indexes them without a reduction
mod q - 1.  A field of more than MAX_TABLE elements is refused before its
tables are built.
"""

from .errors import BudgetExceeded, InputError, InternalCheckError
from . import gpoly

_FIELD_CACHE = {}
MAX_TABLE = 2 ** 16


def _is_prime(n):
    return gpoly.prime_divisors(n) == [n]


class GF:
    """The finite field with p**e elements; element values are ints."""

    def __init__(self, p, e=1):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        if e < 1:
            raise InputError("extension degree must be >= 1")
        if e > 1 and not fits_table(p ** e):
            raise BudgetExceeded(f"GF({p}^{e}) has q = {p ** e} elements; log "
                                 f"tables stop at {MAX_TABLE}")
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
            if any(gpoly.eval_poly(Fp, m, a) == 0 for a in range(self.p)):
                continue
            if self.e <= 3 or gpoly.is_irreducible(Fp, m):
                return m
        raise InternalCheckError("no irreducible modulus found")  # pragma: no cover

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        n = q - 1
        gen = next(g for g in range(p, q) if self._has_full_order(g))
        # The exp table is stepped on packed ints: digit j of an element
        # sits in bits [w*j, w*(j+1)), wide enough for a sum of two digits,
        # so adding two packed elements adds them digitwise, and one
        # carry-free pass (reduce) subtracts p from each digit >= p.  A
        # step looks up gen * a for the low and the high digits of a.
        w = p.bit_length() + 1
        ones = sum(1 << (w * j) for j in range(e))
        bias = (2 ** (w - 1) - p) * ones

        def reduce(s):
            return s - p * (((s + bias) >> (w - 1)) & ones)

        def multiples(v):
            out = [0]
            for _ in range(p - 1):
                out.append(reduce(out[-1] + v))
            return out

        # the columns of multiplication by gen: gen * x^j, packed, for j < e
        m_low = self.modulus[:-1]
        digits = self._poly_digits(gen, e)
        columns = []
        for _ in range(e):
            columns.append(sum(c << (w * j) for j, c in enumerate(digits)))
            top, digits = digits[-1], [0] + digits[:-1]
            digits = [(a - top * c) % p for a, c in zip(digits, m_low)]

        def chunk_tables(positions):
            """Keyed by the packed digits at `positions` of each element a
            supported there: the packed gen * a, and the int a."""
            shift = w * positions[0]
            rows = [(0, 0, 0)]
            for j in positions:
                d_cols = list(enumerate(multiples(columns[j])))
                rows = [(key + (d << (w * j)), reduce(img + d_col), val + d * p ** j)
                        for key, img, val in rows for d, d_col in d_cols]
            return ({key >> shift: img for key, img, _ in rows},
                    {key >> shift: val for key, _, val in rows})

        half = e // 2
        high_shift = w * half
        low_mask = (1 << high_shift) - 1
        gen_low, val_low = chunk_tables(range(half))
        gen_high, val_high = chunk_tables(range(half, e))
        exp = [1] * n
        log = [0] * q
        cur = 1
        for i in range(n):
            lo, hi = cur & low_mask, cur >> high_shift
            val = val_low[lo] + val_high[hi]
            exp[i] = val
            log[val] = i
            cur = reduce(gen_low[lo] + gen_high[hi])
        # 1 + g^k adds 1 to the lowest digit; -1 marks 1 + g^k = 0
        zech = [log[a - a % p + (a + 1) % p] if a != p - 1 else -1 for a in exp]
        self._exp = exp + exp
        self._log = log
        self._zech = zech + zech
        self._neg_log = n // 2 if p > 2 else 0   # log(-1)

    def _has_full_order(self, g):
        """g^((q-1)/l) != 1 for every prime l | q - 1."""
        Fp, n = gf(self.p), self.q - 1
        digits = self._poly_digits(g, self.e)
        return all(gpoly.powmod(Fp, digits, n // ell, self.modulus) != (1,)
                   for ell in gpoly.prime_divisors(n))

    # -- arithmetic -------------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if not a:
            return 0
        return self._exp[self._log[a] + self._neg_log]

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        if not b:
            return a
        lb = self._log[b] + self._neg_log   # log(-b)
        if not a:
            return self._exp[lb]
        la = self._log[a]
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def is_square(self, a):
        """Whether a nonzero a is a square, for odd q: by Euler's criterion
        a^((q-1)/2) = 1, which for e > 1 is an even log."""
        if self.e == 1:
            return pow(a, (self.p - 1) // 2, self.p) == 1
        return self._log[a] % 2 == 0

    def gen_power(self, k):
        """g^k for the generator g of the tables; e > 1 only."""
        return self._exp[k % (self.q - 1)]

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        if self.e == 1:
            return pow(a, n, self.p)
        if not a:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.q - 1)]

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


def fits_table(q):
    """Whether a field of q elements is small enough for log tables."""
    return q <= MAX_TABLE


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
