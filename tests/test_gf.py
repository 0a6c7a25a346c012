import random
import time

import pytest

from gekeler import gpoly
from gekeler.fqpoly import FqPoly
from gekeler.residue import ResidueField
from gekeler.gf import GF, MAX_TABLE, gf, gf_of_order, embedding
from gekeler.errors import BudgetExceeded, InputError


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_field_axioms(p, e):
    F = gf(p, e)
    els = list(F.elements())
    assert len(els) == p ** e
    for a in els:
        assert F.add(a, F.neg(a)) == 0
        assert F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # spot-check associativity and distributivity on a slice
    sample = els[: min(len(els), 5)]
    for a in sample:
        for b in sample:
            for c in sample:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_modulus_is_deterministic_least():
    # first monic irreducible in encoding order
    assert gf(2, 2).modulus == (1, 1, 1)          # x^2+x+1
    assert gf(3, 2).modulus == (1, 0, 1)          # x^2+1
    assert gf(2, 3).modulus == (1, 1, 0, 1)       # x^3+x+1
    # rebuilt instance agrees
    assert GF(3, 2).modulus == gf(3, 2).modulus


# moduli of every GF(p^e), e > 1, with p^e <= 256; rendered elements of
# the non-prime fields depend on them
MODULI = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1),
    25: (2, 0, 1), 27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1), 81: (2, 1, 0, 0, 1), 121: (1, 0, 1),
    125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1), 169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1), 256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def test_moduli_of_all_small_extension_fields():
    got = {}
    for q in range(2, 257):
        try:
            F = gf_of_order(q)
        except InputError:
            continue
        if F.e > 1:
            got[q] = F.modulus
    assert got == MODULI


def test_gf_of_order():
    assert gf_of_order(9) is gf(3, 2)
    assert gf_of_order(8) is gf(2, 3)
    with pytest.raises(InputError):
        gf_of_order(6)
    with pytest.raises(InputError):
        gf_of_order(1)


def test_gf_of_order_large_prime_is_fast():
    p = 1_000_000_007
    t0 = time.perf_counter()
    F = gf_of_order(p)
    assert time.perf_counter() - t0 < 1.0
    assert (F.p, F.e) == (p, 1)
    with pytest.raises(InputError):
        gf_of_order(2 * p)


def test_fields_too_large_to_tabulate_are_refused():
    # refused before the modulus search and the log tables
    assert MAX_TABLE == 2 ** 16
    for p, e in [(2, 17), (3, 11), (1_000_000_007, 2)]:
        with pytest.raises(BudgetExceeded, match=f"q = {p ** e} "):
            gf(p, e)


def test_embedding_is_a_field_hom():
    small, big = gf(3), gf(3, 2)
    emb = embedding(small, big)
    for a in small.elements():
        for b in small.elements():
            assert emb(small.add(a, b)) == big.add(emb(a), emb(b))
            assert emb(small.mul(a, b)) == big.mul(emb(a), emb(b))
    assert emb(1) == 1

    mid, top = gf(2, 2), gf(2, 2 * 2)
    emb2 = embedding(mid, top)
    seen = {emb2(a) for a in mid.elements()}
    assert len(seen) == 4

    with pytest.raises(InputError):
        embedding(gf(2, 2), gf(2, 3))


def test_pow_and_frobenius():
    F = gf(3, 2)
    for a in F.elements():
        assert F.pow(a, F.q) == a          # x^q = x
        if a:
            assert F.pow(a, F.q - 1) == 1


def _residue_field(q, low):
    """A/p over F_q for p = T^len(low) + the given lower coefficients."""
    return ResidueField(FqPoly(gf_of_order(q), list(low) + [1]))


@pytest.mark.parametrize("F", [gf(5), gf(3, 2), gf(2, 3),
                               _residue_field(3, (1, 0)),     # T^2 + 1
                               _residue_field(3, (1, 2, 0)),  # T^3 + 2T + 1
                               _residue_field(4, (2, 1))],
                         ids=repr)
def test_pow_matches_repeated_multiplication(F):
    one = F.one()
    for a in F.elements():
        acc = one
        for n in range(F.q + 2):
            assert F.pow(a, n) == acc, (a, n)
            if a:
                assert F.mul(F.pow(a, -n), acc) == one, (a, -n)
                assert F.pow(a, -n) == F.pow(F.inv(a), n)
            acc = F.mul(acc, a)
    assert F.pow(F.zero(), 0) == one
    with pytest.raises(ZeroDivisionError):
        F.pow(F.zero(), -1)


def _digits(F, n):
    return [n // F.p ** i % F.p for i in range(F.e)]


def _undigits(F, digits):
    return sum(c * F.p ** i for i, c in enumerate(digits))


def _digit_add(F, a, b):
    """Addition as coordinate-wise addition of base-p digits."""
    return _undigits(F, [(x + y) % F.p for x, y in zip(_digits(F, a), _digits(F, b))])


def _digit_neg(F, a):
    return _undigits(F, [-x % F.p for x in _digits(F, a)])


def _stepped_tables(F):
    """exp and log tables with the generator found by stepping through the
    powers of each candidate until 1, and every product by polynomial
    multiplication mod the modulus."""
    Fp = gf(F.p)

    def mul_raw(a, b):
        prod = gpoly.rem(Fp, gpoly.mul(Fp, _digits(F, a), _digits(F, b)), F.modulus)
        return _undigits(F, prod)

    for gen in range(2, F.q):
        cur, order = gen, 1
        while cur != 1:
            cur = mul_raw(cur, gen)
            order += 1
        if order == F.q - 1:
            break
    exp, log = [], [0] * F.q
    cur = 1
    for i in range(F.q - 1):
        exp.append(cur)
        log[cur] = i
        cur = mul_raw(cur, gen)
    return exp, log


def _extension_fields(max_q):
    for q in range(4, max_q + 1):
        try:
            F = gf_of_order(q)
        except InputError:
            continue
        if F.e > 1:
            yield F


def test_tables_match_stepped_generator_search():
    for F in _extension_fields(2 ** 10):
        exp, log = _stepped_tables(F)
        assert [F.gen_power(i) for i in range(F.q - 1)] == exp, F
        assert [F.mul(F.gen_power(1), a) for a in exp] == exp[1:] + exp[:1]
        for a in range(1, F.q):
            assert F.gen_power(log[a]) == a


def test_largest_fields_build_quickly():
    for p, e in [(3, 10), (2, 16)]:
        t0 = time.perf_counter()
        F = GF(p, e)
        assert time.perf_counter() - t0 < 2.0, (p, e)
        assert F.q <= MAX_TABLE
        assert F.pow(F.gen_power(1), (F.q - 1) // 2) != 1


def test_zech_addition_matches_digit_formulas():
    for F in _extension_fields(256):
        p = F.p
        digits = [tuple(_digits(F, a)) for a in range(F.q)]
        code = {d: a for a, d in enumerate(digits)}
        negs = [_digit_neg(F, a) for a in range(F.q)]
        for a in range(F.q):
            assert F.neg(a) == negs[a]
            da = digits[a]
            for b in range(F.q):
                s = code[tuple([(x + y) % p for x, y in zip(da, digits[b])])]
                assert F.add(a, b) == s
                assert F.sub(s, b) == a
    rng = random.Random(14)
    for F in (gf(3, 10), gf(2, 16)):
        for _ in range(5000):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.add(a, b) == _digit_add(F, a, b)
            assert F.neg(a) == _digit_neg(F, a)
            assert F.sub(a, b) == _digit_add(F, a, _digit_neg(F, b))


def _rabin_modulus(p, e):
    """The least monic irreducible of degree e over F_p in encoding order,
    by Rabin's test on every candidate from low = 0."""
    Fp = gf(p)
    for low in range(p ** e):
        m = tuple(low // p ** i % p for i in range(e)) + (1,)
        if gpoly.is_irreducible(Fp, m):
            return m


def test_moduli_generators_and_tables_match_the_exhaustive_searches():
    # every GF(p^e), e >= 2, q <= 4096, p <= 13, built afresh: the modulus is
    # Rabin's first from low = 0, the generator the first int of full order
    # from g = 2, and exp its powers mod that modulus
    fields = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 13)
              if p ** e <= 4096]
    assert len(fields) == 28
    for p, e in fields:
        F, Fp = GF(p, e), gf(p)
        assert F.modulus == _rabin_modulus(p, e), F
        gen = next(g for g in range(2, F.q) if F._has_full_order(g))
        assert F.gen_power(1) == gen, F
        exp, cur = [], (1,)
        for _ in range(F.q - 1):
            exp.append(_undigits(F, cur))
            cur = gpoly.rem(Fp, gpoly.mul(Fp, cur, _digits(F, gen)), F.modulus)
        assert F._exp == exp + exp, F


def test_small_fields_take_no_rabin_test_and_no_generator_below_p(monkeypatch):
    rabin, tested = [], []
    is_irreducible, has_full_order = gpoly.is_irreducible, GF._has_full_order
    monkeypatch.setattr(gpoly, "is_irreducible",
                        lambda F, f: rabin.append(f) or is_irreducible(F, f))
    monkeypatch.setattr(GF, "_has_full_order",
                        lambda self, g: tested.append((self.p, g))
                        or has_full_order(self, g))
    for p, e in [(5, 3), (11, 2)]:
        assert GF(p, e).modulus == gf(p, e).modulus
    assert rabin == []
    assert {p for p, _ in tested} == {5, 11}
    assert all(g >= p for p, g in tested), tested


def test_census_jobs_build_no_degree_one_residue_field(monkeypatch):
    # at a prime T - c, A/p is F_q itself: every census job reduces f there,
    # and none builds a tuple-valued ResidueField for it
    import contextlib
    import io
    from conftest import perfbench_workloads
    from gekeler.cli import main
    from gekeler.residue import LinearResidueField
    built = []
    for cls in (ResidueField, LinearResidueField):
        monkeypatch.setattr(cls, "__init__", lambda self, p, init=cls.__init__:
                            built.append((type(self), int(p.degree)))
                            or init(self, p))
    for argv in perfbench_workloads().CENSUS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert (LinearResidueField, 1) in built
    assert all(d > 1 for cls, d in built if cls is ResidueField)
