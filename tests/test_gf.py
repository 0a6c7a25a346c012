import time

import pytest

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
