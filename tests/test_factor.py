import random

import pytest

from gekeler.gf import gf
from gekeler.fqpoly import FqPoly
from gekeler.residue import ResidueField
from gekeler import gpoly
from gekeler.errors import InputError


def test_pure_power():
    F = gf(3)
    fac = gpoly.factor(F, [0, 0, 1])  # x^2
    assert fac == [([0, 1], 2)]


def test_difference_of_squares():
    F = gf(3)
    fac = gpoly.factor(F, [F.neg(1), 0, 1])  # x^2 - 1
    assert fac == [([1, 1], 1), ([2, 1], 1)]


def test_worked_cubic_validated_by_expansion_and_root_search():
    # 1 - x + x^3 over F_3: validate by expanding the product and by
    # exhaustive root search in F_3, F_9, F_27
    F = gf(3)
    f = [1, F.neg(1), 0, 1]
    fac = gpoly.factor(F, f)
    prod = [F.one()]
    for g, m in fac:
        for _ in range(m):
            prod = gpoly.mul(F, prod, g)
    assert prod == gpoly.monic(F, f)
    # no roots in F_3 => no linear factor, so the cubic must be irreducible
    assert all(gpoly.eval_poly(F, f, a) != 0 for a in F.elements())
    assert len(fac) == 1 and gpoly.deg(fac[0][0]) == 3
    # a root must exist in F_27 but not in F_9
    from gekeler.gf import embedding
    for (e, expect) in [(2, False), (3, True)]:
        big = gf(3, e)
        emb = embedding(F, big)
        fe = [emb(c) for c in f]
        has_root = any(gpoly.eval_poly(big, fe, a) == 0 for a in big.elements())
        assert has_root is expect


def test_factorization_soundness_randomized():
    rng = random.Random(17)
    for q, e in [(3, 1), (2, 1), (2, 2)]:
        F = gf(q, e)
        for _ in range(40):
            coeffs = [rng.randrange(F.q) for _ in range(rng.randrange(2, 7))]
            f = gpoly.normalize(coeffs)
            if gpoly.deg(f) < 1:
                continue
            fac = gpoly.factor(F, f, seed=7)
            prod = [F.one()]
            for g, m in fac:
                assert g[-1] == F.one()
                for _ in range(m):
                    prod = gpoly.mul(F, prod, g)
            assert prod == gpoly.monic(F, f)
            for g, _ in fac:
                assert gpoly.is_irreducible(F, g)


def test_declared_irreducibles_have_no_small_roots():
    # each irreducible factor of degree d has no root in F_{q^j}, j <= d/2
    from gekeler.gf import embedding
    F = gf(2)
    f = gpoly.normalize([1, 1, 0, 0, 1, 1])  # degree-5 poly over F_2
    for g, _ in gpoly.factor(F, f):
        d = gpoly.deg(g)
        for j in range(1, d // 2 + 1):
            big = gf(2, j)
            emb = embedding(F, big)
            ge = [emb(c) for c in g]
            assert all(gpoly.eval_poly(big, ge, a) != 0 for a in big.elements())


def test_zero_rejected():
    F = gf(3)
    with pytest.raises(InputError):
        gpoly.factor(F, [])


def test_factor_over_residue_field():
    # x^2 - T^3 mod (T - 1) = x^2 - 1 over A/(T-1)
    F = gf(3)
    T = FqPoly.gen(F)
    R = ResidueField(T - FqPoly.one(F))
    fbar = [R.project(-(T ** 3)), R.zero(), R.one()]
    fac = gpoly.factor(R, fbar)
    assert len(fac) == 2
    assert all(m == 1 and gpoly.deg(g) == 1 for g, m in fac)


def test_xgcd_bezout_with_monic_gcd():
    # over GF(9) and over a degree-2 residue field, the two kinds of field
    # the Hensel split and the idempotent split run xgcd over
    F3 = gf(3)
    T = FqPoly.gen(F3)
    R = ResidueField(T ** 2 + FqPoly.one(F3))
    rng = random.Random(43)
    for F in (gf(3, 2), R):
        els = list(F.elements())
        for _ in range(40):
            common = gpoly.normalize([rng.choice(els) for _ in range(2)])
            a = gpoly.mul(F, common, gpoly.normalize(
                [rng.choice(els) for _ in range(4)]))
            b = gpoly.mul(F, common, gpoly.normalize(
                [rng.choice(els) for _ in range(3)]))
            g, u, v = gpoly.xgcd(F, a, b)
            assert g == gpoly.add(F, gpoly.mul(F, u, a), gpoly.mul(F, v, b))
            assert g == gpoly.gcd(F, a, b)
            if a or b:
                assert g[-1] == F.one()
            else:
                assert g == ()
        for a in els:
            if a:
                assert F.mul(a, F.inv(a)) == F.one()
    assert all(len(R.inv(a)) <= R.d for a in R.elements() if a)


def test_residue_field_is_a_field():
    F = gf(2)
    T = FqPoly.gen(F)
    p = T ** 2 + T + FqPoly.one(F)
    R = ResidueField(p)
    els = list(R.elements())
    assert len(els) == 4
    for a in els:
        if a:
            assert R.mul(a, R.inv(a)) == R.one()
    # Frobenius fixes exactly the prime field
    fixed = [a for a in els if R.pow(a, 2) == a]
    assert len(fixed) == 2


def test_squarefree_decomposition_char_p_branch():
    # f = (x^3 - x)^3 over F_3 exercises the p-th-root branch
    F = gf(3)
    base = gpoly.normalize([0, F.neg(1), 0, 0, 1][:4])  # x^3 - x
    base = [0, F.neg(1), 0, 1]
    f = [F.one()]
    for _ in range(3):
        f = gpoly.mul(F, f, base)
    fac = gpoly.factor(F, f)
    assert sorted(m for _, m in fac) == [3, 3, 3]


class _NoInverse:
    """A field whose inv raises; every other operation is the wrapped one."""

    def __init__(self, field):
        self.field = field

    def __getattr__(self, name):
        return getattr(self.field, name)

    def inv(self, a):
        raise AssertionError("inverted the leading coefficient of a monic divisor")


def test_divmod_by_monic_divisor_does_not_invert():
    F3 = gf(3)
    T = FqPoly.gen(F3)
    rng = random.Random(11)
    for base in (gf(3, 2), ResidueField(T ** 2 + FqPoly.one(F3))):
        F = _NoInverse(base)
        els = list(base.elements())
        for _ in range(30):
            b = gpoly.normalize([rng.choice(els) for _ in range(3)] + [base.one()])
            a = gpoly.normalize([rng.choice(els) for _ in range(7)])
            quot, rem = gpoly.divmod_poly(F, a, b)
            assert gpoly.deg(rem) < gpoly.deg(b)
            assert gpoly.add(base, gpoly.mul(base, quot, b), rem) == a


def test_factor_draws_coefficients_without_listing_the_field(monkeypatch):
    F3 = gf(3)
    T = FqPoly.gen(F3)
    R = ResidueField(T ** 3 + T.scale(2) + FqPoly.one(F3))   # T^3 - T + 1
    assert [R.element(n) for n in range(R.order)] == list(R.elements())

    def refuse(self):
        raise AssertionError("listed the residue field")

    monkeypatch.setattr(ResidueField, "elements", refuse)
    rng = random.Random(5)
    for _ in range(5):
        # three linear factors and a quadratic: equal-degree splitting runs
        f = (R.one(),)
        for d in (1, 1, 1, 2):
            g = tuple(R.element(rng.randrange(R.order)) for _ in range(d))
            f = gpoly.mul(R, f, g + (R.one(),))
        prod = (R.one(),)
        for irr, m in gpoly.factor(R, list(f)):
            for _ in range(m):
                prod = gpoly.mul(R, prod, tuple(irr))
        assert prod == f
