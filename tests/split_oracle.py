"""The minimal-polynomial search split of a finite commutative algebra,
kept as an oracle for `kalgebra.split_local_components`, which reads the
number of local components off the Frobenius instead of searching."""

from gekeler import gpoly, klinalg


def split_by_minimal_polynomials(alg):
    """Orthogonal idempotents of the local components, in canonical order.

    Splits along coprime primary parts of minimal polynomials of a
    deterministic element sequence (basis vectors, then pairwise products
    of basis vectors); a component with no splitting element is local.
    """
    k = alg.k

    def sequence_for(comp_basis):
        seq = list(comp_basis)
        n = len(comp_basis)
        for i in range(n):
            for j in range(i, n):
                seq.append(alg.mul(comp_basis[i], comp_basis[j]))
        return seq

    def component_basis(eps):
        vecs = [alg.mul(eps, alg.basis_vector(j)) for j in range(alg.dim)]
        return klinalg.span_basis(k, [v for v in vecs
                                      if any(c != k.zero() for c in v)])

    final = []
    work = [alg.one]
    while work:
        eps = work.pop()
        split = None
        for z in sequence_for(component_basis(eps)):
            m = _minimal_polynomial(alg, z, eps)
            parts = _primary_parts(k, m)
            if len(parts) > 1:
                split = (z, m, parts)
                break
        if split is None:
            final.append(eps)
            continue
        z, m, parts = split
        for part in parts:
            cof = gpoly.divmod_poly(k, m, part)[0]
            g, u, _ = gpoly.xgcd(k, cof, part)
            assert gpoly.deg(g) == 0, "primary parts not coprime"
            e_new = alg.mul(_eval_poly(alg, u, z, eps), _eval_poly(alg, cof, z, eps))
            assert alg.mul(e_new, e_new) == e_new
            work.append(e_new)
    final.sort(key=lambda v: [gpoly.elt_key(c) for c in v])
    return final


def _minimal_polynomial(alg, z, identity):
    """Monic minimal polynomial of z in the component with the given
    identity."""
    k = alg.k
    powers = [identity]
    while True:
        mat = [[powers[m][i] for m in range(len(powers))] for i in range(alg.dim)]
        nxt = alg.mul(powers[-1], z)
        sol = klinalg.solve(k, mat, nxt)
        if sol is not None:
            return gpoly.normalize([k.neg(c) for c in sol] + [k.one()])
        powers.append(nxt)
        assert len(powers) <= alg.dim + 1, "minimal polynomial search ran away"


def _eval_poly(alg, coeffs, z, identity):
    """A k[x] polynomial at z, with `identity` as 1."""
    k = alg.k
    out = tuple(k.zero() for _ in range(alg.dim))
    for c in reversed(coeffs):
        out = alg.mul(out, z)
        if c != k.zero():
            out = alg.add(out, alg.scale(c, identity))
    return out


def _primary_parts(k, m):
    """m = prod of pairwise coprime primary parts g_i^(a_i); returns the parts."""
    parts = {}
    for fac, mult in gpoly.factor(k, m):
        key = tuple(fac)
        parts[key] = parts.get(key, 0) + mult
    out = []
    for fac in sorted(parts, key=lambda t: (len(t), [gpoly.elt_key(c) for c in t])):
        power = (k.one(),)
        for _ in range(parts[fac]):
            power = gpoly.mul(k, power, fac)
        out.append(power)
    return out
