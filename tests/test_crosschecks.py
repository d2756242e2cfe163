"""Independent-route verifications of the heavy machinery.

Each test recomputes a result through arithmetic that shares nothing with
the implementation path it checks (dense integer polynomials, closed-form
determinant identities, evaluation-bound ranks).
"""

import random

import numpy as np

from jtcalc.fields import GF, PolyRing, RationalFunctionField
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import Explicit, Std, Tensor, Twist, power_matrix
from jtcalc.theta import CommutingTuple, theta_exp, theta_full
from linalg_oracles import det, ratfunc_rank

F3, F5 = GF(3), GF(5)


def J3(field):
    return ExactMatrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_sym_determinant_identity():
    """det Sym^d(A) = det(A)^(d(d+1)/2) for 2x2 matrices."""
    rng = random.Random(1)
    for _ in range(10):
        rows = [[F5.random_element(rng) for _ in range(2)] for _ in range(2)]
        a = ExactMatrix.from_rows(F5, rows)
        det_a = det(a)
        for d in (2, 3, 4):
            s = power_matrix(a, d, False)
            assert det(s) == det_a ** (d * (d + 1) // 2), d


def test_ext_determinant_identity():
    """det Ext^2(A) = det(A)^2 for 3x3 matrices (binomial(2,1) = 2)."""
    rng = random.Random(2)
    for _ in range(10):
        rows = [[F5.random_element(rng) for _ in range(3)] for _ in range(3)]
        a = ExactMatrix.from_rows(F5, rows)
        e = power_matrix(a, 2, True)
        assert det(e) == det(a) ** 2


def test_ext_top_power_is_determinant():
    rng = random.Random(3)
    for _ in range(5):
        rows = [[F3.random_element(rng) for _ in range(3)] for _ in range(3)]
        a = ExactMatrix.from_rows(F3, rows)
        top = power_matrix(a, 3, True)
        assert top.shape == (1, 1) and top.entry(0, 0) == det(a)


def test_r3_cross_terms_closed_form():
    """At height 3 the full operator exceeds the exponential one by the two
    hand-computed product terms  J (x) J^2/2 (x) 1  +  J^2/2 (x) J (x) 1.
    """
    p = 3
    j = J3(F3)
    tup = CommutingTuple.gl([j, j, j])
    module = Tensor(Std(3), Tensor(Twist(1, Std(3)), Twist(2, Std(3))))
    full = theta_full(module, tup)
    exp = theta_exp(module, tup)
    assert full != exp  # height > 2 strictness
    half = F3.inv_int(2)
    i3 = ExactMatrix.identity(F3, 3)
    jsq = (j @ j).scalar_mul(half)
    cross = j.kron(jsq.kron(i3)) + jsq.kron(j.kron(i3))
    assert full - exp == cross


def test_theta_against_independent_dense_polynomials():
    """theta_full on an additive-kernel module, recomputed with plain integer
    polynomial arithmetic mod p (no package types)."""
    p, r = 3, 2
    q = p**r
    rng = random.Random(4)

    def trim(c):
        while c and not c[-1].any():
            c.pop()
        return c

    def polymul(a, b):
        out = [np.zeros((3, 3), dtype=np.int64) for _ in range(min(len(a) + len(b) - 1, q))]
        for i, ai in enumerate(a):
            for k, bk in enumerate(b):
                if i + k < q:
                    out[i + k] = (out[i + k] + ai @ bk) % p
        return trim(out)

    for _ in range(10):
        # commuting alphas: powers of one strictly upper seed
        seed = np.triu(
            np.array([[rng.randrange(p) for _ in range(3)] for _ in range(3)]), 1
        ).astype(np.int64)
        alphas_np = []
        for _ in range(r):
            acc = np.zeros((3, 3), dtype=np.int64)
            power = seed.copy()
            for _ in range(2):
                acc = (acc + rng.randrange(p) * power) % p
                power = power @ seed % p
            alphas_np.append(acc)
        scalars = [rng.randrange(p) for _ in range(r)]
        # independent: c(t) = a0 t + a1 t^p; rho(c) = prod_j texp(c^(p^j) alpha_j)
        ident = np.eye(3, dtype=np.int64)
        c = [np.zeros((1, 1)), None]
        cpoly = [0] * q
        cpoly[1] = scalars[0]
        cpoly[p] = scalars[1]
        c_coeffs = [np.array([[v]], dtype=np.int64) for v in cpoly]

        def scalar_pow_frobenius(coeffs, e):
            # (sum c_i t^i)^(p^e) = sum c_i^(p^e) t^(i p^e); over GF(p) scalars fixed
            out = [np.zeros((1, 1), dtype=np.int64) for _ in range(q)]
            for i, ci in enumerate(coeffs):
                if ci.any() and i * p**e < q:
                    out[i * p**e] = ci % p
            return out

        rho = [ident]
        for jdx in range(r):
            cj = scalar_pow_frobenius(c_coeffs, jdx)
            factor = [ident]
            term = [ident]
            fact = 1
            for i in range(1, p):
                fact = fact * i
                # term = (c^{p^j})^i alpha^i / i!
                scal = cj
                acc = [np.zeros((3, 3), dtype=np.int64)]
                # build (cj)^i as scalar poly
                spoly = [np.array([[1]], dtype=np.int64)]
                for _ in range(i):
                    nxt = [np.zeros((1, 1), dtype=np.int64) for _ in range(q)]
                    for x, sx in enumerate(spoly):
                        for y, cy in enumerate(cj):
                            if sx.any() and cy.any() and x + y < q:
                                nxt[x + y] = (nxt[x + y] + sx * cy) % p
                    spoly = nxt
                inv_fact = pow(fact % p, p - 2, p) if fact % p else None
                mat_i = np.linalg.matrix_power(alphas_np[jdx], i) % p
                term_poly = [(s[0, 0] * inv_fact % p) * mat_i % p for s in spoly]
                factor = [
                    (a + b) % p
                    for a, b in zip(
                        factor + [np.zeros((3, 3), dtype=np.int64)] * (len(term_poly) - len(factor)),
                        term_poly,
                    )
                ]
            rho = polymul(rho, factor)
        want = rho[p ** (r - 1)] % p if len(rho) > p ** (r - 1) else np.zeros((3, 3), dtype=np.int64)

        alphas = tuple(
            ExactMatrix.from_rows(F3, [[int(v) for v in row] for row in m]) for m in alphas_np
        )
        module = Explicit(alphas)
        tup = CommutingTuple.ga([F3.from_int(s) for s in scalars], F3)
        got = theta_full(module, tup)
        got_np = np.array([[int(got.entry(i, k).coeffs[0]) for k in range(3)] for i in range(3)])
        assert (got_np == want % p).all()


def test_bareiss_vs_evaluation_bound_rank():
    """Generic-point rank by fraction-free elimination equals the certified
    maximum of pointwise ranks over deg+1 evaluation points."""
    rng = random.Random(5)
    field = GF(5, 2)  # plenty of evaluation points
    ratfield = RationalFunctionField(field, "t")
    ring = PolyRing(field, ("t",))
    t = ring.var("t")
    for _ in range(10):
        size = rng.randrange(2, 5)
        rows = []
        maxdeg = 0
        for i in range(size):
            row = []
            for jdx in range(size):
                deg = rng.randrange(0, 3)
                poly = ring.zero()
                for k in range(deg + 1):
                    poly = poly + ring.constant(field.random_element(rng)) * t**k
                maxdeg = max(maxdeg, deg)
                row.append(poly)
            rows.append(row)
        m = ExactMatrix.from_rows(ring, rows)

        def to_rf(pv):
            terms = {e[0]: c for e, c in pv.terms.items()}
            width = max(terms) + 1 if terms else 0
            return ratfield.from_coeffs([terms.get(i, field.zero()) for i in range(width)])

        bareiss = ratfunc_rank(m.map_entries(ratfield, to_rf))
        bound = size * maxdeg + 1
        best = 0
        for idx in range(bound):
            pt = [field.from_index(idx)]
            num = ExactMatrix.from_rows(
                field, [[m.entry(i, jdx).evaluate(pt) for jdx in range(size)] for i in range(size)]
            )
            best = max(best, num.rank())
        assert bareiss == best
