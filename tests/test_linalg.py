import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.errors import JTCalcError, NotAFieldError
from jtcalc.fields import GF, PolyRing, RationalFunctionField, TruncatedCurveRing
from jtcalc.linalg import ExactMatrix, _gfp_rref, block_diag
from linalg_oracles import obj_rref, ratfunc_rank


def rand_matrix(field, rows, cols, rng):
    return ExactMatrix.from_rows(
        field, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_examples():
    assert ExactMatrix.identity(GF(5), 3).rank() == 3
    J2 = ExactMatrix.from_rows(GF(3), [[0, 1], [0, 0]])
    assert J2.rank() == 1
    FF = RationalFunctionField(GF(3), "t")
    t = FF.var()
    m = ExactMatrix.from_rows(FF, [[t, FF.one()], [t * t, t]])
    assert ratfunc_rank(m) == 1


def test_rank_requires_field():
    ring = PolyRing(GF(3), ("x",))
    m = ExactMatrix.from_rows(ring, [[ring.var("x")]])
    with pytest.raises(NotAFieldError):
        m.rank()
    tr = TruncatedCurveRing(GF(3), 1)
    with pytest.raises(NotAFieldError):
        ExactMatrix.identity(tr, 2).rank()


def test_kernels_and_inverses_need_a_finite_field():
    """A ring that is not a field raises `NotAFieldError`; GF(q)(x), a field, raises a
    `JTCalcError` naming it."""
    ring = PolyRing(GF(3), ("x",))
    tr = TruncatedCurveRing(GF(3), 1)
    for m in (ExactMatrix.from_rows(ring, [[ring.var("x")]]), ExactMatrix.identity(tr, 2)):
        with pytest.raises(NotAFieldError):
            m.kernel_basis()
        with pytest.raises(NotAFieldError):
            m.inverse()
    FF = RationalFunctionField(GF(3), "t")
    m = ExactMatrix.identity(FF, 2)
    with pytest.raises(JTCalcError, match=r"^kernels are computed over finite fields, not over GF\(3\)\(t\)$"):
        m.kernel_basis()
    with pytest.raises(JTCalcError, match=r"^inverses are computed over finite fields, not over GF\(3\)\(t\)$"):
        m.inverse()
    # the shape is checked first, as over a finite field
    with pytest.raises(JTCalcError, match="^inverse needs a square matrix$"):
        ExactMatrix.zeros(ring, 2, 3).inverse()


def test_kernel_examples():
    F3 = GF(3)
    z = ExactMatrix.zeros(F3, 2, 3)
    assert len(z.kernel_basis()) == 3
    assert ExactMatrix.identity(F3, 3).kernel_basis() == []
    J2 = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
    basis = J2.kernel_basis()
    assert len(basis) == 1
    assert basis[0][0] == F3.one() and basis[0][1].is_zero()


def test_kernel_dimension_equals_cols_minus_rank():
    rng = random.Random(3)
    for field in (GF(3), GF(5), GF(3, 2)):
        for _ in range(10):
            m = rand_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            assert len(m.kernel_basis()) == m.cols - m.rank()
            for vec in m.kernel_basis():
                col = ExactMatrix.from_rows(field, [[v] for v in vec])
                assert (m @ col).is_zero()


def test_minors_examples():
    ring = PolyRing(GF(3), ("x", "y"))
    x, y = ring.gens()
    zero = ring.zero()
    diag = ExactMatrix.from_rows(ring, [[x, zero], [zero, y]])
    assert diag.minors(2) == [x * y]
    m = ExactMatrix.from_rows(ring, [[x, zero], [zero, zero]])
    assert m.minors(1) == [x, zero, zero, zero]
    sym = ExactMatrix.from_rows(ring, [[x, y], [y, x]])
    assert sym.minors(2) == [x * x - y * y]
    with pytest.raises(JTCalcError):
        m.minors(3)


def test_minors_rank_consistency_exhaustive():
    """rank(M(pt)) <= d iff all (d+1)-minors vanish at pt; GF(2), GF(3), 3x3, 2 vars."""
    for p in (2, 3):
        field = GF(p)
        ring = PolyRing(field, ("x", "y"))
        x, y = ring.gens()
        one = ring.one()
        m = ExactMatrix.from_rows(
            ring,
            [[x, y, one], [y, x + y, ring.zero()], [x * y, one, x]],
        )
        minor_sets = {d: m.minors(d + 1) for d in range(3)}
        for xv in field.elements():
            for yv in field.elements():
                pt = [xv, yv]
                num = ExactMatrix.from_rows(
                    field, [[m.entry(i, j).evaluate(pt) for j in range(3)] for i in range(3)]
                )
                rk = num.rank()
                for d in range(3):
                    vanish = all(g.evaluate(pt).is_zero() for g in minor_sets[d])
                    assert vanish == (rk <= d), (p, xv, yv, d)


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_rank_transpose_and_scaling(seed):
    rng = random.Random(seed)
    field = rng.choice([GF(2), GF(3), GF(5), GF(3, 2)])
    m = rand_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
    assert m.rank() == m.transpose().rank()
    a = field.from_index(rng.randrange(1, field.order))
    assert m.scalar_mul(a).rank() == m.rank()


def test_ratfunc_rank_matches_generic_elimination():
    rng = random.Random(7)
    FF = RationalFunctionField(GF(3), "t")
    t = FF.var()
    pool = [FF.zero(), FF.one(), t, t + 1, t * t, (t + 2) * t]
    for _ in range(15):
        rows = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
        m = ExactMatrix.from_rows(FF, rows)
        bareiss = ratfunc_rank(m)
        # generic field elimination over the fraction field as the second route
        _, pivots = obj_rref(FF, m._obj_rows())
        assert bareiss == len(pivots)


def test_inverse_round_trip():
    rng = random.Random(11)
    for field in (GF(3), GF(5), GF(3, 2)):
        found = 0
        while found < 5:
            m = rand_matrix(field, 3, 3, rng)
            if m.rank() < 3:
                continue
            found += 1
            assert m @ m.inverse() == ExactMatrix.identity(field, 3)
    with pytest.raises(JTCalcError):
        ExactMatrix.zeros(GF(3), 2, 2).inverse()


def test_kron_and_block_structure():
    F3 = GF(3)
    a = ExactMatrix.from_rows(F3, [[1, 2], [0, 1]])
    b = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
    k = a.kron(b)
    assert k.shape == (4, 4)
    assert k.entry(0, 1) == F3.one()
    assert k.entry(0, 3) == F3.from_int(2)
    bd = block_diag(a, b)
    assert bd.shape == (4, 4)
    assert bd.entry(2, 3) == F3.one() and bd.entry(0, 2).is_zero()


def test_kron_mixed_backends_consistency():
    """Truncated-ring kron agrees with entrywise object computation."""
    F3 = GF(3)
    ring = TruncatedCurveRing(F3, 1)
    t = ring.t()
    a = ExactMatrix.from_rows(ring, [[ring.one(), t], [ring.zero(), ring.one()]])
    b = ExactMatrix.from_rows(ring, [[ring.one(), t + 1], [ring.zero(), ring.one()]])
    k = a.kron(b)
    for i in range(4):
        for j in range(4):
            ai, bi = divmod(i, 2)
            aj, bj = divmod(j, 2)
            assert k.entry(i, j) == a.entry(ai, aj) * b.entry(bi, bj)


def test_matrix_power_and_frobenius():
    F9 = GF(3, 2)
    g = F9.gen()
    m = ExactMatrix.from_rows(F9, [[g, F9.one()], [F9.zero(), g]])
    assert m.pow(0) == ExactMatrix.identity(F9, 2)
    assert m.pow(3) == m @ m @ m
    fr = m.frobenius(1)
    assert fr.entry(0, 0) == g**3


def test_embed_into_extension():
    F3, F9 = GF(3), GF(3, 2)
    m = ExactMatrix.from_rows(F3, [[1, 2], [0, 1]])
    m9 = m.embed_into(F9)
    assert m9.domain == F9
    assert m9.entry(0, 1) == F9.from_int(2)


def test_coefficient_extraction_and_subs():
    ring = TruncatedCurveRing(GF(3), 2)
    t = ring.t()
    m = ExactMatrix.from_rows(ring, [[ring.one() + t, t**3], [ring.zero(), ring.one()]])
    c0 = m.coefficient(0)
    assert c0 == ExactMatrix.identity(GF(3), 2)
    c3 = m.coefficient(3)
    assert c3.entry(0, 1) == GF(3).one()
    shifted = m.subs_power(3)
    assert shifted.entry(0, 0) == ring.one() + t**3


def gfp_rref_oracle(M, p):
    """`_gfp_rref` as it was: rows swapped and cleared through fancy indexing."""
    M = M % p
    rows, cols = M.shape
    pivots = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        nz = M[pr:, col].nonzero()[0]
        if not nz.size:
            continue
        piv = pr + int(nz[0])
        if piv != pr:
            M[[pr, piv]] = M[[piv, pr]]
        v = int(M[pr, col])
        if v != 1:
            M[pr, col:] = M[pr, col:] * pow(v, p - 2, p) % p
        sel = M[:, col].nonzero()[0]
        sel = sel[sel != pr]
        if sel.size:
            M[sel, col:] = (M[sel, col:] - np.outer(M[sel, col], M[pr, col:])) % p
        pivots.append(col)
        pr += 1
    return M, pivots


@given(st.sampled_from([2, 3, 5, 31]), st.integers(0, 7), st.integers(0, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_gfp_rref_matches_fancy_index_oracle(p, rows, cols, data):
    cells = data.draw(st.lists(st.integers(0, 3 * p), min_size=rows * cols, max_size=rows * cols))
    M = np.array(cells, dtype=np.int64).reshape(rows, cols)
    got, want = _gfp_rref(M, p), gfp_rref_oracle(M, p)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0])
