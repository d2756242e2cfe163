"""Differential tests of the finite-field matrix kernels.

Products, Kronecker products and scalar multiples over GF(p^n) are checked
against entrywise `FFElement` arithmetic, products also with a left factor
whose entries lie in GF(p), which takes a shortcut.  Rank, reduced row echelon form
and kernels are checked against row reduction with entrywise products by
coefficient convolution, reduced modulo the field modulus: the elimination
`linalg` used before extension fields went through their GF(p) regular
representation, kept here as the oracle.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.fields import GF, FFElement
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import _lifted_mu

EXT_FIELDS = [GF(3, 2), GF(5, 2), GF(7, 2), GF(2, 3), GF(3, 3), GF(3, 4, (2, 0, 0, 2, 1))]
PRIME_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(31)]
SUBFIELD_CASES = [GF(3, 2), GF(2, 3), GF(5, 2)]


# -- oracle: convolution elimination --------------------------------------------


def _conv_reduce(field, conv):
    """Reduce the trailing convolution axis (length 2n-1) modulo the field modulus."""
    n = field.n
    out = conv[..., :n].copy()
    for k in range(n, conv.shape[-1]):
        for j in range(n):
            out[..., j] += conv[..., k] * int(field.reduction[k][j])
    return out % field.p


def conv_rref(field, data, full=False):
    """Row reduction of an (rows, cols, n) coordinate array; returns (matrix, pivots)."""
    p, n = field.p, field.n
    M = np.array(data, dtype=np.int64)
    rows, cols = M.shape[0], M.shape[1]
    pivots = []
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        nz = [r for r in range(pr, rows) if M[r, col].any()]
        if not nz:
            continue
        M[[pr, nz[0]]] = M[[nz[0], pr]]
        inv = FFElement(field, tuple(int(v) for v in M[pr, col])).inverse()
        conv = np.zeros((cols, 2 * n - 1), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                conv[:, a + b] += M[pr, :, a] * inv.coeffs[b]
        M[pr] = _conv_reduce(field, conv)
        targets = [r for r in range(rows) if r != pr] if full else range(pr + 1, rows)
        for r in targets:
            factor = M[r, col].copy()
            conv = np.zeros((cols, 2 * n - 1), dtype=np.int64)
            for a in range(n):
                for b in range(n):
                    conv[:, a + b] += factor[a] * M[pr, :, b]
            M[r] = (M[r] - _conv_reduce(field, conv)) % p
        pivots.append(col)
        pr += 1
    return M, pivots


def conv_kernel_basis(field, data):
    R, pivots = conv_rref(field, data, full=True)
    cols = R.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [field.zero()] * cols
        vec[f] = field.one()
        for pr, pc in enumerate(pivots):
            vec[pc] = -FFElement(field, tuple(int(v) for v in R[pr, f]))
        basis.append(vec)
    return basis


# -- strategies ------------------------------------------------------------------------


@st.composite
def field_rows(draw, field, rows=None, cols=None):
    """Rows of field elements; half the draws are products through a narrow inner
    dimension, so rank-deficient matrices are common."""
    rows = rows if rows is not None else draw(st.integers(1, 5))
    cols = cols if cols is not None else draw(st.integers(1, 5))
    elem = st.one_of(st.just(0), st.integers(0, field.order - 1)).map(field.from_index)

    def block(r, c):
        return [[draw(elem) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        return block(rows, cols)
    k = draw(st.integers(1, 3))
    left, right = block(rows, k), block(k, cols)
    return [[sum((left[i][t] * right[t][j] for t in range(k)), field.zero())
             for j in range(cols)] for i in range(rows)]


ext_field = st.sampled_from(EXT_FIELDS)
prime_field = st.sampled_from(PRIME_FIELDS)


# -- products --------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_matches_entrywise(data):
    field = data.draw(ext_field)
    a = data.draw(field_rows(field))
    b = data.draw(field_rows(field, rows=len(a[0])))
    got = (ExactMatrix.from_rows(field, a) @ ExactMatrix.from_rows(field, b)).to_rows()
    assert got == _entrywise_product(a, b, field)


def _entrywise_product(a, b, field):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), field.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_with_prime_field_left_factor_matches_entrywise(data):
    """A left factor with GF(p) entries only is multiplied coordinate by coordinate."""
    field = data.draw(st.sampled_from(SUBFIELD_CASES))
    prime = GF(field.p)
    a = [[field.embed(x) for x in row] for row in data.draw(field_rows(prime))]
    b = data.draw(field_rows(field, rows=len(a[0])))
    got = (ExactMatrix.from_rows(field, a) @ ExactMatrix.from_rows(field, b)).to_rows()
    assert got == _entrywise_product(a, b, field)


@pytest.mark.parametrize("ext", [False, True], ids=["sym", "ext"])
@pytest.mark.parametrize("field", SUBFIELD_CASES, ids=str)
def test_matmul_with_lifted_mu_matches_entrywise(field, ext):
    """The lifted 0/+-1 map mu_d of `power_matrix` times a GF(p^n) matrix."""
    rng = random.Random(field.order)
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        if ext and d > n:
            continue
        mu = _lifted_mu(field, n, d, ext)
        a = mu.to_rows()
        b = [[field.random_element(rng) for _ in range(3)] for _ in range(mu.cols)]
        assert (mu @ ExactMatrix.from_rows(field, b)).to_rows() == _entrywise_product(a, b, field)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kron_matches_entrywise(data):
    field = data.draw(ext_field)
    a = data.draw(field_rows(field))
    b = data.draw(field_rows(field))
    got = ExactMatrix.from_rows(field, a).kron(ExactMatrix.from_rows(field, b)).to_rows()
    want = [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]
    assert got == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_mul_matches_entrywise(data):
    field = data.draw(ext_field)
    a = data.draw(field_rows(field))
    s = field.from_index(data.draw(st.integers(0, field.order - 1)))
    got = ExactMatrix.from_rows(field, a).scalar_mul(s).to_rows()
    assert got == [[x * s for x in row] for row in a]


# -- elimination -----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_extension_rank_and_kernel_match_convolution_elimination(data):
    field = data.draw(ext_field)
    m = ExactMatrix.from_rows(field, data.draw(field_rows(field)))
    _, pivots = conv_rref(field, m._data)
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == conv_kernel_basis(field, m._data)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prime_rank_and_kernel_match_convolution_elimination(data):
    field = data.draw(prime_field)
    m = ExactMatrix.from_rows(field, data.draw(field_rows(field, cols=data.draw(st.integers(1, 8)))))
    _, pivots = conv_rref(field, m._data)
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == conv_kernel_basis(field, m._data)


def test_rank_is_invariant_under_field_extension():
    """A GF(p) matrix has the same rank over GF(p^n), where it runs through the
    regular representation."""
    m = ExactMatrix.from_rows(GF(3), [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    assert m.rank() == 2
    for ext in (GF(3, 2), GF(3, 3), GF(3, 4, (2, 0, 0, 2, 1))):
        assert m.embed_into(ext).rank() == 2
