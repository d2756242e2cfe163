"""Differential tests of the finite-field operations of `ExactMatrix`, which run on
one-point `linalg._Pointwise` stacks.

Products, Kronecker products (full and column-paired), scalar multiples
and Frobenius twists over GF(p) and GF(p^n) are checked against entrywise
`FFElement` arithmetic, products also with a left factor whose entries lie
in GF(p); so are inverses, transposes, embeddings, the constructors,
equality and the entry readers of the stored stack.  Rank, reduced row echelon form and kernels are checked against
row reduction with entrywise products by coefficient convolution, reduced
modulo the field modulus: the elimination `linalg` used before extension
fields went through their GF(p) regular representation, kept here as the
oracle.  Shapes run from 0 to 5 rows and columns.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.errors import DomainMismatchError, JTCalcError
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


dims = st.integers(0, 5)


@st.composite
def field_rows(draw, field, rows=None, cols=None):
    """Rows of field elements, 0 to 5 of them and of columns unless given; half the draws are
    products through a narrow inner dimension, so rank-deficient matrices are common."""
    rows = rows if rows is not None else draw(dims)
    cols = cols if cols is not None else draw(dims)
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
any_field = st.sampled_from(PRIME_FIELDS + EXT_FIELDS)


def matrix(field, rows, cols):
    """The `ExactMatrix` of a list of rows with `cols` columns; `from_rows` reads the column
    count off the first row, so an empty list needs it given."""
    return ExactMatrix.from_rows(field, rows) if rows else ExactMatrix.zeros(field, 0, cols)


def coords(m):
    """The (rows, cols, n) coordinates of a finite-field matrix, read entry by entry."""
    data = [[v.coeffs for v in row] for row in m.to_rows()]
    return np.array(data, dtype=np.int64).reshape(m.rows, m.cols, m.domain.n)


# -- products --------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_matches_entrywise(data):
    field = data.draw(ext_field)
    r, k, c = (data.draw(dims) for _ in range(3))
    a, b = data.draw(field_rows(field, r, k)), data.draw(field_rows(field, k, c))
    got = (matrix(field, a, k) @ matrix(field, b, c)).to_rows()
    assert got == _entrywise_product(a, b, field, c)


def _entrywise_product(a, b, field, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), field.zero())
             for j in range(cols)] for i in range(len(a))]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_with_prime_field_left_factor_matches_entrywise(data):
    """A left factor with GF(p) entries only, as the lifted 0/1 maps of Sym and Ext have."""
    field = data.draw(st.sampled_from(SUBFIELD_CASES))
    prime = GF(field.p)
    r, k, c = (data.draw(dims) for _ in range(3))
    a = [[field.embed(x) for x in row] for row in data.draw(field_rows(prime, r, k))]
    b = data.draw(field_rows(field, k, c))
    got = (matrix(field, a, k) @ matrix(field, b, c)).to_rows()
    assert got == _entrywise_product(a, b, field, c)


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
        assert (mu @ ExactMatrix.from_rows(field, b)).to_rows() == _entrywise_product(a, b, field, 3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kron_matches_entrywise(data):
    field = data.draw(ext_field)
    ra, ca, rb, cb = (data.draw(dims) for _ in range(4))
    a, b = data.draw(field_rows(field, ra, ca)), data.draw(field_rows(field, rb, cb))
    got = matrix(field, a, ca).kron(matrix(field, b, cb)).to_rows()
    want = [[a[i][j] * b[k][l] for j in range(ca) for l in range(cb)]
            for i in range(ra) for k in range(rb)]
    assert got == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_column_kron_matches_entrywise(data):
    """Column k of the product is column left[k] of a (x) column right[k] of b."""
    field = data.draw(any_field)
    ra, ca, rb, cb = (data.draw(dims) for _ in range(4))
    a, b = data.draw(field_rows(field, ra, ca)), data.draw(field_rows(field, rb, cb))
    c = data.draw(dims) if ca and cb else 0
    left, right = (np.array(data.draw(st.lists(st.integers(0, max(width - 1, 0)), min_size=c, max_size=c)),
                            dtype=np.intp) for width in (ca, cb))
    got = matrix(field, a, ca).column_kron(matrix(field, b, cb), left, right)
    assert got.shape == (ra * rb, c)
    assert got.to_rows() == [[a[i][l] * b[v][r] for l, r in zip(left, right)]
                             for i in range(ra) for v in range(rb)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_mul_matches_entrywise(data):
    field = data.draw(ext_field)
    a = data.draw(field_rows(field, cols=data.draw(st.integers(1, 5))))
    s = field.from_index(data.draw(st.integers(0, field.order - 1)))
    got = ExactMatrix.from_rows(field, a).scalar_mul(s).to_rows()
    assert got == [[x * s for x in row] for row in a]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_frobenius_matches_entrywise(data):
    """frobenius(e) is x -> x^(p^e) on every entry, for e = 0, 1, n and n + 1."""
    field = data.draw(any_field)
    rows, cols = data.draw(dims), data.draw(dims)
    a = data.draw(field_rows(field, rows, cols))
    m = matrix(field, a, cols)
    for e in (0, 1, field.n, field.n + 1):
        got = m.frobenius(e)
        assert got.shape == (rows, cols)
        assert got.to_rows() == [[x ** (field.p ** e) for x in row] for row in a]


# -- elimination -----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_extension_rank_and_kernel_match_convolution_elimination(data):
    field = data.draw(ext_field)
    cols = data.draw(dims)
    m = matrix(field, data.draw(field_rows(field, cols=cols)), cols)
    _, pivots = conv_rref(field, coords(m))
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == conv_kernel_basis(field, coords(m))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prime_rank_and_kernel_match_convolution_elimination(data):
    field = data.draw(prime_field)
    cols = data.draw(st.integers(0, 8))
    m = matrix(field, data.draw(field_rows(field, cols=cols)), cols)
    _, pivots = conv_rref(field, coords(m))
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == conv_kernel_basis(field, coords(m))


def test_rank_is_invariant_under_field_extension():
    """A GF(p) matrix has the same rank over GF(p^n), where it runs through the
    regular representation."""
    m = ExactMatrix.from_rows(GF(3), [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    assert m.rank() == 2
    for ext in (GF(3, 2), GF(3, 3), GF(3, 4, (2, 0, 0, 2, 1))):
        assert m.embed_into(ext).rank() == 2


# -- the stored stack: inverses, transposes, embeddings, constructors, readers ---------


def _identity_rows(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_inverse_matches_entrywise(data):
    """A A^-1 = A^-1 A = I entrywise when conv elimination finds A invertible; otherwise
    `inverse` raises."""
    field = data.draw(any_field)
    n = data.draw(dims)
    a = data.draw(field_rows(field, n, n))
    m = matrix(field, a, n)
    if len(conv_rref(field, coords(m))[1]) < n:
        with pytest.raises(JTCalcError, match="^matrix is singular$"):
            m.inverse()
        return
    inv = m.inverse()
    assert inv.shape == (n, n)
    b = inv.to_rows()
    assert _entrywise_product(a, b, field, n) == _identity_rows(field, n)
    assert _entrywise_product(b, a, field, n) == _identity_rows(field, n)


def test_inverse_of_a_non_square_matrix_raises():
    with pytest.raises(JTCalcError, match="^inverse needs a square matrix$"):
        ExactMatrix.zeros(GF(3, 2), 2, 3).inverse()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_transpose_matches_entrywise(data):
    field = data.draw(any_field)
    rows, cols = data.draw(dims), data.draw(dims)
    a = data.draw(field_rows(field, rows, cols))
    got = matrix(field, a, cols).transpose()
    assert got.shape == (cols, rows)
    assert got.to_rows() == [[a[i][j] for i in range(rows)] for j in range(cols)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_embed_into_matches_entrywise(data):
    """A GF(p) matrix embeds into each GF(p^n) entry by entry; into its own field it is itself,
    and no GF(p^n) matrix embeds into another field."""
    field = data.draw(st.sampled_from(SUBFIELD_CASES))
    prime = GF(field.p)
    rows, cols = data.draw(dims), data.draw(dims)
    a = data.draw(field_rows(prime, rows, cols))
    m = matrix(prime, a, cols)
    got = m.embed_into(field)
    assert got.domain == field and got.shape == (rows, cols)
    assert got.to_rows() == [[field.embed(x) for x in row] for row in a]
    assert got.rank() == m.rank()
    assert m.embed_into(prime) is m
    with pytest.raises(DomainMismatchError):
        got.embed_into(prime)


@pytest.mark.parametrize("field", PRIME_FIELDS + EXT_FIELDS, ids=str)
def test_identity_and_zeros_match_entrywise(field):
    for n in range(4):
        ident = ExactMatrix.identity(field, n)
        assert ident.shape == (n, n) and ident.to_rows() == _identity_rows(field, n)
        assert ident.is_zero() == (n == 0)
        for cols in range(3):
            zero = ExactMatrix.zeros(field, n, cols)
            assert zero.shape == (n, cols) and zero.is_zero()
            assert zero.to_rows() == [[field.zero()] * cols for _ in range(n)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_equality_and_hash_follow_the_entries(data):
    field = data.draw(any_field)
    rows, cols = data.draw(dims), data.draw(dims)
    a, b = (data.draw(field_rows(field, rows, cols)) for _ in range(2))
    ma, mb = matrix(field, a, cols), matrix(field, b, cols)
    assert (ma == mb) == (a == b)
    # the same matrix built by other routes
    for same in (ExactMatrix.from_coords(field, coords(ma)), ma.transpose().transpose(),
                 ma + ExactMatrix.zeros(field, rows, cols), ExactMatrix.identity(field, rows) @ ma):
        assert same == ma and hash(same) == hash(ma)
    assert ma != ma.transpose() or rows == cols
    if field.n > 1:
        assert ma != ExactMatrix.zeros(GF(field.p), rows, cols)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_entry_and_serialize_read_every_entry(data):
    field = data.draw(any_field)
    rows, cols = data.draw(dims), data.draw(dims)
    a = data.draw(field_rows(field, rows, cols))
    m = matrix(field, a, cols)
    for i in range(rows):
        for j in range(cols):
            x = m.entry(i, j)
            assert x == a[i][j] and x.coeffs == a[i][j].coeffs
            assert all(type(c) is int for c in x.coeffs)
    assert m.serialize() == [[str(x) for x in row] for row in a]
    assert str(m) == "[" + "; ".join(", ".join(str(x) for x in row) for row in a) + "]"
