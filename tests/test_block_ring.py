"""The GF(q) stack ring of `linalg` against coordinate kernels.

A one-point `linalg._Pointwise` stack over GF(p^n) holds each entry as its
n x n GF(p) regular-representation block (`_Pointwise.lift`).  Every
operation the module walker and `ExactMatrix` ask of the ring is compared
here with a kernel that computes it on (rows, cols, n) coordinates:
`_ff_mmul`, `_ff_kron`, `_ff_column_kron`, `_ff_scalar`, `_ff_frob`, the
coordinate transpose, and the coordinates read back from the blocks.  Those
kernels are the ones `linalg` ran on coordinates before every finite-field
matrix went through the stack ring: each coordinate slice of one factor
against the regular representation of the other (x^a times each entry).
`kron` and `outer_columns` also take leading axes that broadcast, the grid
of coefficient pairs of `batch._Polys` and `monomials._Monomials`; there
they are checked against the products of one pair of points at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.fields import GF
from jtcalc.linalg import _Pointwise, _regular
from jtcalc.modules import power_maps

# GF(4), GF(8), GF(9), GF(25), GF(27), GF(81), and GF(3) for the entrywise layout
FIELDS = [GF(2, 2), GF(2, 3), GF(3, 2), GF(5, 2), GF(3, 3), GF(3, 4, modulus=(2, 0, 0, 2, 1)), GF(3)]
SETTINGS = settings(max_examples=60, deadline=None)


# -- the coordinate kernels: (rows, cols, n) arrays of GF(p^n) coordinates ---------------


def _ff_mmul(field, A, B):
    n = field.n
    if n == 1:
        return (A[..., 0] @ B[..., 0])[..., None] % field.p
    rows, inner, cols = A.shape[0], B.shape[0], B.shape[1]
    if not A[..., 1:].any():
        # GF(p) entries on the left (a lifted 0/1 map, say) scale every coordinate alike
        return (A[..., 0] @ B.reshape(inner, cols * n)).reshape(rows, cols, n) % field.p
    Breg = _regular(field, B).transpose(0, 2, 1, 3).reshape(inner * n, cols * n)
    return (A.reshape(rows, inner * n) @ Breg).reshape(rows, cols, n) % field.p


def _np_kron(Aa, Bb):
    ra, ca = Aa.shape
    rb, cb = Bb.shape
    return (Aa[:, None, :, None] * Bb[None, :, None, :]).reshape(ra * rb, ca * cb)


def _ff_kron(field, A, B):
    n = field.n
    ra, ca = A.shape[0], A.shape[1]
    rb, cb = B.shape[0], B.shape[1]
    if n == 1:
        return (_np_kron(A[..., 0], B[..., 0]) % field.p)[..., None]
    Breg = _regular(field, B).transpose(2, 0, 1, 3).reshape(n, rb * cb * n)
    prod = (A.reshape(ra * ca, n) @ Breg).reshape(ra, ca, rb, cb, n)
    return prod.transpose(0, 2, 1, 3, 4).reshape(ra * rb, ca * cb, n) % field.p


def _ff_column_kron(field, A, B):
    """Column-paired Kronecker product of (ra, c, n) and (rb, c, n) arrays.

    out[i*rb + v, k] = A[i, k] * B[v, k]; over GF(p^n) one batched integer
    product of A against the regular representation of B, column by column.
    """
    ra, c, n = A.shape
    rb = B.shape[0]
    if n == 1:
        return (A[:, None] * B[None]).reshape(ra * rb, c, 1) % field.p
    Breg = _regular(field, B).transpose(1, 2, 0, 3).reshape(c, n, rb * n)
    prod = A.transpose(1, 0, 2) @ Breg
    return prod.reshape(c, ra, rb, n).transpose(1, 2, 0, 3).reshape(ra * rb, c, n) % field.p


def _ff_scalar(field, A, s):
    if field.n == 1:
        return A * int(s[0]) % field.p
    return A @ _regular(field, s) % field.p


def _ff_frob(field, A, e):
    if field.n == 1 or e == 0:
        return A % field.p
    F = field.frobenius_matrix
    Fe = np.eye(field.n, dtype=np.int64)
    for _ in range(e % field.n):
        Fe = (F @ Fe) % field.p
    return np.tensordot(A, Fe.T, axes=([A.ndim - 1], [0])) % field.p


# -- the stack ring against them ----------------------------------------------------------


@st.composite
def coords(draw, field, rows, cols):
    """A (rows, cols, n) array of reduced GF(p^n) coordinates."""
    cells = draw(st.lists(st.integers(0, field.p - 1), min_size=rows * cols * field.n,
                          max_size=rows * cols * field.n))
    return np.array(cells, dtype=np.int64).reshape(rows, cols, field.n)


def stack(ring, *mats):
    """The stack of the coordinate arrays mats, one point each."""
    return np.concatenate([ring.lift(m) for m in mats])


@st.composite
def pairs(draw, shape):
    """A field and two stacks of two points each: a (P, ...) pair per operand, shapes from `shape`."""
    field = draw(st.sampled_from(FIELDS))
    dims = [draw(st.integers(0, 3)) for _ in range(4)]
    (ra, ca), (rb, cb) = shape(*dims)
    a = [draw(coords(field, ra, ca)) for _ in range(2)]
    b = [draw(coords(field, rb, cb)) for _ in range(2)]
    return field, a, b


@given(pairs(lambda r, k, c, _: ((r, k), (k, c))))
@SETTINGS
def test_matmul_is_the_coordinate_product(case):
    field, a, b = case
    ring = _Pointwise(field, 2)
    got = ring.reduce(ring.matmul(stack(ring, *a), stack(ring, *b)))
    assert np.array_equal(got, stack(ring, *(_ff_mmul(field, x, y) for x, y in zip(a, b))))


@given(pairs(lambda ra, ca, rb, cb: ((ra, ca), (rb, cb))))
@SETTINGS
def test_kron_is_the_coordinate_kron(case):
    field, a, b = case
    ring = _Pointwise(field, 2)
    got = ring.reduce(ring.kron(stack(ring, *a), stack(ring, *b)))
    assert np.array_equal(got, stack(ring, *(_ff_kron(field, x, y) for x, y in zip(a, b))))


@given(pairs(lambda ra, c, rb, _: ((ra, c), (rb, c))))
@SETTINGS
def test_outer_columns_is_the_column_kron(case):
    field, a, b = case
    ring = _Pointwise(field, 2)
    got = ring.reduce(ring.outer_columns(stack(ring, *a), stack(ring, *b)))
    assert np.array_equal(got, stack(ring, *(_ff_column_kron(field, x, y) for x, y in zip(a, b))))


@given(pairs(lambda r, c, _, __: ((r, c), (r, c))), st.data())
@SETTINGS
def test_scale_is_the_coordinate_scalar_multiple(case, data):
    field, a, _ = case
    ring = _Pointwise(field, 2)
    x = field.from_index(data.draw(st.integers(0, field.order - 1)))
    want = stack(ring, *(_ff_scalar(field, m, np.array(x.coeffs)) for m in a))
    assert np.array_equal(ring.scale(stack(ring, *a), x), want)
    # one matrix of a stack scales as the stack does
    assert all(np.array_equal(ring.scale(m, x), w) for m, w in zip(stack(ring, *a), want))


@given(pairs(lambda r, c, _, __: ((r, c), (r, c))), st.integers(0, 9))
@SETTINGS
def test_frobenius_is_the_coordinate_frobenius(case, i):
    field, a, _ = case
    ring = _Pointwise(field, 2)
    got = ring.frobenius(stack(ring, *a), i)
    assert np.array_equal(got, stack(ring, *(_ff_frob(field, x, i) for x in a)))


@given(pairs(lambda r, c, _, __: ((r, c), (r, c))))
@SETTINGS
def test_transpose_swaps_blocks(case):
    field, a, _ = case
    ring = _Pointwise(field, 2)
    got = ring.transpose(stack(ring, *a))
    assert np.array_equal(got, stack(ring, *(x.transpose(1, 0, 2) for x in a)))


@given(pairs(lambda r, c, _, __: ((r, c), (r, c))))
@SETTINGS
def test_blocks_round_trip_to_coordinates(case):
    field, a, _ = case
    ring = _Pointwise(field, 2)
    s = stack(ring, *a)
    assert ring.dim(s) == a[0].shape[0]
    for m, x in zip(s, a):
        assert np.array_equal(ring.coords(m), x)


@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(2, 3), st.booleans(), st.data())
@SETTINGS
def test_power_maps_act_on_blocks(field, n, d, ext, data):
    """`lmul` is mu (x) I_n and `columns` picks whole block columns: Sym/Ext's two steps."""
    ring = _Pointwise(field, 1)
    mu, cols, vecs = power_maps(n, d, ext)
    a = data.draw(coords(field, mu.shape[1], 2))
    want = np.einsum("ij,jcn->icn", mu, a) % field.p
    assert np.array_equal(ring.reduce(ring.lmul(mu, ring.lift(a))), ring.lift(want))
    # cols index the basis of degree d - 1, vecs that of degree 1
    for idx, width in ((cols, mu.shape[1] // n), (vecs, n)):
        b = data.draw(coords(field, 2, width))
        assert np.array_equal(ring.lift(b)[:, :, ring.columns(idx)], ring.lift(b[:, idx]))


def test_identity_is_the_block_identity():
    for field in FIELDS:
        ring = _Pointwise(field, 3)
        one = np.zeros((2, 2, field.n), dtype=np.int64)
        one[[0, 1], [0, 1], 0] = 1
        assert np.array_equal(ring.identity(2), np.concatenate([ring.lift(one)] * 3))


@st.composite
def batched(draw, shape):
    """A field, and two stacks with leading batch axes that broadcast against each other:
    (2, 3) against (2, 3), (1, 3) or (2, 1), in either order."""
    field = draw(st.sampled_from(FIELDS))
    dims = [draw(st.integers(0, 3)) for _ in range(4)]
    (ra, ca), (rb, cb) = shape(*dims)
    lead = [(2, 3), draw(st.sampled_from([(2, 3), (1, 3), (2, 1)]))]
    if draw(st.booleans()):
        lead.reverse()
    ring = _Pointwise(field)

    def draw_stack(lead, rows, cols):
        count = lead[0] * lead[1]
        m = ring.lift(draw(coords(field, count * rows, cols)).reshape(count, rows, cols, field.n))
        return m.reshape(lead + m.shape[1:])

    return ring, draw_stack(lead[0], ra, ca), draw_stack(lead[1], rb, cb)


def _per_point(product, a, b):
    """product at each point of the broadcast batch grid, one pair of one-point stacks at a time."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = np.broadcast_to(a, lead + a.shape[-2:]), np.broadcast_to(b, lead + b.shape[-2:])
    return np.stack([product(a[i][None], b[i][None])[0] for i in np.ndindex(lead)]).reshape(
        lead + product(a[(0,) * len(lead)][None], b[(0,) * len(lead)][None]).shape[1:])


@given(batched(lambda ra, ca, rb, cb: ((ra, ca), (rb, cb))))
@SETTINGS
def test_kron_broadcasts_leading_axes(case):
    ring, a, b = case
    assert np.array_equal(ring.kron(a, b), _per_point(ring.kron, a, b))


@given(batched(lambda ra, c, rb, _: ((ra, c), (rb, c))))
@SETTINGS
def test_outer_columns_broadcasts_leading_axes(case):
    ring, a, b = case
    assert np.array_equal(ring.outer_columns(a, b), _per_point(ring.outer_columns, a, b))
