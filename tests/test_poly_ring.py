"""The ring of polynomials along a curve, `batch._Polys`, against the coordinate ring it replaced.

`batch._Polys` is the `linalg._Pointwise` ring with the point axis read as
the coefficient axis of the curve parameter s: a matrix is the
(S, rows n, cols n) stack of the regular-representation blocks of its
s-coefficients.  The oracle is the ring it replaced,
`poly_oracles.CoordinatePolys`, on (S, rows, cols, n) stacks of GF(p^n)
coordinates.  Every operation the module walker asks of the ring must give
the `lift` of the oracle's result, over GF(p), GF(p^2) and GF(p^3), for
S = 1 to 6 coefficients, zero matrices and empty shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jtcalc.batch import _Polys
from jtcalc.fields import GF
from jtcalc.modules import power_maps
from poly_oracles import CoordinatePolys

# GF(3), GF(5), GF(4), GF(9), GF(25), GF(8), GF(27)
FIELDS = [GF(3), GF(5), GF(2, 2), GF(3, 2), GF(5, 2), GF(2, 3), GF(3, 3)]
SETTINGS = settings(max_examples=80, deadline=None)

# (rows, cols) of the two operands of each binary operation, from four drawn sizes
SHAPES = {
    "matmul": lambda r, k, c, _: ((r, k), (k, c)),
    "kron": lambda ra, ca, rb, cb: ((ra, ca), (rb, cb)),
    "outer_columns": lambda ra, c, rb, _: ((ra, c), (rb, c)),
    "add": lambda r, c, _, __: ((r, c), (r, c)),
}


@st.composite
def coordinate_stacks(draw, field, rows, cols, top=None):
    """An (S, rows, cols, n) coordinate stack, S = 1 to 6, entries below top (p by default);
    one in five is zero."""
    shape = (draw(st.integers(1, 6)), rows, cols, field.n)
    if draw(st.integers(0, 4)) == 0:
        return np.zeros(shape, dtype=np.int64)
    return draw(arrays(np.int64, shape, elements=st.integers(0, (top or field.p) - 1)))


@st.composite
def operands(draw, name):
    """A field and the two coordinate stacks of a binary operation."""
    field = draw(st.sampled_from(FIELDS))
    shapes = SHAPES[name](*(draw(st.integers(0, 3)) for _ in range(4)))
    return field, [draw(coordinate_stacks(field, rows, cols)) for rows, cols in shapes]


@st.composite
def operand(draw, top=None):
    """A field and one coordinate stack."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return field, draw(coordinate_stacks(field, rows, cols, top))


def rings(field):
    return _Polys(field), CoordinatePolys(field)


def assert_lifted(ring, got, want):
    """got, reduced, is the lift of the reduced coordinate stack want."""
    assert np.array_equal(ring.reduce(got), ring.lift(CoordinatePolys(ring.field).reduce(want)))


@pytest.mark.parametrize("name", ["matmul", "kron", "outer_columns"])
@given(data=st.data())
@SETTINGS
def test_products_are_lifted(name, data):
    field, (a, b) = data.draw(operands(name))
    ring, oracle = rings(field)
    assert_lifted(ring, getattr(ring, name)(ring.lift(a), ring.lift(b)), getattr(oracle, name)(a, b))


@given(operands("add"), st.booleans())
@SETTINGS
def test_sums_of_any_lengths_are_lifted(case, into):
    field, (a, b) = case
    ring, oracle = rings(field)
    want = oracle.add(a, b)
    assert_lifted(ring, ring.add(ring.lift(a).copy(), ring.lift(b), into=into), want)


@given(operand(), st.data())
@SETTINGS
def test_lmul_is_lifted(case, data):
    field, m = case
    ring, oracle = rings(field)
    mu = data.draw(arrays(np.int64, (data.draw(st.integers(0, 3)), m.shape[1]), elements=st.integers(0, 4)))
    assert_lifted(ring, ring.lmul(mu, ring.lift(m)), oracle.lmul(mu, m))


@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(2, 3), st.booleans(), st.data())
@SETTINGS
def test_power_maps_are_lifted(field, n, d, ext, data):
    """Sym/Ext's two steps on a coefficient stack: `lmul` by mu_d and `columns` of whole blocks."""
    ring, oracle = rings(field)
    mu, cols, vecs = power_maps(n, d, ext)
    a = data.draw(coordinate_stacks(field, mu.shape[1], 2))
    assert_lifted(ring, ring.lmul(mu, ring.lift(a)), oracle.lmul(mu, a))
    for idx, width in ((cols, mu.shape[1] // n), (vecs, n)):
        b = data.draw(coordinate_stacks(field, 2, width))
        assert np.array_equal(ring.lift(b)[:, :, ring.columns(idx)], ring.lift(b[:, :, oracle.columns(idx)]))


@given(operand(), st.data())
@SETTINGS
def test_transpose_and_columns_are_lifted(case, data):
    field, m = case
    ring, oracle = rings(field)
    assert np.array_equal(ring.transpose(ring.lift(m)), ring.lift(oracle.transpose(m)))
    idx = np.array(data.draw(st.lists(st.integers(0, m.shape[2] - 1), max_size=4) if m.shape[2] else st.just([])),
                   dtype=np.intp)
    assert np.array_equal(ring.lift(m)[:, :, ring.columns(idx)], ring.lift(m[:, :, oracle.columns(idx)]))


@given(operand())
@SETTINGS
def test_frobenius_is_lifted(case):
    """Tw(i) for i = 0, ..., n + 1: s stretched by p^i, each coefficient by the Frobenius."""
    field, m = case
    ring, oracle = rings(field)
    for i in range(field.n + 2):
        assert np.array_equal(ring.frobenius(ring.lift(m), i), ring.lift(oracle.frobenius(m, i)))


@given(operand(top=50))
@SETTINGS
def test_reduce_is_lifted(case):
    """Unreduced entries, and trailing zero coefficients dropped down to one."""
    field, m = case
    ring, oracle = rings(field)
    assert np.array_equal(ring.reduce(ring.lift(m)), ring.lift(oracle.reduce(m)))


@given(operand())
@SETTINGS
def test_dim_and_nonzero_are_the_oracles(case):
    field, m = case
    ring, oracle = rings(field)
    assert ring.dim(ring.lift(m)) == oracle.dim(m)
    assert np.array_equal(ring.nonzero(ring.lift(m)), oracle.nonzero(m))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_identity_is_lifted(field):
    ring, oracle = rings(field)
    for d in range(4):
        assert np.array_equal(ring.identity(d), ring.lift(oracle.identity(d)))
