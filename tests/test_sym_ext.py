"""Sym/Ext by the (mu_d, J_d) recurrence against the entry-wise kernels it replaced.

The oracle below is the former pointwise construction: Sym^d(A) column by
column from products of the image linear forms, Ext^d(A) from the d x d
minors by a subset-DP determinant.  `power_matrix` must agree with it on
every storage layout: GF(p) and GF(p^n) matrices, truncated-ring matrices
from `texp_matrix`, and the symbolic one-parameter element of a chart
(object entries), including the inverse path that Dual takes.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from jtcalc.fields import GF, TruncatedCurveRing
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import (
    Dual,
    Ext,
    Std,
    Sym,
    UnipotentPair,
    eval_unipotent,
    power_matrix,
    sym_basis,
    texp_matrix,
)
from jtcalc.strata import builtin_chart
from jtcalc.theta import one_param
from theta_oracles import chart_point

# -- oracle: the entry-wise kernels, as they stood in jtcalc.modules --------------


def _poly_mul(ring, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            cur = out.get(e)
            out[e] = prod if cur is None else cur + prod
    return {e: c for e, c in out.items() if not c.is_zero()}


def _sym_matrix(a, d):
    """Induced action on the degree-d monomial basis (lex descending)."""
    ring = a.domain
    n = a.rows
    basis = sym_basis(n, d)
    index = {e: i for i, e in enumerate(basis)}
    one = {(0,) * n: ring.one()}
    images = []
    for v in range(n):
        form = {}
        for u in range(n):
            ent = a.entry(u, v)
            if not ent.is_zero():
                form[tuple(1 if i == u else 0 for i in range(n))] = ent
        images.append(form)
    # incremental powers of each image linear form, shared across columns
    powers = []
    for v in range(n):
        cur = [one]
        for _ in range(d):
            cur.append(_poly_mul(ring, cur[-1], images[v]))
        powers.append(cur)
    columns = []
    for mono in basis:
        acc = None
        for v, k in enumerate(mono):
            if k:
                acc = powers[v][k] if acc is None else _poly_mul(ring, acc, powers[v][k])
        if acc is None:
            acc = one
        col = [ring.zero()] * len(basis)
        for e, cval in acc.items():
            col[index[e]] = cval
        columns.append(col)
    rows = [[columns[j][i] for j in range(len(basis))] for i in range(len(basis))]
    return ExactMatrix.from_rows(ring, rows)


def _ext_matrix(a, d):
    """Induced action on the wedge basis (index subsets, lex ascending)."""
    ring = a.domain
    n = a.rows
    subsets = list(itertools.combinations(range(n), d))
    rows_data = a.to_rows()
    out = []
    for s in subsets:
        row = []
        for t in subsets:
            sub = [[rows_data[i][j] for j in t] for i in s]
            row.append(_det_obj(ring, sub))
        out.append(row)
    return ExactMatrix.from_rows(ring, out)


def _det_obj(ring, rows):
    k = len(rows)
    if k == 0:
        return ring.one()
    states = {0: ring.one()}
    for i in range(k):
        nxt = {}
        for used, val in states.items():
            for j in range(k):
                bit = 1 << j
                if used & bit:
                    continue
                e = rows[i][j]
                if e.is_zero():
                    continue
                inversions = bin(used >> (j + 1)).count("1")
                term = val * e
                if inversions % 2:
                    term = -term
                cur = nxt.get(used | bit)
                nxt[used | bit] = term if cur is None else cur + term
        states = {k2: v for k2, v in nxt.items() if not v.is_zero()}
        if not states:
            return ring.zero()
    return states.get((1 << k) - 1, ring.zero())


# -- helpers ------------------------------------------------------------------------


def _oracle(a, d, ext):
    return _ext_matrix(a, d) if ext else _sym_matrix(a, d)


def _check_pair(pair, d, ext):
    """power_matrix on g, and Dual(Sym/Ext) through eval_unipotent, against the oracle."""
    n = pair.size
    assert power_matrix(pair.g, d, ext) == _oracle(pair.g, d, ext)
    node = (Ext if ext else Sym)(d, Std(n))
    dual = eval_unipotent(Dual(node), pair)
    assert dual.g == _oracle(pair.g_inv, d, ext).transpose()
    assert dual.g_inv == _oracle(pair.g, d, ext).transpose()


FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2), GF(5, 2), GF(2, 3), GF(3, 3)]


@st.composite
def field_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    coords = st.lists(st.integers(0, field.p - 1), min_size=field.n, max_size=field.n)
    rows = [[field.element(draw(coords)) for _ in range(n)] for _ in range(n)]
    return ExactMatrix.from_rows(field, rows)


@st.composite
def texp_pairs(draw):
    """exp(t B) over GF(p)[t]/t^(p^r) for a random strictly upper triangular B (size <= p)."""
    p = draw(st.sampled_from([3, 5]))
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    field = GF(p)
    rows = [[draw(st.integers(0, p - 1)) if j > i else 0 for j in range(n)] for i in range(n)]
    ring = TruncatedCurveRing(field, r)
    pair = texp_matrix(ExactMatrix.from_rows(field, rows), ring)
    # a second factor at t^p makes the entries reach past degree p - 1
    rows2 = [[draw(st.integers(0, p - 1)) if j > i else 0 for j in range(n)] for i in range(n)]
    second = texp_matrix(ExactMatrix.from_rows(field, rows2), ring)
    twisted = UnipotentPair(second.g.subs_power(p), second.g_inv.subs_power(p), checked=False)
    return pair * twisted


# -- finite-field matrices -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(field_matrices(), st.integers(0, 5))
def test_sym_matches_oracle_over_finite_fields(a, d):
    assert power_matrix(a, d, False) == _sym_matrix(a, d)


@settings(max_examples=60, deadline=None)
@given(field_matrices(), st.integers(0, 4))
def test_ext_matches_oracle_over_finite_fields(a, d):
    got = power_matrix(a, d, True)
    assert got == _ext_matrix(a, d)
    if d > a.rows:
        assert got.shape == (0, 0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(0, 5), st.booleans(), st.data())
def test_dual_path_over_finite_fields(field, n, d, ext, data):
    """An invertible unitriangular g with its inverse: Dual takes the inverse path."""
    coords = st.lists(st.integers(0, field.p - 1), min_size=field.n, max_size=field.n)
    rows = [[field.one() if i == j else field.element(data.draw(coords)) if j > i else field.zero()
             for j in range(n)] for i in range(n)]
    g = ExactMatrix.from_rows(field, rows)
    if ext:
        d = min(d, n + 1)
    _check_pair(UnipotentPair(g, g.inverse()), d, ext)


# -- truncated-ring matrices (tuples of ring elements) --------------------------------


@settings(max_examples=40, deadline=None)
@given(texp_pairs(), st.integers(0, 5))
def test_sym_matches_oracle_on_truncated_rings(pair, d):
    _check_pair(pair, d, False)


@settings(max_examples=40, deadline=None)
@given(texp_pairs(), st.integers(0, 4))
def test_ext_matches_oracle_on_truncated_rings(pair, d):
    _check_pair(pair, d, True)


# -- symbolic entries -------------------------------------------------------------------


@pytest.mark.parametrize("chart, degrees", [
    (builtin_chart("sl2_line", 3, r=2), range(6)),
    (builtin_chart("upper_glN", 3, r=2, N=3), range(4)),
])
def test_symbolic_one_param_matches_oracle(chart, degrees):
    pair = one_param(chart_point(chart))
    for d in degrees:
        _check_pair(pair, d, False)
    for d in range(pair.size + 2):
        _check_pair(pair, d, True)


# -- edge degrees ------------------------------------------------------------------------


@pytest.mark.parametrize("domain", [GF(5), GF(3, 2), TruncatedCurveRing(GF(3), 2)])
def test_degree_zero_and_beyond_top(domain):
    g = ExactMatrix.identity(domain, 3)
    one = ExactMatrix.identity(domain, 1)
    assert power_matrix(g, 0, False) == one
    assert power_matrix(g, 0, True) == one
    assert power_matrix(g, 3, True) == one
    assert power_matrix(g, 4, True).shape == (0, 0)
    assert power_matrix(g, 5, True).shape == (0, 0)
