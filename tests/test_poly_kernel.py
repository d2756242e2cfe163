"""Differential tests of the dense GF(p)[x] kernel in `linalg`.

The oracles are the routes the kernel replaced, kept here verbatim:
`_bareiss_rank_upoly`, the fraction-free elimination on tuples of
`FFElement` coefficients that `linalg` used before, and, for
semicontinuity, the generic operator's powers taken as `RatFunc` matrices
and ranked by that elimination.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.errors import JTCalcError
from jtcalc.fields import GF, PolyRing, RationalFunctionField, _up_divmod, _up_mul, _up_trim
from jtcalc.jordan import RankProfile, dominance_leq, jt_from_rank_profile
from jtcalc.linalg import (
    ExactMatrix,
    _PolyMatrix,
    _px_exact_div,
    _px_mmul,
    _px_rank,
    _px_stack,
    _px_trim,
)
from jtcalc.modules import Explicit, parse_module_expr
from jtcalc.strata import (
    SemicontReport,
    builtin_chart,
    builtin_curves,
    curve_from_coeffs,
    semicontinuity_check,
)
from jtcalc.theta import jt_at_point, theta_variant

FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2), GF(5, 2)]


# -- oracle: fraction-free elimination on FFElement tuples --------------------------


def _bareiss_rank_upoly(field, M):
    """Rank of a matrix of dense univariate coefficient tuples over GF(q)."""
    M = [list(r) for r in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    one = (field.one(),)
    prev = one
    rank = 0
    pr = 0
    for col in range(cols):
        if pr >= rows:
            break
        piv = -1
        for r in range(pr, rows):
            if _up_trim(M[r][col]):
                piv = r
                break
        if piv == -1:
            continue
        M[pr], M[piv] = M[piv], M[pr]
        pivot = M[pr][col]
        for r in range(pr + 1, rows):
            for j in range(cols - 1, col - 1, -1):
                num = tuple(
                    a - b
                    for a, b in itertools.zip_longest(
                        _up_mul(M[r][j], pivot, field),
                        _up_mul(M[r][col], M[pr][j], field),
                        fillvalue=field.zero(),
                    )
                )
                quot, rem = _up_divmod(num, prev, field)
                if _up_trim(rem):
                    raise JTCalcError("fraction-free elimination lost exactness")
                M[r][j] = quot
            M[r][col] = ()
        prev = pivot
        rank += 1
        pr += 1
    return rank


def _oracle_jt(matrix, p):
    """Jordan type of a p-nilpotent matrix over GF(q)(t) through RatFunc powers."""
    field = matrix.domain.field
    ranks = []
    power = matrix
    for _ in range(1, p):
        ranks.append(0 if power.is_zero() else _bareiss_rank_upoly(field, power._cleared_rows()))
        power = power @ matrix
    assert power.is_zero()
    return jt_from_rank_profile(RankProfile(p, matrix.rows, tuple(ranks)))


def _poly_to_ratfunc(poly, ratfield):
    terms = {}
    for e, c in poly.terms.items():
        terms[e[0]] = c
    size = max(terms) + 1 if terms else 0
    num = [terms.get(i, ratfield.field.zero()) for i in range(size)]
    return ratfield.from_coeffs(num)


def oracle_semicontinuity(curve, e, variant):
    chart = curve.chart
    generic_tup = chart.generic_tuple(curve.substitution)
    theta = theta_variant(e, generic_tup, variant)
    ring1 = generic_tup.domain
    ratfield = RationalFunctionField(ring1.field, ring1.variables[0])
    generic_matrix = theta.matrix.map_entries(ratfield, lambda v: _poly_to_ratfunc(v, ratfield))
    generic_jt = _oracle_jt(generic_matrix, chart.p)
    special_jt = jt_at_point(e, chart.tuple_at(curve.special_values(ring1.field)), variant)
    ok = dominance_leq(special_jt, generic_jt)
    return SemicontReport(curve.label, variant, generic_jt.to_text(), special_jt.to_text(), ok)


# -- rank ------------------------------------------------------------------------------


def _up_sum(polys, field):
    width = max((len(c) for c in polys), default=0)
    return _up_trim(tuple(sum((c[s] for c in polys if s < len(c)), field.zero()) for s in range(width)))


@st.composite
def poly_matrix(draw, field, max_deg=8, size=None):
    """Rows of coefficient tuples: a product of random m x k and k x m matrices, k < m."""
    m = size or draw(st.integers(1, 4))
    k = draw(st.integers(0, m - 1))
    coeff = st.integers(0, field.order - 1).map(field.from_index)

    def block(r, c):
        return [[_up_trim(tuple(draw(coeff) for _ in range(draw(st.integers(0, max_deg + 1)))))
                 for _ in range(c)] for _ in range(r)]

    left, right = block(m, k), block(k, m)
    return [[_up_sum([_up_mul(left[i][t], right[t][j], field) for t in range(k)], field)
             for j in range(m)] for i in range(m)]


def _stack(field, rows):
    return _px_stack(field, [[dict(enumerate(c)) for c in row] for row in rows])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_product_matches_coefficient_arithmetic(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = data.draw(poly_matrix(field))
    b = data.draw(poly_matrix(field, size=len(a)))
    want = [[_up_sum([_up_mul(a[i][k], b[k][j], field) for k in range(len(b))], field)
             for j in range(len(b))] for i in range(len(a))]
    got = _px_mmul(_stack(field, a), _stack(field, b), field.p)
    assert np.array_equal(got, _px_trim(_stack(field, want)))


def _kernel_rank(field, rows):
    return _px_rank(_stack(field, rows), field.p) // field.n


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_rank_matches_bareiss_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    rows = data.draw(poly_matrix(field))
    want = _bareiss_rank_upoly(field, rows)
    assert want < len(rows)
    assert _kernel_rank(field, rows) == want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ratfunc_matrix_rank_matches_bareiss_oracle(data):
    """Rows and columns scaled by nonzero rational functions keep the rank of the
    polynomial product; ExactMatrix.rank clears the denominators again."""
    field = data.draw(st.sampled_from(FIELDS))
    rows = data.draw(poly_matrix(field, max_deg=4))
    m = len(rows)
    ff = RationalFunctionField(field, "t")
    coeff = st.integers(0, field.order - 1).map(field.from_index)

    def nonzero_poly():
        deg = data.draw(st.integers(0, 3))
        return [data.draw(coeff) for _ in range(deg)] + [field.from_index(data.draw(st.integers(1, field.order - 1)))]

    row_den = [ff.from_coeffs([1], nonzero_poly()) for _ in range(m)]
    col_den = [ff.from_coeffs(nonzero_poly()) for _ in range(m)]
    entries = [[ff.from_coeffs(c) * row_den[i] * col_den[j] if c else ff.zero() for j, c in enumerate(row)]
               for i, row in enumerate(rows)]
    matrix = ExactMatrix.from_rows(ff, entries)
    want = _bareiss_rank_upoly(field, rows)
    assert _bareiss_rank_upoly(field, matrix._cleared_rows()) == want
    assert matrix.rank() == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_and_empty_matrices(field):
    for shape in ((0, 0), (3, 3), (2, 4), (4, 1)):
        rows = [[() for _ in range(shape[1])] for _ in range(shape[0])]
        assert _kernel_rank(field, rows) == _bareiss_rank_upoly(field, rows) == 0
        ff = RationalFunctionField(field, "t")
        assert ExactMatrix.zeros(ff, *shape).rank() == 0
    assert _PolyMatrix(0, 0, field.n, field.p, _px_stack(field, [])).rank() == 0


def test_kernel_reports_lost_exactness():
    """The division check raises when the divisor does not divide: x + 1 by x over GF(3)."""
    with pytest.raises(JTCalcError, match="fraction-free elimination lost exactness"):
        _px_exact_div(np.array([[[1, 1]]]), np.array([0, 1]), 3)


# -- semicontinuity -------------------------------------------------------------------


def _chain_module(p):
    jmod = ExactMatrix.from_rows(GF(p), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    return Explicit((jmod, jmod @ jmod), label="chain3")


CHARTS = [
    ("ga_r", {"r": 2}, None),
    ("multi_ga", {"s": 2}, None),
    ("upper_glN", {"r": 2, "N": 3}, "Std(3)"),
    ("sl2_line", {"r": 2}, "Std(2)*Tw(1,Std(2))"),
]


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name, kw, module", CHARTS, ids=[c[0] for c in CHARTS])
def test_semicontinuity_matches_ratfunc_route(name, kw, module, p, variant):
    chart = builtin_chart(name, p, **kw)
    e = _chain_module(p) if module is None else parse_module_expr(module)
    for curve in builtin_curves(chart, p, 3):
        assert semicontinuity_check(curve, e, variant) == oracle_semicontinuity(curve, e, variant)


@pytest.mark.parametrize("variant", ["full", "exp"])
def test_semicontinuity_over_gf9_matches_ratfunc_route(variant):
    """Coefficients outside GF(3) go through the regular representation."""
    field = GF(3, 2)
    ring = PolyRing(field, ("t",))
    t, g = ring.var("t"), ring.constant(field.gen())
    b, d = g * t + ring.one(), t * t + g
    polys = {"a": b * d, "b": b, "c": -(b * d * d), "l0": g * t, "l1": t + g}
    coeffs = {v: [poly.terms.get((i,), field.zero()) for i in range(poly.degree() + 1)]
              for v, poly in polys.items()}
    chart = builtin_chart("sl2_line", 3, r=2)
    curve = curve_from_coeffs(chart, field, coeffs, label="gf9")
    for module in ("Std(2)*Tw(1,Std(2))", "Sym(2,Std(2))"):
        e = parse_module_expr(module)
        got = semicontinuity_check(curve, e, variant)
        assert got == oracle_semicontinuity(curve, e, variant)
    assert got.generic_type != "0"


def test_semicontinuity_on_zero_dimensional_module():
    chart = builtin_chart("sl2_line", 3, r=2)
    e = parse_module_expr("Ext(3,Std(2))")
    assert e.dim() == 0
    for variant in ("full", "exp"):
        for curve in builtin_curves(chart, 1, 2):
            got = semicontinuity_check(curve, e, variant)
            assert got == oracle_semicontinuity(curve, e, variant)
            assert got.generic_type == got.special_type == "0"

