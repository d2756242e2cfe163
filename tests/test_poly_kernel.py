"""Differential tests of the dense GF(p)[x] kernel in `linalg`, and of the
operator along a curve evaluated on integer GF(p)[t] stacks.

The oracles are the routes these replaced, kept here verbatim:
`_bareiss_rank_upoly`, the fraction-free elimination on tuples of
`FFElement` coefficients that `linalg` used before; for semicontinuity, the
generic operator's powers taken as `RatFunc` matrices and ranked by that
elimination; and the operator built by the object walker over `PolyRing`
(`theta_oracles.theta_variant`) on the tuple that `generic_tuple`
substitutes, with the special type from `tuple_at` and `jt_at_point`.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.batch import _Polys
from jtcalc.cli import main
from jtcalc.errors import ChartError, JTCalcError, NotNilpotentError
from jtcalc.fields import GF, PolyRing, RationalFunctionField, _up_divmod, _up_mul, _up_trim
from jtcalc import linalg
from jtcalc.jordan import RankProfile, _jordan_types, dominance_leq, jt_from_rank_profile
from jtcalc.linalg import (
    ExactMatrix,
    _Pointwise,
    _px_exact_div,
    _px_mmul,
    _px_rank,
    _px_trim,
)
from jtcalc.modules import (
    DirectSum,
    Dual,
    Explicit,
    Ext,
    Std,
    Sym,
    Tensor,
    Trivial,
    Twist,
    parse_module_expr,
)
from jtcalc.strata import (
    Chart,
    Curve,
    SemicontReport,
    builtin_chart,
    builtin_curves,
    curve_from_coeffs,
    parse_chart,
    semicontinuity_check,
)
from jtcalc.theta import KIND_GL, jt_at_point
from linalg_oracles import cleared_rows, power_ranks, px_stack, ratfunc_rank
from theta_oracles import gl_point, scalar_point, theta_variant, validate_commuting_tuple

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
        ranks.append(0 if power.is_zero() else _bareiss_rank_upoly(field, cleared_rows(power)))
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


def generic_tuple(chart, substitution):
    """The tuple over a one-variable polynomial ring via a curve substitution."""
    values = [substitution[v] for v in chart.params]
    ring1 = values[0].ring
    mats = []
    for tmpl in chart.templates:
        rows = [
            [tmpl.entry(i, j).evaluate_in(ring1, values) for j in range(tmpl.cols)]
            for i in range(tmpl.rows)
        ]
        mats.append(ExactMatrix.from_rows(ring1, rows))
    if chart.kind == KIND_GL:
        return gl_point(mats)
    scalars = [m.entry(0, 0) for m in mats]
    return scalar_point(chart.kind, scalars, ring1)


def of_univariate(matrix):
    """The matrix over a univariate `PolyRing` (coefficients GF(p^n)) as a `_Polys` stack."""
    field = matrix.domain.field
    rows = [[{e[0]: c for e, c in v.terms.items()} for v in row] for row in matrix._obj_rows()]
    return px_stack(field, rows)


def polyring_semicontinuity(curve, e, variant):
    """Semicontinuity with the operator built over `PolyRing` on `generic_tuple`."""
    chart = curve.chart
    generic_tup = generic_tuple(chart, curve.substitution)
    theta = theta_variant(e, generic_tup, variant)
    ring1 = generic_tup.domain
    field = ring1.field
    generic_jt, = _jordan_types(_Polys(field), of_univariate(theta), f"matrix is not {field.p}-nilpotent")
    if chart.kind == KIND_GL:
        report = validate_commuting_tuple(generic_tup.mats, chart.p)
        if report is not None:
            raise NotNilpotentError(report)
    special_jt = jt_at_point(e, chart.tuple_at(curve.special_values(ring1.field)), variant)
    ok = dominance_leq(special_jt, generic_jt)
    return SemicontReport(curve.label, variant, generic_jt.to_text(), special_jt.to_text(), ok)


def oracle_semicontinuity(curve, e, variant):
    chart = curve.chart
    generic_tup = generic_tuple(chart, curve.substitution)
    theta = theta_variant(e, generic_tup, variant)
    ring1 = generic_tup.domain
    ratfield = RationalFunctionField(ring1.field, ring1.variables[0])
    generic_matrix = theta.map_entries(ratfield, lambda v: _poly_to_ratfunc(v, ratfield))
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
    return px_stack(field, [[dict(enumerate(c)) for c in row] for row in rows])


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


def _pairwise_convolution(a, b):
    out = np.zeros((len(a) + len(b) - 1,) + (a[0] @ b[0]).shape, dtype=np.int64)
    for i, j in itertools.product(range(len(a)), range(len(b))):
        out[i + j] += a[i] @ b[j]
    return out


def test_convolution_in_blocks_matches_pairwise_sum(monkeypatch):
    """Blocks of every size, down to one left coefficient, give the sum of the pairwise products."""
    rng = np.random.default_rng(0)
    shapes = [((5, 2, 3), (2, 3, 2)), ((1, 3, 3), (7, 3, 3)), ((6, 1, 4), (6, 4, 2)),
              ((4, 3, 2, 3), (3, 3, 3, 5)), ((3, 2, 0), (4, 0, 2))]
    for sa, sb in shapes:
        a, b = rng.integers(0, 5, sa), rng.integers(0, 5, sb)
        want = _pairwise_convolution(a, b)
        for cells in (0, 7, 100, linalg._PAIR_CELLS):
            monkeypatch.setattr(linalg, "_PAIR_CELLS", cells)
            assert np.array_equal(linalg._convolve(a, b), want)
        monkeypatch.undo()


def test_convolution_memory_is_bounded():
    """Long products allocate a few copies of their result and a few blocks of `_PAIR_CELLS` cells,
    not every coefficient pair at once: on the kernel's stacks and on the curve operator's GF(9) stacks."""
    import tracemalloc

    ring = _Polys(GF(3, 2))
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, 5, (200, 4, 4)), rng.integers(0, 5, (200, 4, 4))
    x, y = (ring.lift(rng.integers(0, 3, (150, 3, 3, 2))) for _ in range(2))
    # all pairs at once would take 15 MB, 6 MB and 58 MB
    for call in (lambda: linalg._convolve(a, b), lambda: ring.matmul(x, y), lambda: ring.kron(x, y)):
        tracemalloc.start()
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 3 * out.nbytes + 4 * 8 * linalg._PAIR_CELLS


def test_curve_operator_in_one_coefficient_blocks(monkeypatch):
    """The operator along a GF(9) curve is the same when every product runs one coefficient at a time."""
    chart = builtin_chart("sl2_line", 3, r=2)
    curve = _gf9_curve(chart)
    monkeypatch.setattr(linalg, "_PAIR_CELLS", 0)
    for text in ("Sym(2,Std(2))*Tw(1,Std(2))", "Dual(Std(2))*Tw(1,Std(2))"):
        for variant in ("full", "exp"):
            assert_curve_matches(curve, parse_module_expr(text), variant)


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
    polynomial product; `ratfunc_rank` clears the denominators again."""
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
    assert _bareiss_rank_upoly(field, cleared_rows(matrix)) == want
    assert ratfunc_rank(matrix) == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_and_empty_matrices(field):
    for shape in ((0, 0), (3, 3), (2, 4), (4, 1)):
        rows = [[() for _ in range(shape[1])] for _ in range(shape[0])]
        assert _kernel_rank(field, rows) == _bareiss_rank_upoly(field, rows) == 0
        ff = RationalFunctionField(field, "t")
        assert ratfunc_rank(ExactMatrix.zeros(ff, *shape)) == 0
    assert _Polys(field).ranks(px_stack(field, [])).tolist() == [0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_one_rank_loop_for_stacks_and_points(field, count, seed):
    """`_jordan_types` on a stack of p-nilpotent matrices gives, per matrix, the type of its
    one-point stack (ranked by block pivots, not batched elimination) and the type of the ranks
    of its powers, taken one by one (`linalg_oracles.power_ranks`)."""
    p, m = field.p, 2 * field.p
    rng = np.random.default_rng(seed)
    # two strictly upper triangular p x p blocks on the diagonal: N^p = 0
    mask = np.kron(np.eye(2, dtype=np.int64), np.triu(np.ones((p, p), dtype=np.int64), 1))
    coords = rng.integers(0, p, (count, m, m, field.n)) * mask[..., None]
    ring = _Pointwise(field, count)
    stack = ring.lift(coords)
    types = _jordan_types(ring, stack, "not nilpotent")
    assert types == [_jordan_types(_Pointwise(field), stack[i:i + 1], "not nilpotent")[0] for i in range(count)]
    assert types == [jt_from_rank_profile(RankProfile(p, m, power_ranks(ExactMatrix.from_coords(field, c), p)))
                     for c in coords]
    assert ring.ranks(stack).tolist() == [ExactMatrix.from_coords(field, c).rank() for c in coords]
    with pytest.raises(NotNilpotentError, match="not nilpotent"):
        _jordan_types(ring, ring.identity(m), "not nilpotent")


def test_kernel_reports_lost_exactness():
    """The division check raises when the divisor does not divide: x + 1 by x over GF(3)."""
    with pytest.raises(JTCalcError, match="fraction-free elimination lost exactness"):
        _px_exact_div(np.array([[[1]], [[1]]]), np.array([0, 1]), 3)


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



# -- the operator along a curve: integer GF(p)[t] stacks against PolyRing ----------------


def _trimmed(a):
    nonzero = a.reshape(len(a), -1).any(axis=1).nonzero()[0]
    return a[:nonzero[-1] + 1 if nonzero.size else 1]


def _coefficients(matrix):
    """(L, rows, cols, n) coordinates of the t-coefficients of a matrix over a univariate PolyRing."""
    field = matrix.domain.field
    rows = matrix._obj_rows()
    length = 1 + max((e for row in rows for v in row for (e,) in v.terms), default=0)
    out = np.zeros((length, matrix.rows, matrix.cols, field.n), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            for (e,), c in v.terms.items():
                out[e, i, j] = field.embed(c).coeffs
    return _trimmed(out)


def _outcome(call):
    """The call's value, or (exception type, message)."""
    try:
        return call()
    except JTCalcError as exc:
        return type(exc), str(exc)


def assert_curve_matches(curve, e, variant):
    """The operator block for block (the PolyRing route lifted), the report or its error, and the
    special type."""
    chart = curve.chart
    want = _outcome(lambda: _Pointwise(curve.field).lift(_coefficients(
        theta_variant(e, generic_tuple(chart, curve.substitution), variant))))
    got = _outcome(lambda: _trimmed(curve.operator(e, variant)))
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    report = _outcome(lambda: semicontinuity_check(curve, e, variant))
    assert report == _outcome(lambda: polyring_semicontinuity(curve, e, variant))
    if isinstance(report, SemicontReport):
        special = jt_at_point(e, chart.tuple_at(curve.special_values(curve.field)), variant)
        assert report.special_type == special.to_text()
    return report


CURVE_FIELDS = [GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2)]
BUILTIN = [("ga_r", {"r": 2}), ("multi_ga", {"s": 2}), ("sl2_line", {"r": 2}), ("sl2_line", {"r": 1}),
           ("upper_glN", {"r": 2, "N": 3})]
NODE_KINDS = ["leaf", "leaf", "trivial", "tw", "tensor", "sum", "sym", "ext", "dual"]


@st.composite
def curves(draw, chart, field):
    """A curve through the chart over the field, with coefficients anywhere in the field."""
    ring = PolyRing(field, ("t",))
    t = ring.var("t")

    def poly(deg=2):
        out = ring.zero()
        for i in range(deg + 1):
            out = out + ring.constant(field.from_index(draw(st.integers(0, field.order - 1)))) * t**i
        return out

    subs = {}
    if chart.name == "sl2_line":
        b, d = poly(), poly(1)
        subs.update(a=b * d, b=b, c=-(b * d * d))
        subs.update({f"l{i}": poly() for i in range(chart.r)})
    elif chart.name == "upper_glN":
        entries = {(i, j): poly(1) for i in range(chart.size) for j in range(i + 1, chart.size)}
        for s in range(chart.r):
            f = poly(1)
            subs.update({f"b{s}_{i}{j}": f * c for (i, j), c in entries.items()})
    else:
        subs.update({v: poly() for v in chart.params})
    return curve_from_coeffs(chart, field, _coefficient_lists(subs), label="drawn")


def _coefficient_lists(polys):
    """{param: [c0, c1, ...]} of polynomials in t, as `curve_from_coeffs` takes them."""
    return {v: [poly.terms.get((i,), poly.ring.field.zero()) for i in range(poly.degree() + 1)]
            for v, poly in polys.items()}


@st.composite
def explicit_leaves(draw, field, height):
    """Commuting p-nilpotent c_k J^k, J a Jordan block, over GF(p) or the curve's field."""
    over = draw(st.sampled_from([GF(field.p), field]))
    d = draw(st.integers(2, 3))
    jmod = ExactMatrix.from_rows(over, [[int(j == i + 1) for j in range(d)] for i in range(d)])
    mats = []
    for _ in range(height):
        c = over.from_index(draw(st.integers(0, over.order - 1)))
        mats.append(jmod.pow(draw(st.integers(1, 2))).scalar_mul(c))
    return Explicit(tuple(mats), label="drawn")


@st.composite
def modules(draw, leaf, depth=2, cap=6):
    """A module tree over the leaf with every node kind; trees above `cap` dimensions become the leaf."""
    kind = draw(st.sampled_from(NODE_KINDS if depth else ["leaf"]))
    inner = lambda: draw(modules(leaf, depth - 1, cap))  # noqa: E731
    if kind == "leaf":
        e = leaf
    elif kind == "trivial":
        e = Trivial(draw(st.integers(1, 2)))
    elif kind == "tw":
        e = Twist(draw(st.integers(0, 2)), inner())
    elif kind == "tensor":
        e = Tensor(inner(), inner())
    elif kind == "sum":
        e = DirectSum(inner(), inner())
    elif kind == "sym":
        e = Sym(draw(st.integers(0, 2)), inner())
    elif kind == "ext":
        e = Ext(draw(st.integers(0, 2)), inner())
    else:
        e = Dual(inner())
    return e if e.dim() <= cap else leaf


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_curve_operator_matches_polyring_route(data):
    field = data.draw(st.sampled_from(CURVE_FIELDS))
    name, kw = data.draw(st.sampled_from(BUILTIN))
    chart = builtin_chart(name, field.p, **kw)
    curve = data.draw(curves(chart, field))
    leaf = Std(chart.size) if chart.kind == KIND_GL else data.draw(explicit_leaves(field, chart.r))
    e = data.draw(modules(leaf, cap=4 if field.p == 7 else 6))
    assert_curve_matches(curve, e, data.draw(st.sampled_from(["full", "exp"])))


@st.composite
def gl_charts(draw, p):
    """A `gl` chart in a and b through its text form: strictly upper templates (p-nilpotent
    for N <= p) or arbitrary ones."""
    size, r = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    ring = PolyRing(GF(p), ("a", "b"))
    a, b = ring.var("a"), ring.var("b")
    monomials = [a, b, a * b, b * b]
    upper = draw(st.booleans())

    def entry(i, j):
        if upper and j <= i:
            return ring.zero()
        out = ring.zero()
        for m in monomials:
            if draw(st.integers(0, 3)) == 0:
                out = out + ring.constant(draw(st.integers(1, p - 1))) * m
        return out

    templates = tuple(ExactMatrix.from_rows(ring, [[entry(i, j) for j in range(size)] for i in range(size)])
                      for _ in range(r))
    return parse_chart(Chart("drawn", KIND_GL, p, r, size, ring, templates, ()).to_text())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_curve_operator_on_parsed_gl_charts(data):
    field = data.draw(st.sampled_from(CURVE_FIELDS))
    chart = data.draw(gl_charts(field.p))
    curve = data.draw(curves(chart, field))
    e = data.draw(modules(Std(chart.size), depth=1))
    assert_curve_matches(curve, e, data.draw(st.sampled_from(["full", "exp"])))


def _gf9_curve(chart):
    """A curve over GF(9) whose coefficients lie outside GF(3)."""
    field = GF(3, 2)
    ring = PolyRing(field, ("t",))
    t, g = ring.var("t"), ring.constant(field.gen())
    if chart.name == "sl2_line":
        b, d = g * t + ring.one(), t * t + g
        polys = {"a": b * d, "b": b, "c": -(b * d * d)}
        polys.update({f"l{i}": g * t + ring.constant(i) for i in range(chart.r)})
    else:
        polys = {v: g * t + ring.constant(i + 1) * t * t for i, v in enumerate(chart.params)}
    return curve_from_coeffs(chart, field, _coefficient_lists(polys), label="gf9")


GL_MODULES = ["Std(2)", "Trivial(2)", "Tw(1,Std(2))", "Tw(2,Std(2))*Std(2)", "Std(2)+Tw(1,Std(2))",
              "Sym(2,Std(2))*Tw(1,Std(2))", "Ext(2,Std(2)+Std(2))", "Dual(Std(2))*Tw(1,Std(2))",
              "Sym(0,Std(2))+Dual(Tw(1,Std(2)))", "Ext(3,Std(2))"]
GA_MODULES = ["{e}", "Trivial(2)", "Tw(1,{e})", "{e}*Tw(1,{e})", "{e}+Trivial(1)", "Sym(2,{e})",
              "Ext(2,{e})", "Dual({e})*{e}", "Std(2)"]


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("name, kw", BUILTIN, ids=[f"{n}-r{kw.get('r', kw.get('s'))}" for n, kw in BUILTIN])
def test_every_node_kind_along_gf3_and_gf9_curves(name, kw, variant):
    chart = builtin_chart(name, 3, **kw)
    curves_ = builtin_curves(chart, 4, 2)
    if name != "upper_glN":
        curves_.append(_gf9_curve(chart))
    if chart.kind == KIND_GL:
        texts = GL_MODULES if chart.size == 2 else [m.replace("(2", "(3") for m in GL_MODULES[:6]]
    else:
        texts = GA_MODULES
    leaf = Explicit(_chain_module(3).matrices[:chart.r], label="chain3")
    for curve in curves_:
        for text in texts:
            e = parse_module_expr(text.format(e="Explicit(file=chain3)"), loader=lambda path: leaf)
            assert_curve_matches(curve, e, variant)


def test_twist_stretches_the_curve_parameter():
    """On these curves a twist that stretched t alone would leave every Jordan type as it is
    and change most operators."""
    chart = builtin_chart("sl2_line", 3, r=2)
    e = parse_module_expr("Std(2)*Tw(1,Std(2))")
    for curve in builtin_curves(chart, 7, 10):
        for variant in ("full", "exp"):
            assert_curve_matches(curve, e, variant)


NILPOTENCY_CASES = [
    ("field GF(3)\nkind gl\nr 1\nN 2\nparams a\ntemplate\na 0\n0 0\n", "Std(2)", {"a": [0, 1]}),
    ("field GF(2)\nkind gl\nr 2\nN 2\nparams a b\ntemplate\n0 a\n0 0\ntemplate\n0 0\nb 0\n",
     "Std(2)*Std(2)", {"a": [0, 1], "b": [0, 1]}),
    ("field GF(3)\nkind gl\nr 2\nN 2\nparams a b\ntemplate\n0 a\n0 0\ntemplate\n0 0\nb 0\n",
     "Std(2)*Std(2)", {"a": [0, 1], "b": [0, 1]}),
    ("field GF(3)\nkind gl\nr 2\nN 2\nparams a\ntemplate\n0 a\n0 0\ntemplate\na 0\n0 0\n",
     "Tw(1,Std(2))", {"a": [0, 1]}),
]


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("text, module, coeffs", NILPOTENCY_CASES,
                         ids=["template", "operator", "commute", "matrix"])
def test_rejections_match_polyring_route(text, module, coeffs, variant):
    chart = parse_chart(text)
    curve = curve_from_coeffs(chart, GF(chart.p), coeffs)
    got = assert_curve_matches(curve, parse_module_expr(module), variant)
    assert got[0] is NotNilpotentError


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_curve_constraint_check_matches_polynomial_evaluation(data):
    field = data.draw(st.sampled_from(CURVE_FIELDS))
    chart = builtin_chart("sl2_line", field.p, r=1)
    ring = PolyRing(field, ("t",))
    t = ring.var("t")
    subs = {}
    for v in chart.params:
        subs[v] = ring.zero()
        for i in range(data.draw(st.integers(0, 2))):
            subs[v] = subs[v] + ring.constant(field.from_index(data.draw(st.integers(0, field.order - 1)))) * t**i
    if data.draw(st.booleans()):
        subs["c"] = -(subs["a"] * subs["a"])
        subs["b"] = ring.one()
    values = [subs[v] for v in chart.params]
    violated = not all(c.evaluate_in(ring, values).is_zero() for c in chart.constraints)
    if violated:
        with pytest.raises(ChartError, match="^curve violates a chart constraint identically in t$"):
            Curve(chart, subs)
    else:
        Curve(chart, subs)


GOLDEN_SEMICONT = {
    "semicont_ga_r.jsonl": ["--p", "3", "--chart", "ga_r", "--r", "2",
                            "--module", "Explicit(file=tests/golden/chain3.txt)",
                            "--curves", "10", "--seed", "3"],
    "semicont_multi_ga.jsonl": ["--p", "3", "--chart", "multi_ga", "--s-lines", "2", "--module",
                                "Explicit(file=tests/golden/chain3.txt)*Tw(1,Explicit(file=tests/golden/chain3.txt))",
                                "--variant", "exp", "--curves", "4", "--seed", "3"],
    "semicont_sl2_line_gf9_full.jsonl": ["--field", "GF(9)", "--chart", "sl2_line", "--r", "2",
                                         "--module", "Sym(2,Std(2))*Tw(1,Std(2))", "--variant", "full",
                                         "--curve-file", "tests/golden/sl2_line_gf9_curve.txt"],
    "semicont_sl2_line_gf9_exp.jsonl": ["--field", "GF(9)", "--chart", "sl2_line", "--r", "2",
                                        "--module", "Sym(2,Std(2))*Tw(1,Std(2))", "--variant", "exp",
                                        "--curve-file", "tests/golden/sl2_line_gf9_curve.txt"],
    # builtin curves whose parameters are products: a = b*d, c = -b*d^2 and B_s = f_s*C
    "semicont_sl2_line_gf3_full.jsonl": ["--p", "3", "--chart", "sl2_line", "--r", "2",
                                         "--module", "Std(2)+Tw(1,Std(2))", "--variant", "full",
                                         "--curves", "10", "--seed", "5"],
    "semicont_sl2_line_gf3_exp.jsonl": ["--p", "3", "--chart", "sl2_line", "--r", "2",
                                        "--module", "Std(2)+Tw(1,Std(2))", "--variant", "exp",
                                        "--curves", "10", "--seed", "5"],
    "semicont_sl2_line_gf5.jsonl": ["--p", "5", "--chart", "sl2_line", "--r", "2",
                                    "--module", "Std(2)*Tw(1,Std(2))", "--curves", "10", "--seed", "7"],
    "semicont_upper_glN_gf3.jsonl": ["--p", "3", "--chart", "upper_glN", "--N", "3", "--r", "2",
                                     "--module", "Std(3)", "--curves", "10", "--seed", "2"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_SEMICONT))
def test_semicont_report_matches_golden(golden, monkeypatch, capsys):
    """File paths in the arguments and the curve label are relative to the repository root."""
    root = Path(__file__).parent.parent
    monkeypatch.chdir(root)
    code = main(["semicont", *GOLDEN_SEMICONT[golden], "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (root / "tests" / "golden" / golden).read_text()
