"""The demand-driven module walker and block-pivot ranks against the routes they replaced.

`batch._module` asks each node of the module tree only for the t-degrees
its parent reads, and the `gl` group element is formed degree by degree
from the base-p digits of the degree.  The oracle is the unrestricted walk
(`walk_oracles`), which multiplied out every degree up to the truncation
and built the group element as a product of per-factor exponentials.  Along
a curve the oracle walks the coordinate ring that `batch._Polys` replaced
(`poly_oracles.CoordinatePolys`), compared through `lift`.
`linalg._block_rank` ranks regular-representation block matrices by
fraction-free block steps; the oracle is the GF(p) row reduction
`linalg._gfp_rref` of the same matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_oracles as oracle
from jtcalc.batch import (
    KIND_GA,
    KIND_GL,
    KIND_MULTI_GA,
    _explicit_terms,
    _GroupElement,
    _leaf_pairs,
    _module,
    _Polys,
    _Series,
    _terms,
    curve_operator,
)
from jtcalc.errors import JTCalcError
from jtcalc.fields import GF, Polynomial, PolyRing
from jtcalc.linalg import ExactMatrix, _block_rank, _gfp_rref, _Pointwise
from jtcalc.modules import Dual, Explicit, Tensor, parse_module_expr
from jtcalc.monomials import _Monomials
from jtcalc.strata import builtin_chart, enumerate_points
from jtcalc.theta import theta_exp
from poly_oracles import CoordinatePolys
from test_point_stack import _commuting_family, explicit_leaves, module_trees
from theta_oracles import monomial_matrix

FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2), GF(5, 2), GF(3, 3)]


# -- the order of g^-1 -----------------------------------------------------------------------

F3 = GF(3)
UPPER = ExactMatrix.from_rows(F3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
LOWER = ExactMatrix.from_rows(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
# recorded from the product-of-factors group element: g^-1 = exp(-t^9 B_2) exp(-t^3 B_1) exp(-t B_0)
PINNED = {
    "full": [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 2, 0, 0], [0, 0, 0, 1, 0, 0, 0, 2, 0],
             [2, 0, 0, 0, 2, 0, 0, 0, 2], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0],
             [0, 0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 0]],
    "exp": [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 2, 0, 0], [0, 0, 0, 1, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0]],
}


def _walked(e, mats, variant):
    """The variant's operator on the one-point stacks of mats, which need not make a tuple."""
    return curve_operator(_Pointwise(mats[0].domain), KIND_GL, e, variant, [m._data for m in mats])


# the ids name the operator `theta_full` or `theta_exp` builds at a point
@pytest.mark.parametrize("variant", [pytest.param("full", id="full-theta_full"),
                                     pytest.param("exp", id="exp-theta_exp")])
def test_dual_operator_on_a_non_commuting_tuple_is_pinned(variant):
    """On matrices that do not commute, g^-1[d] is the reverse-order product of the digits'
    terms times (-1)^(sum of digits), not g[d] with a sign."""
    mats = [UPPER, LOWER, ExactMatrix.zeros(F3, 3, 3)]
    e = parse_module_expr("Dual(Std(3))*Std(3)")
    assert ExactMatrix._of_stack(F3, _walked(e, mats, variant)) == ExactMatrix.from_rows(F3, PINNED[variant])


@pytest.mark.parametrize("variant, message", [("full", "matrix 1 is not square of size 2"),
                                              ("exp", r"Std\(2\) does not match group element size 3")])
def test_unvalidated_matrices_of_different_sizes_are_rejected(variant, message):
    """The full group element forms most degrees without a product of two factors, so the sizes
    are checked where it is built; the exponential one meets each factor alone."""
    mats = [ExactMatrix.zeros(F3, 2, 2), UPPER]
    with pytest.raises(JTCalcError, match=f"^{message}$"):
        _walked(parse_module_expr("Std(2)*Tw(1,Std(2))"), mats, variant)


@st.composite
def unvalidated_dual_points(draw):
    """p-nilpotent matrices that need not commute, and a module tree with a Dual."""
    field = draw(st.sampled_from(FIELDS))
    size = draw(st.integers(2, min(3, field.p)))
    # g^-1[d] multiplies two or more terms only at height 3, where d = i_0 + i_1 p can be read
    r = draw(st.sampled_from([1, 2, 3, 3, 3]))
    mats = [_commuting_family(draw, field, size, 1)[0] for _ in range(r)]
    std = parse_module_expr(f"Std({size})")
    e = draw(module_trees(std, depth=1, cap=3))
    e = draw(st.sampled_from([Dual(e), Tensor(Dual(e), e), Tensor(e, Dual(e)), Dual(Tensor(e, std))]))
    return mats, e if e.dim() <= 9 else Tensor(Dual(std), std)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except JTCalcError as exc:
        return type(exc), str(exc)


@given(unvalidated_dual_points(), st.sampled_from(["full", "exp"]))
@settings(max_examples=100, deadline=None)
def test_unvalidated_points_with_dual_match_the_product_of_factors(case, variant):
    mats, e = case
    ring = _Pointwise(mats[0].domain)
    want = oracle.curve_operator(ring, KIND_GL, e, variant, [m._data for m in mats])
    assert np.array_equal(_walked(e, mats, variant), want)


# -- the three rings -------------------------------------------------------------------------


def _draw_coords(draw, shape, p):
    cells = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(0, p - 1), min_size=cells, max_size=cells)),
                    dtype=np.int64).reshape(shape)


def _pointwise_stacks(draw, field, shapes):
    """A `_Pointwise` ring of 1 to 3 points, and one stack per (rows, cols) shape."""
    ring = _Pointwise(field, draw(st.integers(1, 3)))
    return ring, [ring.lift(_draw_coords(draw, (ring.count, a, b, field.n), field.p)) for a, b in shapes]


def _coordinate_stacks(draw, field, shapes):
    """A `CoordinatePolys` ring, and one reduced stack of degree below 3 in s per shape."""
    ring = CoordinatePolys(field)
    return ring, [ring.reduce(_draw_coords(draw, (draw(st.integers(1, 3)), a, b, field.n), field.p))
                  for a, b in shapes]


def _monomial_matrices(draw, field, shapes):
    """Matrices over GF(q)[x, y] with at most two terms of degree below 3 per entry."""
    poly = PolyRing(field, ("x", "y"))
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
    out = []
    for a, b in shapes:
        rows = []
        for _ in range(a):
            rows.append([])
            for _ in range(b):
                terms = {draw(monomials): field.element(list(_draw_coords(draw, (field.n,), field.p)))
                         for _ in range(draw(st.integers(0, 2)))}
                rows[-1].append(Polynomial(poly, terms))
        out.append(ExactMatrix.from_rows(poly, rows))
    return poly, out


RINGS = ["pointwise", "polys", "monomials"]


@st.composite
def trees_on_rings(draw):
    """(field, point kind, module tree, the shapes of the tuple's matrices), at heights 1 to 3."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from([KIND_GL, KIND_GA, KIND_MULTI_GA]))
    r = draw(st.integers(1, 3))
    if kind == KIND_GL:
        size = draw(st.integers(1, 3))
        leaf, shapes = parse_module_expr(f"Std({size})"), [(size, size)] * r
    else:
        leaf, shapes = draw(explicit_leaves(field, r)), [(1, 1)] * r
    return field, kind, draw(module_trees(leaf, depth=3, cap=8)), shapes


def _compare(ring_kind, field, kind, e, shapes, variant, draw):
    if ring_kind == "monomials":
        poly, matrices = _monomial_matrices(draw, field, shapes)
        outs = []
        for build in (curve_operator, oracle.curve_operator):
            ring = _Monomials(poly)
            op = _outcome(build, ring, kind, e, variant, [ring.lift_matrix(m) for m in matrices])
            outs.append(op if isinstance(op, tuple) else monomial_matrix(ring, op))
        assert outs[0] == outs[1]
        return
    if ring_kind == "pointwise":
        ring, mats = _pointwise_stacks(draw, field, shapes)
        got = _outcome(curve_operator, ring, kind, e, variant, mats)
        want = _outcome(oracle.curve_operator, ring, kind, e, variant, mats)
    else:
        # the block ring against the coordinate ring it replaced, through `lift`
        coordinates, mats = _coordinate_stacks(draw, field, shapes)
        ring = _Polys(field)
        got = _outcome(curve_operator, ring, kind, e, variant, [ring.lift(m) for m in mats])
        want = _outcome(oracle.curve_operator, coordinates, kind, e, variant, mats)
        want = want if isinstance(want, tuple) else ring.lift(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("ring_kind", RINGS)
@given(trees_on_rings(), st.sampled_from(["full", "exp"]), st.data())
@settings(max_examples=80, deadline=None)
def test_drawn_trees_match_the_unrestricted_walk(ring_kind, case, variant, data):
    field, kind, e, shapes = case
    _compare(ring_kind, field, kind, e, shapes, variant, data.draw)


@pytest.mark.parametrize("text", ["Sym(2,Std(2))*Tw(1,Std(2))", "Ext(2,Std(2)*Tw(1,Std(2)))",
                                  "Dual(Sym(2,Std(2)))*Tw(2,Sym(2,Std(2)))", "Tw(1,Tw(1,Std(2)))*Std(2)",
                                  "Sym(3,Std(2)+Tw(1,Dual(Std(2))))", "Sym(4,Std(2))", "Ext(3,Std(2)*Std(2))"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("variant", ["full", "exp"])
def test_named_trees_match_the_unrestricted_walk(text, r, variant):
    rng = np.random.default_rng(r)
    # over GF(2) the exponential factors have degrees 0 and 1 only, so the levels of a
    # recurrence have different supports
    for field in (GF(2), GF(3), GF(3, 2), GF(5)):
        ring = _Pointwise(field, 2)
        mats = [ring.lift(rng.integers(0, field.p, (2, 2, 2, field.n))) for _ in range(r)]
        e = parse_module_expr(text)
        want = oracle.curve_operator(ring, KIND_GL, e, variant, mats)
        assert np.array_equal(curve_operator(ring, KIND_GL, e, variant, mats), want)


def test_twists_pass_the_degree_zero_identity_through(monkeypatch):
    """Every node's degree-0 coefficient is the identity, which Tw keeps: the Frobenius acts
    only on the other coefficients (here the exp operator at a GF(27) point)."""
    field = GF(3, 3)
    chart = builtin_chart("sl2_line", 3, r=2)
    tup = next(tup for _, tup in enumerate_points(chart, field, budget=1, samples=20, seed=1) if not tup.is_zero())
    seen = []
    frobenius = _Pointwise.frobenius

    def recorded(self, m, i):
        identity = np.broadcast_to(np.eye(m.shape[1], dtype=np.int64), m.shape)
        seen.append(m.shape[1] == m.shape[2] and np.array_equal(m % self.p, identity))
        return frobenius(self, m, i)

    monkeypatch.setattr(_Pointwise, "frobenius", recorded)
    theta_exp(parse_module_expr("Std(2)*Tw(1,Std(2))"), tup)
    assert seen and not any(seen)


def _subtrees(e):
    yield e
    for name in ("inner", "left", "right"):
        if hasattr(e, name):
            yield from _subtrees(getattr(e, name))


@pytest.mark.parametrize("ring_kind", RINGS)
@given(trees_on_rings(), st.sampled_from(["full", "exp"]), st.data())
@settings(max_examples=40, deadline=None)
def test_every_walked_series_is_the_identity_at_degree_zero(ring_kind, case, variant, data):
    """What lets a tensor product take its degree-0 coefficient as the identity: every node of
    the tree, on every ring and at every operator term, gives it as g[0] and g^-1[0]."""
    field, kind, e, shapes = case
    if ring_kind == "monomials":
        poly, matrices = _monomial_matrices(data.draw, field, shapes)
        ring = _Monomials(poly)
        mats = [ring.lift_matrix(m) for m in matrices]
    elif ring_kind == "pointwise":
        ring, mats = _pointwise_stacks(data.draw, field, shapes)
    else:
        ring = _Polys(field)
        mats = [ring.lift(m) for m in _coordinate_stacks(data.draw, field, shapes)[1]]
    leaves = {leaf: _explicit_terms(leaf, field) for leaf in e.leaves() if isinstance(leaf, Explicit)}
    for top, s in _terms(kind, variant, field.p, len(mats)):
        # each operator term's group element, or Explicit leaf series, with g^-1 for every tree
        series = _Series(ring, top)
        if kind == KIND_GL:
            element, pairs = _GroupElement(ring, mats if s is None else [mats[s]], top, True), None
        elif leaves:
            element, pairs = None, _leaf_pairs(series, kind, mats, s, leaves, True)
        else:
            continue
        for node in _subtrees(e):
            for g in _module(series, node, element, pairs):
                assert np.array_equal(g[0], ring.identity(node.dim()))


# -- block-pivot ranks -----------------------------------------------------------------------


@st.composite
def block_matrices(draw):
    """The GF(p) block matrix of a GF(p^n) matrix; a product through k columns bounds its rank
    by k, and k = 0 gives the zero matrix."""
    field = draw(st.sampled_from(FIELDS + [GF(2, 3), GF(7), GF(7, 2)]))
    rows, cols, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    left, right, full = (_Pointwise(field).lift(_draw_coords(draw, (a, b, field.n), field.p))[0]
                         for a, b in ((rows, k), (k, cols), (rows, cols)))
    # the block matrix of a product is the product of the block matrices
    return field, draw(st.sampled_from([left @ right % field.p, full]))


@given(block_matrices())
@settings(max_examples=300, deadline=None)
def test_block_rank_matches_the_gfp_row_reduction(case):
    field, m = case
    assert _block_rank(m, field.p, field.n) * field.n == len(_gfp_rref(m, field.p)[1])
