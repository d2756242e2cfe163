"""Single finite-field points on the stack walker against the object walker they replaced.

`theta_full`, `theta_exp`, `jt_at_point`, `jt_power_at_point` and
`homotopy_theta` build the operator at a finite-field point with `batch`'s
module walker on integer stacks.  The oracle here is the route they took
before: `modules.eval_unipotent` on `texp_matrix` / `eval_ga_point` pairs of
`ExactMatrix` objects over GF(q)[t]/t^(p^r), reading off t-coefficients.
A second oracle is the route GF(p^n) points took before they ran on
regular-representation blocks: a constant curve, S = 1 stacks of GF(p^n)
coordinates of the ring `batch._Polys` replaced
(`poly_oracles.CoordinatePolys`), walked by `walk_oracles`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_oracles
from jtcalc import modules as modules_mod
from jtcalc import theta as theta_mod
from jtcalc.errors import JTCalcError
from jtcalc.fields import GF, TruncatedCurveRing, TruncElement
from jtcalc.jordan import jt_of_nilpotent
from jtcalc.linalg import ExactMatrix
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
    UnipotentPair,
    eval_ga_point,
    eval_unipotent,
    parse_module_expr,
    texp_element,
    texp_matrix,
)
from jtcalc.strata import builtin_chart
from jtcalc.theta import (
    KIND_GA,
    KIND_GL,
    KIND_MULTI_GA,
    CommutingTuple,
    homotopy_theta,
    jt_at_point,
    jt_power_at_point,
    theta_exp,
    theta_full,
)
from poly_oracles import CoordinatePolys

FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2), GF(5, 2), GF(3, 3)]
# GF(4), GF(8), GF(9), GF(25), GF(27), GF(81)
EXTENSION_FIELDS = [GF(2, 2), GF(2, 3), GF(3, 2), GF(5, 2), GF(3, 3), GF(3, 4, modulus=(2, 0, 0, 2, 1))]
NODE_KINDS = ["leaf", "trivial", "dual", "tensor", "sum", "sym", "ext", "tw"]


# -- the oracle: the object walker over GF(q)[t]/t^(p^r) ----------------------------------


def _embedded(leaf, field):
    if leaf.field == field:
        return leaf
    return Explicit(tuple(m.embed_into(field) for m in leaf.matrices), label=leaf.label)


def oracle_operator(e, tup, variant):
    """The variant's operator at the point, as `eval_unipotent` on truncated-ring objects builds it."""
    p, r = tup.p, tup.height
    ring = TruncatedCurveRing(tup.domain, 1 if tup.kind == KIND_MULTI_GA else r)
    leaves = {leaf: _embedded(leaf, tup.domain) for leaf in e.leaves() if isinstance(leaf, Explicit)}
    if tup.kind == KIND_MULTI_GA:
        # both variants: the t coefficient of e on prod_i exp(t a_i alpha_i)
        pairs = {}
        for leaf, emb in leaves.items():
            pair = None
            for a, alpha in zip(tup.scalars(), emb.matrices):
                factor = texp_element(ring.t() * a, alpha)
                pair = factor if pair is None else pair * factor
            pairs[leaf] = pair
        return eval_unipotent(e, None, pairs).g.coefficient(1)

    def rho(gl_pair, c):
        if tup.kind == KIND_GL:
            return eval_unipotent(e, gl_pair).g
        return eval_unipotent(e, None, {leaf: eval_ga_point(emb, c) for leaf, emb in leaves.items()}).g

    if variant == "full":
        pair = None
        if tup.kind == KIND_GL:
            for s, b in enumerate(tup.mats):
                factor = texp_matrix(b, ring)
                twisted = UnipotentPair(factor.g.subs_power(p**s), factor.g_inv.subs_power(p**s), checked=False)
                pair = twisted if pair is None else pair * twisted
        c = TruncElement(ring, {p**s: a for s, a in enumerate(tup.scalars())}) if tup.kind == KIND_GA else None
        return rho(pair, c).coefficient(p ** (r - 1))
    total = None
    for s in range(r):
        pair = texp_matrix(tup.mats[s], ring) if tup.kind == KIND_GL else None
        c = TruncElement(ring, {1: tup.scalars()[s]}) if tup.kind == KIND_GA else None
        term = rho(pair, c).coefficient(p ** (r - 1 - s))
        total = term if total is None else total + term
    return total


def coordinate_route_operator(e, tup, variant):
    """The variant's operator as a constant curve of S = 1 `CoordinatePolys` stacks of GF(p^n)
    coordinates."""
    theta_mod._check_pairing(e, tup.kind, tup.p, tup.height)
    ring = CoordinatePolys(tup.domain)
    op = walk_oracles.curve_operator(ring, tup.kind, e, variant, [np.array([[[v.coeffs for v in row] for row in m.to_rows()]]) for m in tup.mats])
    return ExactMatrix.from_coords(tup.domain, op[0])


# -- points and modules -------------------------------------------------------------------


def _element(draw, field):
    coords = st.lists(st.integers(0, field.p - 1), min_size=field.n, max_size=field.n)
    return field.element(draw(coords))


def _commuting_family(draw, field, size, count):
    """count commuting p-nilpotent size x size matrices: polynomials without constant term in
    one strictly upper triangular X (X^size = 0, size <= p), conjugated by a unitriangular L."""
    zero, one = field.zero(), field.one()
    x = ExactMatrix.from_rows(field, [[_element(draw, field) if j > i else zero for j in range(size)]
                                      for i in range(size)])
    low = ExactMatrix.from_rows(field, [[one if i == j else _element(draw, field) if j < i else zero
                                         for j in range(size)] for i in range(size)])
    low_inv = low.inverse()
    mats = []
    for _ in range(count):
        b = ExactMatrix.zeros(field, size, size)
        power = x
        for _ in range(1, size):
            b = b + power.scalar_mul(_element(draw, field))
            power = power @ x
        mats.append(low @ b @ low_inv)
    return mats


@st.composite
def gl_points(draw, field):
    size = draw(st.integers(1, min(3, field.p)))
    r = draw(st.integers(1, 3))
    return CommutingTuple.gl(_commuting_family(draw, field, size, r))


@st.composite
def explicit_leaves(draw, field, height):
    """An Explicit module of the given height over GF(p) or over the point's field."""
    leaf_field = draw(st.sampled_from([GF(field.p), field]))
    size = draw(st.integers(1, min(3, field.p)))
    return Explicit(tuple(_commuting_family(draw, leaf_field, size, height)), label="drawn")


@st.composite
def module_trees(draw, leaf, depth=2, cap=8):
    """A module tree over the leaf with every node kind; trees above `cap` dimensions become the leaf."""
    kind = draw(st.sampled_from(NODE_KINDS if depth else ["leaf"]))
    inner = lambda: draw(module_trees(leaf, depth - 1, cap))  # noqa: E731
    if kind == "leaf":
        e = leaf
    elif kind == "trivial":
        e = Trivial(draw(st.integers(1, 2)))
    elif kind == "dual":
        e = Dual(inner())
    elif kind == "tensor":
        e = Tensor(inner(), inner())
    elif kind == "sum":
        e = DirectSum(inner(), inner())
    elif kind == "sym":
        e = Sym(draw(st.integers(0, 2)), inner())
    elif kind == "ext":
        e = Ext(draw(st.integers(0, 2)), inner())
    else:
        e = Twist(draw(st.integers(0, 2)), inner())
    return e if e.dim() <= cap else leaf


@st.composite
def points_with_modules(draw, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    kind = draw(st.sampled_from([KIND_GL, KIND_GA, KIND_MULTI_GA]))
    if kind == KIND_GL:
        tup = draw(gl_points(field))
        leaf = Std(tup.size)
    else:
        height = draw(st.integers(1, 3))
        scalars = [_element(draw, field) for _ in range(height)]
        tup = (CommutingTuple.ga if kind == KIND_GA else CommutingTuple.multi_ga)(scalars, field)
        leaf = draw(explicit_leaves(field, height))
    return tup, draw(module_trees(leaf))


# -- the comparison -----------------------------------------------------------------------


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of the JTCalcError it raises."""
    try:
        return fn(*args)
    except JTCalcError as exc:
        return type(exc), str(exc)


def assert_point_matches(e, tup):
    p, field = tup.p, tup.domain
    ops = {v: _outcome(oracle_operator, e, tup, v) for v in ("full", "exp")}
    if isinstance(ops["full"], tuple):
        # a module the point cannot evaluate fails alike on both walkers
        for variant, build in (("full", theta_full), ("exp", theta_exp)):
            assert _outcome(build, e, tup) == ops[variant]
            assert _outcome(jt_at_point, e, tup, variant) == ops[variant]
        return
    assert theta_full(e, tup) == ops["full"]
    assert theta_exp(e, tup) == ops["exp"]
    for variant, op in ops.items():
        assert jt_at_point(e, tup, variant) == jt_of_nilpotent(op, p)
        for j in range(2, p):
            assert jt_power_at_point(e, tup, variant, j) == jt_of_nilpotent(op.pow(j), p)
    for sv, tv in ((1, 0), (0, 1), (1, p - 1)):
        s_val, t_val = field.from_int(sv), field.from_int(tv)
        want = ops["exp"].scalar_mul(s_val) + ops["full"].scalar_mul(t_val)
        assert homotopy_theta(e, tup, s_val, t_val) == want


@given(points_with_modules())
@settings(max_examples=120, deadline=None)
def test_drawn_points_match_the_object_walker(case):
    tup, e = case
    assert_point_matches(e, tup)


def assert_matches_coordinate_route(e, tup):
    """Operators and Jordan types on regular-representation blocks equal those on GF(p^n) coordinates."""
    for variant, build in (("full", theta_full), ("exp", theta_exp)):
        want = _outcome(coordinate_route_operator, e, tup, variant)
        if isinstance(want, tuple):
            assert _outcome(build, e, tup) == want
            assert _outcome(jt_at_point, e, tup, variant) == want
            continue
        assert build(e, tup) == want
        assert jt_at_point(e, tup, variant) == jt_of_nilpotent(want, tup.p)


@given(points_with_modules(EXTENSION_FIELDS))
@settings(max_examples=100, deadline=None)
def test_drawn_points_match_the_coordinate_route(case):
    tup, e = case
    assert_matches_coordinate_route(e, tup)


E3 = ExactMatrix.from_rows(GF(3), [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
# height-2 and height-3 modules over GF(3): u_0 -> J, u_1 -> J^2 (, u_2 -> 2 J^2)
CHAINS = {h: Explicit((E3, E3 @ E3, (E3 @ E3).scalar_mul(2))[:h], label=f"chain{h}") for h in (2, 3)}
GL_MODULES = ["Std(2)", "Trivial(2)", "Dual(Std(2))", "Std(2)*Tw(1,Std(2))", "Std(2)+Tw(1,Std(2))",
              "Sym(2,Std(2))*Tw(1,Std(2))", "Ext(2,Std(2)+Std(2))", "Dual(Sym(2,Std(2)))*Tw(1,Std(2))",
              "Tw(2,Ext(2,Std(2)*Std(2)))"]
GA_MODULES = ["{e}", "Dual({e})", "{e}*Tw(1,{e})", "{e}+Trivial(1)", "Sym(2,{e})", "Ext(2,{e})",
              "Dual({e})*Tw(1,Sym(2,{e}))", "Tw(1,Ext(2,{e}+{e}))"]


def _module(text, height=2):
    return parse_module_expr(text.replace("{e}", "Explicit(file=chain)"), loader=lambda path: CHAINS[height])


@pytest.mark.parametrize("text", GL_MODULES)
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("field", [GF(3), GF(3, 2)], ids=["gf3", "gf9"])
def test_sl2_line_points_match_the_object_walker(text, r, field):
    chart = builtin_chart("sl2_line", 3, r=r)
    g = field.gen()
    values = [g, field.one(), -(g * g), g + field.one(), field.from_int(2), g][:3 + r]
    assert_point_matches(_module(text), chart.tuple_at(values))


@pytest.mark.parametrize("text", GA_MODULES)
@pytest.mark.parametrize("height", [2, 3])
@pytest.mark.parametrize("kind", [KIND_GA, KIND_MULTI_GA])
@pytest.mark.parametrize("field", [GF(3), GF(3, 2)], ids=["gf3", "gf9"])
def test_additive_points_match_the_object_walker(text, height, kind, field):
    g = field.gen()
    scalars = [g + field.one(), field.from_int(2) * g, g * g][:height]
    tup = (CommutingTuple.ga if kind == KIND_GA else CommutingTuple.multi_ga)(scalars, field)
    assert_point_matches(_module(text, height), tup)


@pytest.mark.parametrize("text", GL_MODULES)
@pytest.mark.parametrize("field", EXTENSION_FIELDS[2:], ids=["gf9", "gf25", "gf27", "gf81"])
def test_sl2_line_points_match_the_coordinate_route(text, field):
    g = field.gen()
    values = [g, field.one(), -(g * g), g + field.one(), field.from_int(2)]
    assert_matches_coordinate_route(_module(text), builtin_chart("sl2_line", field.p, r=2).tuple_at(values))


@pytest.mark.parametrize("text", GA_MODULES)
@pytest.mark.parametrize("kind", [KIND_GA, KIND_MULTI_GA])
@pytest.mark.parametrize("field", [EXTENSION_FIELDS[i] for i in (2, 4, 5)], ids=["gf9", "gf27", "gf81"])
def test_additive_points_match_the_coordinate_route(text, kind, field):
    g = field.gen()
    tup = (CommutingTuple.ga if kind == KIND_GA else CommutingTuple.multi_ga)([g + field.one(), g * g], field)
    assert_matches_coordinate_route(_module(text), tup)


def test_finite_field_points_do_not_reach_the_object_walker(monkeypatch):
    """With `eval_unipotent` raising wherever it is bound, finite-field points still get the oracle's answers."""
    field = GF(3, 2)
    cases = [
        (_module("Sym(2,Std(2))*Tw(1,Dual(Std(2)))"),
         builtin_chart("sl2_line", 3, r=2).tuple_at([field.one(), field.one(), -field.one(),
                                                     field.gen(), field.one()])),
        (_module("Dual(Std(2))*Std(2)"),
         builtin_chart("sl2_line", 3, r=2).tuple_at([GF(3).from_int(v) for v in (1, 1, 2, 1, 2)])),
        (_module("{e}*Tw(1,Dual({e}))"), CommutingTuple.ga([field.gen(), field.one()], field)),
        (_module("{e}*Dual({e})"), CommutingTuple.multi_ga([field.gen(), field.one()], field)),
    ]
    want = []
    for e, tup in cases:
        full, exp = oracle_operator(e, tup, "full"), oracle_operator(e, tup, "exp")
        want.append((jt_of_nilpotent(full, tup.p), full, exp, full + exp))

    def refuse(*args, **kwargs):
        raise AssertionError("a finite-field point reached eval_unipotent")

    monkeypatch.setattr(modules_mod, "eval_unipotent", refuse)
    # no operator of `theta` goes through the object walker, over any domain
    assert not hasattr(theta_mod, "eval_unipotent")
    for (e, tup), expected in zip(cases, want):
        one = tup.domain.one()
        got = (jt_at_point(e, tup), theta_full(e, tup), theta_exp(e, tup),
               homotopy_theta(e, tup, one, one))
        assert got == expected


@pytest.mark.parametrize("field", EXTENSION_FIELDS[:3])
def test_homotopy_scales_by_elements_outside_the_prime_field(field):
    """s and t act on the stack through their regular-representation blocks."""
    g = field.gen()
    e12 = ExactMatrix.from_rows(field, [[0, 1], [0, 0]])
    tup = CommutingTuple.gl([e12.scalar_mul(g), e12])
    e = parse_module_expr("Sym(2,Std(2))*Tw(1,Std(2))")
    exp, full = oracle_operator(e, tup, "exp"), oracle_operator(e, tup, "full")
    for s_val, t_val in ((g, field.one()), (g * g + field.one(), g), (field.zero(), g)):
        want = exp.scalar_mul(s_val) + full.scalar_mul(t_val)
        assert homotopy_theta(e, tup, s_val, t_val) == want
