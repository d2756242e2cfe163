"""How module trees are traversed: `ModuleExpr.children`, the cached t-supports, and walks that
leave no garbage.

`leaves()` and `_has_dual` read the one `children` accessor; the oracle is
the per-class recursion they replaced.  Leaf order matters: it fixes the
keys of `batch._explicit_terms` and the leaf order of `batch._type_plan`.
The type plan and the walker read one cached support function,
`batch._support`: the plan with every Explicit degree up to the top, the
walker with the degrees each Explicit leaf's series has at the point.  A
plan's split must hold at every point, so the plan's supports contain the
walker's, which contain every degree the walk gives.  No function of the
walk refers to itself, so a walk leaves no reference cycle behind.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.batch import (
    KIND_GA,
    KIND_GL,
    KIND_MULTI_GA,
    _explicit_terms,
    _GroupElement,
    _leaf_pairs,
    _levels,
    _module,
    _plan_key,
    _Series,
    _support,
    _terms,
    _walk_key,
)
from jtcalc.fields import GF
from jtcalc.modules import DirectSum, Dual, Explicit, Ext, Std, Sym, Tensor, Twist, parse_module_expr
from jtcalc.strata import builtin_chart, builtin_curves, rank_locus_minors, semicontinuity_check, tabulate_jt
from jtcalc.theta import jt_at_point
from test_demand_walk import _pointwise_stacks, _subtrees
from test_point_stack import explicit_leaves, module_trees

FIELDS = [GF(2), GF(3), GF(5), GF(3, 2)]


# -- leaves and Dual, against the per-class recursion ------------------------------------------


def recursive_leaves(e):
    if isinstance(e, (Tensor, DirectSum)):
        return recursive_leaves(e.left) + recursive_leaves(e.right)
    if isinstance(e, (Dual, Sym, Ext, Twist)):
        return recursive_leaves(e.inner)
    return [e]


def recursive_has_dual(e):
    if isinstance(e, Dual):
        return True
    if isinstance(e, (Tensor, DirectSum)):
        return recursive_has_dual(e.left) or recursive_has_dual(e.right)
    if isinstance(e, (Sym, Ext, Twist)):
        return recursive_has_dual(e.inner)
    return False


@st.composite
def mixed_trees(draw):
    """Trees over distinct leaves of every leaf kind, so that their order shows."""
    field = draw(st.sampled_from(FIELDS))
    pool = [Std(1), Std(2), draw(explicit_leaves(field, 1)), draw(explicit_leaves(field, 2))]
    return draw(module_trees(st.sampled_from(pool), depth=3))


@given(mixed_trees())
@settings(max_examples=200, deadline=None)
def test_leaves_and_dual_match_the_per_class_recursion(e):
    assert [id(leaf) for leaf in e.leaves()] == [id(leaf) for leaf in recursive_leaves(e)]
    assert e._has_dual == recursive_has_dual(e)


# -- supports: the type plan's contain the walker's, which contain the walk's degrees ----------------


@st.composite
def walks(draw):
    """(field, kind, tree, stacks of a `_Pointwise` ring of 1 to 3 points) at heights 1 to 3;
    the additive kinds take trees over two Explicit leaves."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from([KIND_GL, KIND_GA, KIND_MULTI_GA]))
    r = draw(st.integers(1, 3))
    size = 1
    if kind == KIND_GL:
        size = draw(st.integers(1, 3))
        pool = [Std(size)]
    else:
        pool = [draw(explicit_leaves(field, r)), draw(explicit_leaves(field, r))]
    ring, mats = _pointwise_stacks(draw, field, [(size, size)] * r)
    return field, kind, draw(module_trees(st.sampled_from(pool), depth=3)), ring, mats


@given(walks(), st.sampled_from(["full", "exp"]))
@settings(max_examples=150, deadline=None)
def test_plan_supports_contain_the_walkers(case, variant):
    field, kind, e, ring, mats = case
    p, r = field.p, len(mats)
    with_inv = e._has_dual
    explicit = [leaf for leaf in e.leaves() if isinstance(leaf, Explicit)]
    if kind != KIND_GL and not explicit:
        return
    terms = {leaf: _explicit_terms(leaf, field) for leaf in explicit}
    for top, s in _terms(kind, variant, p, r):
        series = _Series(ring, top)
        # the key `_type_plan` gives the term: every Explicit degree up to top
        plan = _plan_key(p, r, top, s, explicit)
        # the key `_operators` gives the walk: the degrees the point's series have
        if kind == KIND_GL:
            element, pairs = _GroupElement(ring, mats if s is None else [mats[s]], top, with_inv), None
        else:
            element, pairs = None, _leaf_pairs(series, kind, mats, s, terms, with_inv)
        walk = _walk_key(element, pairs)
        for node in _subtrees(e):
            walked = _support(node, top, p, *walk)
            assert walked <= _support(node, top, p, *plan)
            if isinstance(node, (Sym, Ext)):
                assert all(a <= b for a, b in zip(_levels(node, top, p, *walk), _levels(node, top, p, *plan)))
            for g in _module(series, node, set(series.degrees), element, pairs, walk):
                assert {d for d, m in g.items() if m.any()} <= walked


# -- no cycles --------------------------------------------------------------------------------


def _cyclic_garbage(call):
    """The objects the cyclic collector finds after call(), run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_walks_leave_no_reference_cycles():
    f5 = GF(5)
    chart = builtin_chart("sl2_line", 5, r=2)
    e = parse_module_expr("Std(2)*Tw(1,Std(2))")
    curve = builtin_curves(chart, 1, 1)[0]
    tup = chart.tuple_at([f5.from_int(v) for v in (1, 1, 4, 1, 2)])
    minors_chart = builtin_chart("sl2_line", 3, r=2)
    calls = {
        "sweep": lambda: tabulate_jt(chart, e, f5),
        "curve": lambda: semicontinuity_check(curve, e),
        "minors": lambda: rank_locus_minors(minors_chart, e, "full", 1, 2),
        "point": lambda: jt_at_point(e, tup),
    }
    for name, call in calls.items():
        call()  # warm-up: the caches of plans, supports and tables fill here
        assert _cyclic_garbage(call) == 0, name
