"""Sweep Jordan types by the module's structure, against the walk of the whole module.

A sweep splits direct sums, and tensor products whose operator is
X (x) 1 + 1 (x) Y at every point, into leaves (`batch._type_plan`); it
ranks each leaf's operator and folds the leaf types with `jt_sum` /
`jt_tensor`.  The oracle is the plan with the one leaf e: the walk of the
whole module, ranked as one operator.  Plans are decided from t-supports
alone, so the unit tests here build them without evaluating anything.
"""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jtcalc import batch
from jtcalc.errors import JTCalcError, NotNilpotentError
from jtcalc.fields import GF
from jtcalc.jordan import TENSOR_DIM_CAP, parse_jordan_type
from jtcalc.modules import DirectSum, Std, Tensor, Twist, load_explicit_file, parse_module_expr
from jtcalc.strata import builtin_chart, tabulate_jt, verify_closed_stratum
from test_point_stack import explicit_leaves, module_trees

CHAIN3 = load_explicit_file(Path(__file__).parent / "golden" / "chain3.txt")


def plan(text, p, r, variant="full", kind="gl"):
    return batch._type_plan(parse_module_expr(text), kind, variant, p, r)


def is_leaf(text, p, r, variant="full", kind="gl"):
    """Whether the plan of the module is the module alone: one walk of the whole tree."""
    leaves, tree = plan(text, p, r, variant, kind)
    return leaves == (parse_module_expr(text),) and tree == 0


def whole_module(e, *args):
    """The plan with one leaf, e itself: the sweep before type plans."""
    return (e,), 0


# -- what a plan splits -------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("variant", ["full", "exp"])
def test_a_tensor_with_a_twisted_factor_splits(p, variant):
    # at r = 2 the factors' supports are {0, ..., p} (or {0, ..., p - 1}) and {0, p}
    assert plan("Std(2)*Tw(1,Std(2))", p, 2, variant) == ((Std(2), Twist(1, Std(2))), ("tensor", 0, 1))


@pytest.mark.parametrize("text", ["Std(2)*Std(2)", "Sym(2,Std(2))*Sym(3,Std(2))"])
@pytest.mark.parametrize("variant", ["full", "exp"])
def test_tensors_whose_supports_meet_do_not_split(text, variant):
    # degrees 1 and p - 1 of the two factors reach the top degree p together
    assert is_leaf(text, 5, 2, variant)


def test_the_exponential_operator_splits_only_when_every_term_does():
    # its last term reads degree 1 alone, where every tensor splits; the first term reads p
    assert not is_leaf("Std(2)*Std(2)", 5, 1, "exp")
    assert is_leaf("Std(2)*Std(2)", 5, 2, "exp")
    # at r = 3 the full operator reads degree 9 of Std(2) (x) Tw(1,Std(2)), which 3 + 6
    # reaches; the exponential one's first term reads it of exp(t B_0), whose degrees are 0..2
    assert is_leaf("Std(2)*Tw(1,Std(2))", 3, 3, "full")
    assert not is_leaf("Std(2)*Tw(1,Std(2))", 3, 3, "exp")


def test_direct_sums_always_split_and_nest():
    leaves, tree = plan("Std(2)*Std(2)+Tw(1,Std(2))*Std(2)", 5, 2)
    assert leaves == (Tensor(Std(2), Std(2)), Twist(1, Std(2)), Std(2))
    assert tree == ("sum", 0, ("tensor", 1, 2))
    # the multi_ga operator reads degree 1 only
    assert plan("Std(2)*Std(2)", 3, 2, kind="multi_ga")[1] == ("tensor", 0, 1)


def test_a_tensor_above_the_cap_stays_a_leaf():
    side = 64
    assert side * side == TENSOR_DIM_CAP
    assert plan(f"Std({side})*Tw(1,Std({side}))", 3, 2)[1] == ("tensor", 0, 1)
    assert is_leaf(f"Std({side})*Tw(1,Std({side + 1}))", 3, 2)
    # a sum below a tensor at the cap splits too
    e = Tensor(DirectSum(Std(side - 1), Std(1)), Twist(1, Std(side)))
    assert batch._type_plan(e, "gl", "full", 3, 2)[1] == ("tensor", ("sum", 0, 1), 2)


def test_an_unknown_variant_is_left_to_the_walk():
    assert is_leaf("Std(2)*Tw(1,Std(2))", 3, 2, "bogus")
    chart = builtin_chart("sl2_line", 3, r=2)
    with pytest.raises(JTCalcError, match="unknown operator variant 'bogus'"):
        tabulate_jt(chart, parse_module_expr("Std(2)*Tw(1,Std(2))"), GF(3), "bogus")


# -- leaves that are not p-nilpotent --------------------------------------------------------------


CHART = builtin_chart("sl2_line", 5, r=2)
E = parse_module_expr("Std(2)*Tw(1,Std(2))")


def _leaf_fails(rank_rows):
    """`_rank_rows`, raising for the leaves' 2 x 2 operators as for an operator that is not
    p-nilpotent."""

    def ranked(ring, op, report):
        if ring.dim(op) < E.dim():
            raise NotNilpotentError("a leaf's message")
        return rank_rows(ring, op, report)

    return ranked


def test_a_leaf_that_is_not_nilpotent_sends_the_chunk_to_the_walk():
    want = tabulate_jt(CHART, E, GF(5))
    with mock.patch.object(batch, "_rank_rows", _leaf_fails(batch._rank_rows)):
        got = tabulate_jt(CHART, E, GF(5))
    assert got.to_jsonl_records() == want.to_jsonl_records() and got.swept == want.swept


def test_the_walk_raises_its_own_message():
    rank_rows = batch._rank_rows

    def not_nilpotent(ring, kind, e, variant, mats):
        return ring.identity(e.dim())

    with mock.patch.object(batch, "_rank_rows", _leaf_fails(rank_rows)), \
            mock.patch.object(batch, "curve_operator", not_nilpotent):
        with pytest.raises(NotNilpotentError, match="^full operator is not p-nilpotent$"):
            tabulate_jt(CHART, E, GF(5))


# -- sweeps against the whole-module walk -----------------------------------------------------


def _outcome(fn, *args, **kwargs):
    """fn's report, or (exception type, message)."""
    try:
        report = fn(*args, **kwargs)
    except JTCalcError as exc:
        return type(exc), str(exc)
    if hasattr(report, "entries"):
        return report.to_jsonl_records(), report.zero_count, report.swept, report.mode
    return report.checked, report.mismatches, report.type_text


@st.composite
def planned_sweeps(draw):
    """A chart, a module tree rich in products and sums over a leaf that pairs with it (a Std
    leaf of another size now and then), a field and sweep options."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]))
    p = field.p
    r = draw(st.sampled_from([1, 2, 2, 3]))
    name = draw(st.sampled_from(["sl2_line", "upper_glN", "sl2_line", "upper_glN", "ga_r", "multi_ga"]))
    if name == "sl2_line" and p == 2:
        name = "upper_glN"
    if name in ("ga_r", "multi_ga"):
        chart = builtin_chart(name, p, r=r) if name == "ga_r" else builtin_chart(name, p, s=r)
        leaf = draw(explicit_leaves(field, r))
    else:
        chart = (builtin_chart(name, p, r=r) if name == "sl2_line"
                 else builtin_chart(name, p, r=r, N=draw(st.integers(2, min(p, 3)))))
        leaf = Std(chart.size + draw(st.sampled_from([0, 0, 0, 0, 0, 1])))
    shape = draw(st.sampled_from(["tree", "tensor", "tensor", "sum"]))
    if shape == "tree":
        e = draw(module_trees(leaf, depth=3, cap=12))
    else:
        # untwisted factors most often: their supports meet, and the plan keeps them whole
        left = draw(module_trees(leaf, depth=2, cap=6))
        right = Twist(draw(st.sampled_from([0, 0, 1, 2])), draw(module_trees(leaf, depth=2, cap=4)))
        e = Tensor(left, right) if shape == "tensor" else DirectSum(left, right)
    opts = {"variant": draw(st.sampled_from(["full", "exp"]))}
    if field.order ** len(chart.params) > 200 or draw(st.booleans()):
        opts.update(budget=1, samples=draw(st.integers(1, 20)), seed=draw(st.integers(0, 99)))
    return chart, e, field, opts


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planned_sweeps(), st.data())
def test_planned_sweeps_match_the_whole_module_walk(sweep, data):
    chart, e, field, opts = sweep
    table = _outcome(tabulate_jt, chart, e, field, **opts)
    with mock.patch.object(batch, "_type_plan", whole_module):
        oracle = _outcome(tabulate_jt, chart, e, field, **opts)
    assert table == oracle
    if isinstance(table[0], list) and table[0] and e.dim() <= 4:
        # the closed stratum of a type the table met (its rank-locus minors grow fast with m)
        a = parse_jordan_type(data.draw(st.sampled_from([rec["type"] for rec in table[0] if "type" in rec])), field.p)
        report = _outcome(verify_closed_stratum, chart, e, a, field, **opts)
        with mock.patch.object(batch, "_type_plan", whole_module):
            assert report == _outcome(verify_closed_stratum, chart, e, a, field, **opts)


# (chart, field, module, variant, sweep options): tensors the plan keeps whole beside ones it
# splits, over GF(p) and GF(p^2), on gl and Explicit charts
NAMED = [
    (builtin_chart("sl2_line", 5, r=2), GF(5), "Sym(2,Std(2))*Sym(3,Std(2))", "full", {}),
    (builtin_chart("sl2_line", 3, r=2), GF(3, 2), "Sym(2,Std(2))*Std(2)+Tw(1,Std(2))*Std(2)", "full",
     {"budget": 1, "samples": 40, "seed": 2}),
    (builtin_chart("upper_glN", 3, r=2, N=3), GF(3), "Std(3)*Std(3)", "exp", {}),
    (builtin_chart("upper_glN", 2, r=2), GF(2, 2), "Std(2)*Dual(Std(2))*Tw(1,Std(2))", "full", {}),
    (builtin_chart("sl2_line", 3, r=3), GF(3), "Ext(2,Std(2)+Std(2))*Std(2)*Tw(2,Std(2))", "exp", {}),
    (builtin_chart("ga_r", 3, r=2), GF(3, 2), "Explicit(file=chain3)*Explicit(file=chain3)", "full", {}),
    (builtin_chart("ga_r", 3, r=2), GF(3), "Explicit(file=chain3)*Tw(1,Explicit(file=chain3))", "exp", {}),
]


@pytest.mark.parametrize("case", range(len(NAMED)))
def test_named_sweeps_match_the_whole_module_walk(case):
    chart, field, text, variant, opts = NAMED[case]
    e = parse_module_expr(text, loader=lambda _: CHAIN3)
    table = _outcome(tabulate_jt, chart, e, field, variant, **opts)
    with mock.patch.object(batch, "_type_plan", whole_module):
        assert table == _outcome(tabulate_jt, chart, e, field, variant, **opts)
    assert isinstance(table[0], list) and table[0]
