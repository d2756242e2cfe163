"""Batched GF(p) sweeps against the pointwise path they replace.

`strata` runs a sweep batched whenever `batch.supports` says so; patching it
to False forces the pointwise path (`jt_at_point` per point), the oracle.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from jtcalc import batch
from jtcalc.errors import ChartError, JTCalcError, NotNilpotentError
from jtcalc.fields import GF, SUPPORTED_PRIMES
from jtcalc.jordan import all_types_of_dim
from jtcalc.modules import DirectSum, Dual, Ext, Std, Sym, Tensor, Trivial, Twist, parse_module_expr
from jtcalc.strata import builtin_chart, parse_chart, tabulate_jt, verify_closed_stratum

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def both(fn, *args, **kwargs):
    """fn's outcome on the batched and on the pointwise path: a value or (exception type, message)."""

    def run():
        try:
            return fn(*args, **kwargs)
        except JTCalcError as exc:
            return type(exc), str(exc)

    chosen = []
    supports = batch.supports

    def spy(*args):
        chosen.append(supports(*args))
        return chosen[-1]

    with mock.patch.object(batch, "supports", spy):
        batched = run()
    # a call may fail before it reaches the sweep (bad arguments, symbolic minors)
    assert chosen == [True] or isinstance(batched, tuple)
    with mock.patch.object(batch, "supports", return_value=False):
        pointwise = run()
    return batched, pointwise


def canon_table(table):
    if isinstance(table, tuple):
        return table
    return (table.to_jsonl_records(), table.zero_count, table.swept, table.mode,
            table.variant, table.field_desc)


def canon_report(rep):
    if isinstance(rep, tuple):
        return rep
    return (rep.checked, rep.mismatches, rep.type_text, rep.variant)


@st.composite
def modules(draw, n, depth=3):
    """Module trees over Std(n); the root is never a leaf."""
    if depth == 0 or (depth < 3 and draw(st.integers(0, 2)) == 0):
        return draw(st.sampled_from([Std(n), Std(n), Std(n), Trivial(1), Trivial(2)]))
    kind = draw(st.sampled_from(["dual", "tensor", "sum", "sym", "ext", "twist"]))
    if kind in ("tensor", "sum"):
        node = Tensor if kind == "tensor" else DirectSum
        return node(draw(modules(n, depth - 1)), draw(modules(n, depth - 1)))
    inner = draw(modules(n, depth - 1))
    if kind == "dual":
        return Dual(inner)
    if kind == "twist":
        return Twist(draw(st.integers(0, 2)), inner)
    if inner.dim() > 6:
        return inner
    d = draw(st.integers(0, 3))
    return Sym(d, inner) if kind == "sym" else Ext(d, inner)


@st.composite
def sweeps(draw, max_dim=12):
    p = draw(st.sampled_from([3, 5, 7]))
    if draw(st.booleans()):
        r = draw(st.integers(1, 3 if p == 3 else 2))
        chart = builtin_chart("sl2_line", p, r=r)
    else:
        r = draw(st.integers(1, 2))
        chart = builtin_chart("upper_glN", p, r=r, N=draw(st.integers(2, 3)))
    e = draw(modules(chart.size))
    assume(2 <= e.dim() <= max_dim)
    opts = {"variant": draw(st.sampled_from(["full", "exp"]))}
    if p ** len(chart.params) > 300 or draw(st.booleans()):
        opts.update(budget=1, samples=draw(st.integers(1, 25)), seed=draw(st.integers(0, 99)))
    return chart, e, GF(p), opts


@SETTINGS
@given(sweeps(), st.integers(1, 3))
def test_tabulate_matches_pointwise(sweep, max_reps):
    chart, e, field, opts = sweep
    batched, pointwise = both(tabulate_jt, chart, e, field, max_reps=max_reps, **opts)
    assert canon_table(batched) == canon_table(pointwise)


@settings(SETTINGS, max_examples=15)
@given(sweeps(max_dim=4), st.data())
def test_closed_stratum_matches_pointwise(sweep, data):
    chart, e, field, opts = sweep
    a = data.draw(st.sampled_from(all_types_of_dim(field.p, e.dim())))
    batched, pointwise = both(verify_closed_stratum, chart, e, a, field, **opts)
    assert canon_report(batched) == canon_report(pointwise)


@pytest.mark.parametrize("p, r, text, variant", [
    (3, 3, "Tw(1,Tw(1,Std(2)))*Dual(Std(2))", "full"),
    (3, 3, "Ext(2,Tw(2,Std(2))+Std(2))", "exp"),
    (5, 1, "Sym(4,Std(2))", "full"),
    (5, 2, "Dual(Sym(2,Std(2)))*Tw(1,Std(2))+Trivial(1)", "exp"),
    (7, 2, "Ext(2,Sym(2,Std(2)))*Tw(1,Std(2))", "full"),
])
def test_node_kinds_on_sl2_line(p, r, text, variant):
    chart = builtin_chart("sl2_line", p, r=r)
    opts = {"budget": 1, "samples": 40, "seed": 1} if p ** (3 + r) > 300 else {}
    batched, pointwise = both(tabulate_jt, chart, parse_module_expr(text), GF(p), variant, **opts)
    assert canon_table(batched) == canon_table(pointwise)
    assert batched.entries


def test_sweep_table_module_matches_pointwise():
    chart = builtin_chart("sl2_line", 5, r=2)
    e = parse_module_expr("Sym(2,Std(2))*Tw(1,Sym(3,Std(2)))")
    batched, pointwise = both(tabulate_jt, chart, e, GF(5), budget=1, samples=60, seed=3)
    assert canon_table(batched) == canon_table(pointwise)


def chart_text(p, templates, constraints=(), params="a:1 b:1"):
    lines = [f"name custom\nfield GF({p})\nkind gl\nr {len(templates)}\nN 2\nparams {params}"]
    for grid in templates:
        lines.append("template\n" + grid)
    lines += [f"constraint {c}" for c in constraints]
    return parse_chart("\n".join(lines) + "\n")


ZERO = "0 0\n0 0"


@pytest.mark.parametrize("chart", [
    chart_text(3, ["0 a*b\n0 0", ZERO], ["a"]),
    chart_text(5, [ZERO, ZERO]),
])
@pytest.mark.parametrize("text", ["Std(2)*Tw(1,Std(2))", "Std(3)"])
def test_zero_only_tables(chart, text):
    # no point is evaluated, so even a module that does not fit the chart gives an empty table
    batched, pointwise = both(tabulate_jt, chart, parse_module_expr(text), GF(chart.p))
    assert canon_table(batched) == canon_table(pointwise)
    assert not batched.entries and batched.zero_count == batched.swept > 0


INVALID = [
    # a nonzero point comes before the first point whose matrix is not nilpotent
    chart_text(3, ["0 a\nb 0", ZERO]),
    # nilpotent but not commuting, past some valid points
    chart_text(3, ["0 a\n0 0", "0 0\nb 0"]),
    # the second matrix fails
    chart_text(5, ["0 a\n0 0", "a 0\n0 b"]),
]


@pytest.mark.parametrize("chart", INVALID)
@pytest.mark.parametrize("text", ["Std(2)*Tw(1,Std(2))", "Std(3)"])
@pytest.mark.parametrize("opts", [{}, {"budget": 1, "samples": 5, "seed": 4}, {"budget": 1, "samples": 10**4}])
def test_invalid_charts_raise_alike(chart, text, opts):
    e = parse_module_expr(text)
    field = GF(chart.p)
    batched, pointwise = both(tabulate_jt, chart, e, field, **opts)
    assert batched == pointwise and batched[0] in (NotNilpotentError, JTCalcError)
    a = all_types_of_dim(chart.p, e.dim())[0]
    batched, pointwise = both(verify_closed_stratum, chart, e, a, field, **opts)
    assert batched == pointwise and isinstance(batched, tuple)


def test_sampling_failure_and_bad_arguments_raise_alike():
    e = parse_module_expr("Std(2)*Tw(1,Std(2))")
    # no point satisfies the constraint 1 = 0
    never = chart_text(5, ["0 a\n0 0", "0 b\n0 0"], ["1"])
    chart = chart_text(5, ["0 a\n0 0", "0 b\n0 0"])
    cases = [(never, GF(5), {"budget": 1, "samples": 3}), (chart, GF(5), {"budget": 0}), (chart, GF(3), {})]
    for c, field, opts in cases:
        batched, pointwise = both(tabulate_jt, c, e, field, **opts)
        assert batched == pointwise and batched[0] is ChartError


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_bulk_draws_are_randrange_draws(p):
    # sampled sweeps draw their parameters in bulk; the values and the
    # generator state afterwards must be those of one randrange(p) per value
    for seed in (0, 1, 7):
        for count in (0, 1, 3, 1000, 4097):
            bulk, single = random.Random(seed), random.Random(seed)
            draws = batch._randrange(bulk, p, count)
            assert draws.dtype == "int8"
            assert draws.tolist() == [single.randrange(p) for _ in range(count)]
            assert bulk.getstate() == single.getstate()
