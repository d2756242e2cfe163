"""Batched sweeps, over every finite field and chart kind, against the per-point oracle.

Every `strata` sweep runs batched (`batch.jordan_types`, whose orbits a
closed stratum reads too); under `sweep_oracles.pointwise()` the same report
is built from the per-point sweep (`jt_at_point` per point, and each minor
by `Polynomial.evaluate` at each point), the oracle.
"""

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from jtcalc import batch, strata
from jtcalc.errors import ChartError, DomainMismatchError, JTCalcError, NotNilpotentError
from jtcalc.fields import GF, SUPPORTED_PRIMES
from jtcalc.jordan import all_types_of_dim, jt_rank, parse_jordan_type
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
    load_explicit_file,
    parse_module_expr,
)
from jtcalc.strata import builtin_chart, parse_chart, rank_locus_minors, tabulate_jt, verify_closed_stratum
from sweep_oracles import _pointwise_closed_points, dropped_polys, oracle_closed_check, pointwise

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def outcome(fn, *args, **kwargs):
    """fn's value, or (exception type, message)."""
    try:
        return fn(*args, **kwargs)
    except JTCalcError as exc:
        return type(exc), str(exc)


def both(fn, *args, **kwargs):
    """fn's outcome on the batched sweep and on the per-point oracle."""
    batched = outcome(fn, *args, **kwargs)
    with pointwise():
        oracle = outcome(fn, *args, **kwargs)
    return batched, oracle


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


def _jordan_block(field, n):
    return ExactMatrix.from_rows(field, [[int(j == i + 1) for j in range(n)] for i in range(n)])


@st.composite
def explicit_leaves(draw, p, height):
    """Commuting p-nilpotent matrices over GF(p): polynomials without constant term in
    one Jordan block of size <= p, beside a square-zero block [[0, X], [0, 0]]."""
    field = GF(p)
    n = draw(st.integers(1, min(p, 3)))
    k = draw(st.integers(0, 1))
    jordan = _jordan_block(field, n)
    mats = []
    for _ in range(height):
        block = ExactMatrix.zeros(field, n, n)
        power = jordan
        for _ in range(1, n):
            block = block + power.scalar_mul(field.from_int(draw(st.integers(0, p - 1))))
            power = power @ jordan
        rows = [[0] * (n + 2 * k) for _ in range(n + 2 * k)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = int(block.entry(i, j).coeffs[0])
        for i in range(k):
            for j in range(k):
                rows[n + i][n + k + j] = draw(st.integers(0, p - 1))
        mats.append(ExactMatrix.from_rows(field, rows))
    assume(any(not m.is_zero() for m in mats))
    return Explicit(tuple(mats), label="drawn")


@st.composite
def explicit_modules(draw, p, height):
    leaf = draw(explicit_leaves(p, height))
    shape = draw(st.sampled_from(["leaf", "twist", "tensor", "sum", "sym", "ext", "dual"]))
    if shape == "twist":
        return Twist(1, leaf)
    if shape == "tensor":
        return Tensor(leaf, Twist(draw(st.integers(0, 1)), leaf))
    if shape == "sum":
        return DirectSum(leaf, draw(st.sampled_from([Trivial(1), Twist(1, leaf)])))
    if shape in ("sym", "ext"):
        return (Sym if shape == "sym" else Ext)(2, leaf)
    if shape == "dual":
        return Dual(leaf)
    return leaf


# GF(p) and GF(p^n) as (p, n)
FIELDS = [(3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


@st.composite
def sweeps(draw, max_dim=12):
    """A chart, a module that pairs with it, a field and sweep options: every chart kind over
    GF(p) and GF(p^n), exhaustive or sampled, in both variants."""
    p, n = draw(st.sampled_from(FIELDS))
    field = GF(p, n)
    # sl2_line needs p >= 3
    name = draw(st.sampled_from(["sl2_line", "upper_glN", "ga_r", "multi_ga"][p == 2:]))
    if name == "sl2_line":
        chart = builtin_chart(name, p, r=draw(st.integers(1, 3 if p == 3 else 2)))
    elif name == "upper_glN":
        chart = builtin_chart(name, p, r=draw(st.integers(1, 2)), N=draw(st.integers(2, min(p, 3))))
    elif name == "ga_r":
        chart = builtin_chart(name, p, r=draw(st.integers(1, 2)))
    else:
        chart = builtin_chart(name, p, s=draw(st.integers(1, 3)))
    e = draw(modules(chart.size) if chart.kind == "gl" else explicit_modules(p, chart.r))
    assume(2 <= e.dim() <= max_dim)
    opts = {"variant": draw(st.sampled_from(["full", "exp"]))}
    if field.order ** len(chart.params) > 300 or draw(st.booleans()):
        opts.update(budget=1, samples=draw(st.integers(1, 25)), seed=draw(st.integers(0, 99)))
    return chart, e, field, opts


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


@st.composite
def partly_invalid_sweeps(draw):
    """A custom `gl` chart whose templates give tuples that are not p-nilpotent, or do not
    commute, at some points and valid tuples at others (the zero tuple at least, unless a
    template has a constant), a module over it, GF(p) or GF(p^n), and sweep options, exhaustive
    or sampled."""
    p, n = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]))
    field = GF(p, n)
    size, r = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    params = ["a", "b", "c"][:draw(st.integers(1, 3))]
    terms = params + [f"{x}*{y}" for x in params for y in params if x <= y]
    # strictly upper entries keep a matrix nilpotent; the others, most often zero, may not
    upper = st.sampled_from(["0"] + terms)
    lower = st.sampled_from(["0"] * 16 + terms + ["1"])
    lines = [f"name mixed\nfield GF({p})\nkind gl\nr {r}\nN {size}\nparams " + " ".join(f"{x}:1" for x in params)]
    for _ in range(r):
        rows = [" ".join(draw(upper if j > i else lower) for j in range(size)) for i in range(size)]
        lines.append("template\n" + "\n".join(rows))
    lines += [f"constraint {c}" for c in draw(st.sampled_from([[], [], [f"{params[-1]}*{params[-1]}-{params[-1]}"]]))]
    chart = parse_chart("\n".join(lines) + "\n")
    modules = [f"Std({size})", f"Dual(Std({size}))"] + ["Std(2)*Tw(1,Std(2))"] * (size == 2)
    e = parse_module_expr(draw(st.sampled_from(modules)))
    opts = {"variant": draw(st.sampled_from(["full", "exp"]))}
    if field.order ** len(params) > 125 or draw(st.booleans()):
        opts.update(budget=1, samples=draw(st.integers(1, 20)), seed=draw(st.integers(0, 99)))
    return chart, e, field, opts


@settings(SETTINGS, max_examples=40)
@given(partly_invalid_sweeps(), st.data())
def test_validating_once_per_orbit_raises_as_every_point(sweep, data):
    # a sweep checks one tuple per weighted scaling orbit, the per-point sweep every tuple:
    # both raise the first invalid point's error, or give the same reports
    chart, e, field, opts = sweep
    batched, oracle = both(tabulate_jt, chart, e, field, **opts)
    assert canon_table(batched) == canon_table(oracle)
    a = data.draw(st.sampled_from(all_types_of_dim(field.p, e.dim())))
    batched, oracle = both(verify_closed_stratum, chart, e, a, field, **opts)
    assert canon_report(batched) == canon_report(oracle)


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


@pytest.mark.parametrize("q", [3, 9, 125, 625, 961, 923521])
def test_bulk_draws_of_field_orders_are_randrange_draws(q):
    # a sampled GF(p^n) sweep draws element indices below q = p^n in bulk,
    # as field.random_element does one at a time
    for seed in (0, 5):
        for count in (0, 1, 3, 1000, 4097):
            bulk, single = random.Random(seed), random.Random(seed)
            draws = batch._randrange(bulk, q, count)
            assert draws.tolist() == [single.randrange(q) for _ in range(count)]
            assert bulk.getstate() == single.getstate()


class _CountedBits(random.Random):
    """A generator that counts the calls of getrandbits and the bits they ask for."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bits = self.calls = 0

    def getrandbits(self, k):
        self.bits += k
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("q", [2, 3, 5, 9, 125, 961])
def test_bulk_draws_ask_only_for_the_words_they_use(q):
    # randrange(q) asks getrandbits for one 32-bit word a call; the bulk draws may ask
    # for those words in fewer calls, but for no word more
    for seed in (0, 3):
        for count in (0, 1, 7, 1000, 4097):
            bulk, single = _CountedBits(seed), _CountedBits(seed)
            draws = batch._randrange(bulk, q, count)
            assert draws.tolist() == [single.randrange(q) for _ in range(count)]
            assert bulk.bits <= 32 * single.calls
            assert bulk.getstate() == single.getstate()


# -- every rejected input raises alike, at the same first failing point -------------------

GOLDEN = Path(__file__).parent / "golden"
CHAIN3 = load_explicit_file(GOLDEN / "chain3.txt")
F9 = GF(3, 2)

ERROR_CASES = {
    "explicit on gl": (builtin_chart("sl2_line", 3, r=1), CHAIN3, F9, {}, JTCalcError),
    "std on ga": (builtin_chart("ga_r", 3, r=2), parse_module_expr("Std(2)"), F9, {}, JTCalcError),
    "std size": (builtin_chart("sl2_line", 3, r=1), parse_module_expr("Std(3)*Std(2)"), F9, {}, JTCalcError),
    "explicit height": (builtin_chart("ga_r", 3, r=1), CHAIN3, F9, {}, JTCalcError),
    "explicit characteristic": (builtin_chart("ga_r", 5, r=2), CHAIN3, GF(5, 2), {}, DomainMismatchError),
    # the first invalid tuple is at a = b = 1, after nine valid nonzero ones
    "invalid gl": (chart_text(3, ["0 a\nb 0", ZERO]), parse_module_expr("Std(2)*Tw(1,Std(2))"), F9, {},
                   NotNilpotentError),
    "invalid gl sampled": (chart_text(3, ["0 a\nb 0", ZERO]), parse_module_expr("Std(2)*Tw(1,Std(2))"), F9,
                           {"budget": 1, "samples": 30, "seed": 2}, NotNilpotentError),
    "sampling runs out": (chart_text(3, ["0 a\n0 0", "0 b\n0 0"], ["1"]), parse_module_expr("Std(2)*Tw(1,Std(2))"),
                          F9, {"budget": 1, "samples": 3}, ChartError),
    # the 1000 attempts accept a point, and every accepted tuple is invalid
    "invalid before sampling runs out": (
        chart_text(3, ["0 a\nb 0", ZERO], ["a*b-1", "c", "d"], "a:1 b:1 c:1 d:1"),
        parse_module_expr("Std(2)*Tw(1,Std(2))"), F9, {"budget": 1, "samples": 5, "seed": 0}, NotNilpotentError),
    "characteristic": (builtin_chart("sl2_line", 5, r=1), parse_module_expr("Std(2)"), F9, {}, ChartError),
    "budget 0": (builtin_chart("ga_r", 3, r=2), CHAIN3, F9, {"budget": 0}, ChartError),
    # no point is evaluated, so a module that does not fit the chart raises nowhere
    "all zero": (chart_text(3, [ZERO, ZERO]), parse_module_expr("Std(3)"), F9, {}, None),
    "all zero explicit": (chart_text(3, [ZERO, ZERO]), CHAIN3, F9, {}, None),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_extension_field_errors_raise_alike(case):
    chart, e, field, opts, error = ERROR_CASES[case]
    batched, oracle = both(tabulate_jt, chart, e, field, **opts)
    assert canon_table(batched) == canon_table(oracle)
    if error is None:
        assert not batched.entries and batched.zero_count == batched.swept == field.order ** 2
    else:
        assert batched[0] is error
    a = all_types_of_dim(chart.p, e.dim())[0]
    batched, oracle = both(verify_closed_stratum, chart, e, a, field, **opts)
    assert canon_report(batched) == canon_report(oracle)


def _until_error(points):
    """The values a per-point closed sweep yields, and the error it then raises."""
    seen = []
    try:
        for values, *_ in points:
            seen.append(values)
    except JTCalcError as exc:
        return seen, (type(exc), str(exc))
    return seen, None


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_closed_sweeps_fail_at_the_same_point(case):
    # the per-point closed sweep evaluates each point as it reaches it, and
    # `verify_closed_stratum` validates every tuple before it evaluates any:
    # both raise the same error, or check the same nonzero points
    chart, e, field, opts, _ = ERROR_CASES[case]
    a = all_types_of_dim(chart.p, e.dim())[0]
    report = outcome(verify_closed_stratum, chart, e, a, field, **opts)
    minors = outcome(lambda: [g for j in range(1, chart.p)
                              for g in rank_locus_minors(chart, e, "full", j, jt_rank(a, j))])
    if isinstance(minors, tuple):
        # theta over the chart's polynomial ring raises before any point is swept
        assert report == minors
        return
    args = (chart, e, field, "full", opts.get("budget", 10**6), opts.get("seed", 0), opts.get("samples", 10**4))
    seen, error = _until_error(_pointwise_closed_points(*args, minors))
    if error is None:
        assert report.checked == len(seen) and not report.mismatches
    else:
        assert report == error
    if case == "invalid gl":
        assert len(seen) == 9 and error == (NotNilpotentError, "matrix 0 is not 3-nilpotent")


@pytest.mark.parametrize("name, kw, text", [
    ("sl2_line", {"r": 1}, "Sym(2,Std(2))"),
    ("upper_glN", {"r": 1, "N": 3}, "Std(3)"),
    ("ga_r", {"r": 2}, "Sym(2,E)"),
    ("multi_ga", {"s": 2}, "Dual(E)"),
])
@pytest.mark.parametrize("variant", ["full", "exp"])
def test_gf9_closed_strata_match_pointwise(name, kw, text, variant):
    # every type of the table, checked against the minors of its closed stratum
    chart = builtin_chart(name, 3, **kw)
    e = parse_module_expr(text.replace("E", "Explicit(file=chain3)"), loader=lambda path: CHAIN3)
    table = tabulate_jt(chart, e, F9, variant)
    assert table.entries
    for a in table.types():
        batched, oracle = both(verify_closed_stratum, chart, e, a, F9, variant)
        assert canon_report(batched) == canon_report(oracle)
        assert batched.checked == table.swept - table.zero_count


# (chart, module, type, sweep options): without the j = 1 minors the zero set is larger than the
# down-set of the type, on the orbits of type 2[2] and [3]+[2]+[1]; the sampled sweep meets some
# orbits at several points, the exhaustive one every orbit at eight
FORCED = {
    "sl2_line sampled": (builtin_chart("sl2_line", 3, r=2), parse_module_expr("Std(2)*Tw(1,Std(2))"),
                         "[2]+2[1]", {"budget": 1, "samples": 400, "seed": 1}),
    "ga_r": (builtin_chart("ga_r", 3, r=2), parse_module_expr("Sym(2,Explicit(file=chain3))", loader=lambda _: CHAIN3),
             "[3]+3[1]", {}),
}


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("case", sorted(FORCED))
def test_forced_mismatches_list_every_point(case, variant, monkeypatch):
    # minors that disagree with the down-set on whole orbits: each orbit's answer reaches every
    # one of its points, which the per-point check lists in sweep order
    chart, e, text, opts = FORCED[case]
    a = parse_jordan_type(text, 3)
    dropped = len(rank_locus_minors(chart, e, variant, 1, jt_rank(a, 1)))
    assert dropped
    reports = []
    for check in (strata._closed_check, oracle_closed_check):
        monkeypatch.setattr(strata, "_closed_check",
                            lambda *args, check=check: check(*args[:-1], dropped_polys(args[-1], dropped)))
        reports.append(verify_closed_stratum(chart, e, a, F9, variant, **opts))
    batched, oracle = reports
    assert batched.mismatches and canon_report(batched) == canon_report(oracle)
