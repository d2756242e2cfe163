"""Compiled chart evaluation against `Polynomial.evaluate`, the oracle it replaces.

`Chart.satisfies` and `Chart.tuple_at` evaluate templates and constraints
compiled once per chart.  The oracles below are their former bodies, which
evaluated every entry through `Polynomial.evaluate` on `FFElement`s.
Outcomes compare as values or as (exception type, message).  The golden
reports of the pointwise GF(9) path were written by that former code through
the CLI and are compared byte for byte.
"""

import io
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jtcalc import batch
from jtcalc.cli import main
from jtcalc.errors import JTCalcError
from jtcalc.fields import GF, Polynomial, PolyRing
from jtcalc.linalg import ExactMatrix
from jtcalc.strata import builtin_chart, parse_chart
from jtcalc.theta import KIND_GL, CommutingTuple

GOLDEN = Path(__file__).parent / "golden"
SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# GF(2, 3, 5, 7), GF(4), GF(9), GF(25), GF(27), by characteristic
FIELDS = {2: [GF(2), GF(2, 2)], 3: [GF(3), GF(3, 2), GF(3, 3)], 5: [GF(5), GF(5, 2)], 7: [GF(7)]}


def satisfies_oracle(chart, values):
    return all(c.evaluate(list(values)).is_zero() for c in chart.constraints)


def tuple_at_oracle(chart, values):
    values = list(values)
    field = values[0].field if values else GF(chart.p)
    mats = []
    for tmpl in chart.templates:
        rows = [[tmpl.entry(i, j).evaluate(values) for j in range(tmpl.cols)] for i in range(tmpl.rows)]
        mats.append(ExactMatrix.from_rows(field, rows))
    if chart.kind == KIND_GL:
        return CommutingTuple.gl(mats)
    return CommutingTuple._scalar_tuple(chart.kind, [m.entry(0, 0) for m in mats], field)


def outcome(fn, *args, **kwargs):
    try:
        out = fn(*args, **kwargs)
    except JTCalcError as exc:
        return type(exc), str(exc)
    if isinstance(out, CommutingTuple):
        return (out.kind, out.domain, out.height, out.size,
                [(m.domain, m.shape, m._data.dtype, m._data.tolist()) for m in out.mats])
    return out


def assert_same(chart, values):
    assert outcome(chart.satisfies, values) == outcome(satisfies_oracle, chart, values)
    assert outcome(chart.tuple_at, values) == outcome(tuple_at_oracle, chart, values)


@st.composite
def builtin_charts(draw):
    p = draw(st.sampled_from(sorted(FIELDS)))
    names = ["ga_r", "multi_ga", "upper_glN"] + (["sl2_line"] if p >= 3 else [])
    name = draw(st.sampled_from(names))
    if name == "upper_glN":
        return builtin_chart(name, p, r=draw(st.integers(1, 2)), N=draw(st.integers(2, min(p, 3))))
    if name == "multi_ga":
        return builtin_chart(name, p, s=draw(st.integers(1, 3)))
    return builtin_chart(name, p, r=draw(st.integers(1, 2)))


@st.composite
def polynomials(draw, p, names):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        factors = [str(draw(st.integers(0, p + 1)))]
        for v in names:
            k = draw(st.integers(0, 3))
            if k:
                factors.append(v if k == 1 else f"{v}^{k}")
        terms.append("*".join(factors))
    return "+".join(terms) or "0"


@st.composite
def custom_charts(draw):
    p = draw(st.sampled_from(sorted(FIELDS)))
    kind = draw(st.sampled_from(["gl", "ga", "multi_ga"]))
    r = draw(st.integers(1, 2))
    size = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:draw(st.integers(1, 3))]
    lines = [f"field GF({p})", f"kind {kind}", f"r {r}", f"N {size}",
             "params " + " ".join(f"{v}:{draw(st.integers(1, 3))}" for v in names)]
    for _ in range(r):
        lines.append("template")
        for _ in range(size):
            lines.append(" ".join(draw(st.one_of(st.just("0"), polynomials(p, names))) for _ in range(size)))
    for _ in range(draw(st.integers(0, 2))):
        lines.append("constraint " + draw(polynomials(p, names)))
    return parse_chart("\n".join(lines) + "\n")


@st.composite
def points(draw, chart):
    """Values over a field of the chart's characteristic, or one of three kinds of bad point."""
    k = len(chart.params)
    field = draw(st.sampled_from(FIELDS[chart.p]))
    values = [field.from_index(draw(st.integers(0, field.order - 1))) for _ in range(k)]
    bad = draw(st.sampled_from([None, None, None, "length", "mixed", "characteristic"]))
    if bad == "length":
        values = values[:-1] if draw(st.booleans()) else values + [field.one()]
    elif bad == "mixed":
        other = next(f for q in FIELDS for f in FIELDS[q] if f != field)
        values[draw(st.integers(0, k - 1))] = other.one()
    elif bad == "characteristic":
        other = FIELDS[7 if chart.p != 7 else 5][0]
        values = [other.from_int(v.coeffs[0]) for v in values]
    return values


@SETTINGS
@given(st.data(), st.one_of(builtin_charts(), custom_charts()))
def test_compiled_chart_matches_polynomial_evaluate(data, chart):
    assert_same(chart, data.draw(points(chart)))


@st.composite
def prime_field_polys(draw):
    """(field, k, polynomials, a stack of points): up to four polynomials over GF(p) in k
    variables, with exponents up to 2p (so at and past q - 1), then a nonzero constant
    and the zero polynomial; and element indices of at least four points."""
    field = GF(draw(st.sampled_from([2, 3, 5, 7])))
    p, k = field.p, draw(st.integers(1, 3))
    ring = PolyRing(field, ("a", "b", "c")[:k])
    exps = st.tuples(*[st.integers(0, 2 * p) for _ in range(k)])
    terms = st.dictionaries(exps, st.integers(1, p - 1).map(field.from_int), max_size=4)
    polys = [Polynomial(ring, t) for t in draw(st.lists(terms, max_size=4))]
    polys += [Polynomial(ring, {(0,) * k: field.from_int(draw(st.integers(1, p - 1)))}), Polynomial(ring, {})]
    point = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    values = np.array(draw(st.lists(point, min_size=4, max_size=40)), dtype=dtype)
    return field, k, polys, values


@SETTINGS
@given(prime_field_polys(), st.integers(1, 3))
def test_at_points_matches_polynomial_evaluate_over_prime_fields(case, step):
    """`_CompiledPolys.at_points` over GF(p), on the log tables, in one row block and in
    blocks of `step` points."""
    field, k, polys, values = case
    compiled = batch._CompiledPolys.from_polys(polys, k, field.p)
    want = [[poly.evaluate([field.from_int(v) for v in point]).coeffs[0] for poly in polys]
            for point in values.tolist()]
    assert compiled.at_points(field, values).tolist() == want
    cells = (len(compiled.exps) + len(compiled.matrix) + 1) * step
    with mock.patch.object(batch, "CHUNK_CELLS", cells):
        assert compiled.at_points(field, values).tolist() == want


CHARTS = [builtin_chart("sl2_line", 3, r=2), builtin_chart("upper_glN", 5, r=2, N=3),
          builtin_chart("ga_r", 3, r=2), builtin_chart("multi_ga", 2, s=2)]


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
def test_bad_points_raise_as_polynomial_evaluate(chart):
    p, k = chart.p, len(chart.params)
    ext = GF(p, 2)
    cases = {
        "short": [ext.one()] * (k - 1),
        "long": [ext.one()] * (k + 1),
        "mixed fields": [GF(p).one()] + [ext.one()] * (k - 1),
        "characteristic": [GF(7 if p != 7 else 5).one()] * k,
    }
    for values in cases.values():
        assert_same(chart, values)
        with pytest.raises(JTCalcError):
            chart.tuple_at(values)
        if chart.constraints:
            with pytest.raises(JTCalcError):
                chart.satisfies(values)
        else:
            # nothing is evaluated, so nothing is checked, as before
            assert chart.satisfies(values)


def test_chart_is_compiled_once():
    chart = builtin_chart("sl2_line", 5, r=2)
    first = chart._compiled_templates
    chart.tuple_at([GF(5).zero()] * len(chart.params))
    assert chart._compiled_templates is first
    assert builtin_chart("sl2_line", 5, r=2)._compiled_templates is not first


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(argv))
    finally:
        sys.stdout, sys.stderr = saved
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_gf9_strata_report_matches_golden():
    out = _cli("strata", "--field", "GF(9)", "--chart", "sl2_line", "--r", "1",
               "--module", "Sym(2,Std(2))*Dual(Std(2))", "--format", "jsonl")
    assert out == (GOLDEN / "sl2_line_gf9_r1.jsonl").read_text()


def test_gf9_upper_gln_strata_report_matches_golden():
    out = _cli("strata", "--field", "GF(9)", "--chart", "upper_glN", "--N", "3", "--r", "1",
               "--module", "Dual(Std(3))*Ext(2,Std(3))", "--format", "jsonl")
    assert out == (GOLDEN / "upper_glN_gf9_r1.jsonl").read_text()


def test_gf9_point_report_matches_golden():
    out = _cli("jt", "--field", "GF(9)", "--chart", "sl2_line", "--r", "2",
               "--module", "Sym(2,Std(2))*Tw(1,Std(2))", "--point", "g,1,2g+2,g+1,2", "--format", "jsonl")
    assert out == (GOLDEN / "jt_gf9_point.jsonl").read_text()


CHAIN = "Explicit(file=tests/golden/chain3.txt)"
# single points of every chart kind, the homotopy operator among them
POINT_GOLDENS = {
    "jt_ga_r_gf9_point.jsonl": ["--field", "GF(9)", "--chart", "ga_r", "--r", "2",
                                "--module", f"Sym(2,{CHAIN})*Tw(1,Dual({CHAIN}))", "--point", "2g,g+2"],
    "jt_multi_ga_gf9_point.jsonl": ["--field", "GF(9)", "--chart", "multi_ga", "--s-lines", "2",
                                    "--module", f"{CHAIN}*Tw(1,Dual({CHAIN}))", "--point", "0,g"],
    "jt_sl2_line_gf3_r3_homotopy.jsonl": ["--p", "3", "--chart", "sl2_line", "--r", "3",
                                          "--module", "Sym(2,Std(2))*Tw(2,Std(2))", "--point", "0,1,0,1,0,0",
                                          "--variant", "homotopy", "--hs", "1", "--ht", "1"],
    "jt_sl2_line_gf3_r3_dual.jsonl": ["--p", "3", "--chart", "sl2_line", "--r", "3",
                                      "--module", "Dual(Std(2))*Std(2)*Tw(1,Std(2))", "--point", "0,1,0,1,1,0",
                                      "--variant", "full"],
    # explicit tuples read from a file, over its field and over an extension of it
    "jt_tuple_file_gf3.jsonl": ["--p", "3", "--module", "Ext(2,Std(4))*Tw(1,Std(4))",
                                "--tuple-file", "tests/golden/square4.txt"],
    "jt_tuple_file_gf9_exp.jsonl": ["--field", "GF(9)", "--module", "Sym(2,Std(4))+Tw(1,Dual(Std(4)))",
                                    "--tuple-file", "tests/golden/square4.txt", "--variant", "exp"],
}
# Dual and Ext over GF(25) and GF(27), both variants
for _variant in ("full", "exp"):
    POINT_GOLDENS[f"jt_sl2_line_gf25_{_variant}.jsonl"] = [
        "--field", "GF(25)", "--chart", "sl2_line", "--r", "2", "--module",
        "Dual(Sym(2,Std(2)))*Tw(1,Ext(2,Sym(3,Std(2))))", "--point", "g+1,g+3,2,1,g", "--variant", _variant]
    POINT_GOLDENS[f"jt_sl2_line_gf27_{_variant}.jsonl"] = [
        "--field", "GF(27)", "--chart", "sl2_line", "--r", "2", "--module",
        "Ext(2,Sym(2,Std(2)))*Tw(1,Dual(Std(2)))", "--point", "g+1,g^2,g+2,g,g^2+1", "--variant", _variant]


@pytest.mark.parametrize("golden", sorted(POINT_GOLDENS))
def test_point_report_matches_golden(golden, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent.parent)
    out = _cli("jt", *POINT_GOLDENS[golden], "--format", "jsonl")
    assert out == (GOLDEN / golden).read_text()
