"""Sweeps evaluated once per weighted scaling orbit against the per-point oracle.

`tabulate_jt` computes each Jordan type once per orbit of B_s -> alpha^(p^s) B_s
(uniform scaling on `multi_ga`) and counts it for every point of the orbit.
The oracle here evaluates `jt_at_point` at every swept point, as `tabulate_jt`
did before.  The golden reports under `golden/` were written by that
per-point code through the CLI and are compared byte for byte; every sweep
now runs batched, over GF(p) and GF(p^n) and on every chart kind.
"""

import io
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from jtcalc import batch, strata
from jtcalc.cli import main
from jtcalc.fields import GF
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import Explicit, parse_module_expr
from jtcalc.strata import (
    StrataTable,
    StratumEntry,
    builtin_chart,
    enumerate_points,
    sweep_mode,
    tabulate_jt,
)
from jtcalc.theta import jt_at_point
from sweep_oracles import orbit_reduce
from test_batch_sweep import canon_table, explicit_modules, modules, sweeps

GOLDEN = Path(__file__).parent / "golden"
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def per_point_table(chart, e, field, variant="full", budget=strata.EXHAUSTIVE_DEFAULT_BUDGET,
                    seed=0, samples=strata.SAMPLE_DEFAULT, max_reps=4):
    """`tabulate_jt` with `jt_at_point` at every swept point: the oracle."""
    points = list(enumerate_points(chart, field, budget, seed, samples))
    entries, zero_count = {}, 0
    for values, tup in points:
        if tup.is_zero():
            zero_count += 1
            continue
        entry = entries.setdefault(jt_at_point(e, tup, variant), StratumEntry())
        entry.count += 1
        if len(entry.representatives) < max_reps:
            entry.representatives.append([str(v) for v in values])
    return StrataTable(chart.name, e.to_text(), field.descriptor(), variant,
                       sweep_mode(chart, field, budget), seed, entries, zero_count, len(points))


def _outcome(fn, *args, **kwargs):
    try:
        return canon_table(fn(*args, **kwargs))
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)


def assert_matches_oracle(chart, e, field, **opts):
    assert _outcome(tabulate_jt, chart, e, field, **opts) == _outcome(per_point_table, chart, e, field, **opts)


# -- every field and chart kind, every node kind --------------------------------------


@SETTINGS
@given(sweeps(), st.integers(1, 3))
def test_batched_sweep_matches_per_point_oracle(sweep, max_reps):
    chart, e, field, opts = sweep
    assert_matches_oracle(chart, e, field, max_reps=max_reps, **opts)


# -- GF(p^n): ga_r, multi_ga and a small gl chart ---------------------------------------


EXTENSIONS = [(3, 2), (5, 2)]


def _sweep_opts(draw, chart, field):
    opts = {"variant": draw(st.sampled_from(["full", "exp"]))}
    if field.order ** len(chart.params) > 100:
        opts.update(budget=1, samples=draw(st.integers(1, 30)), seed=draw(st.integers(0, 99)))
    return opts


@SETTINGS
@given(st.sampled_from(EXTENSIONS), st.integers(1, 2), st.data())
def test_ga_r_sweep_matches_per_point_oracle(pn, r, data):
    p, n = pn
    field = GF(p, n)
    chart = builtin_chart("ga_r", p, r=r)
    e = data.draw(explicit_modules(p, r))
    assume(e.dim() <= 12)
    assert_matches_oracle(chart, e, field, **_sweep_opts(data.draw, chart, field))


@SETTINGS
@given(st.sampled_from(EXTENSIONS), st.integers(1, 3), st.data())
def test_multi_ga_sweep_matches_per_point_oracle(pn, s, data):
    p, n = pn
    field = GF(p, n)
    chart = builtin_chart("multi_ga", p, s=s)
    e = data.draw(explicit_modules(p, s))
    assume(e.dim() <= 12)
    assert_matches_oracle(chart, e, field, **_sweep_opts(data.draw, chart, field))


@SETTINGS
@given(st.sampled_from(EXTENSIONS), st.integers(1, 2), st.data())
def test_small_gl_sweep_matches_per_point_oracle(pn, r, data):
    p, n = pn
    field = GF(p, n)
    chart = builtin_chart("upper_glN", p, r=r, N=2)
    e = data.draw(modules(2))
    assume(2 <= e.dim() <= 8)
    assert_matches_oracle(chart, e, field, **_sweep_opts(data.draw, chart, field))


# -- multi_ga scales uniformly ---------------------------------------------------------

F3 = GF(3)
SQUARE4 = Explicit((
    ExactMatrix.from_rows(F3, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]),
    ExactMatrix.from_rows(F3, [[0, 0, 0, 1], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
), label="E13+E24, E14+2E23")


def test_multi_ga_orbit_reduce_keeps_the_jordan_type():
    # a multi_ga operator is linear in every a_i; weighting a_i by alpha^(p^i)
    # sent 16 of these 80 points to tuples of the other type (2[2] <-> [2]+2[1])
    chart = builtin_chart("multi_ga", 3, s=2)
    field = GF(3, 2)
    for values, tup in enumerate_points(chart, field):
        if not tup.is_zero():
            assert jt_at_point(SQUARE4, orbit_reduce(tup)) == jt_at_point(SQUARE4, tup), values
    oracle = canon_table(per_point_table(chart, SQUARE4, field))
    assert canon_table(tabulate_jt(chart, SQUARE4, field)) == oracle


@pytest.mark.parametrize("pn", [(2, 3), (3, 2), (5, 2), (3, 3)])
@pytest.mark.parametrize("name, kw", [("upper_glN", {"r": 2, "N": 2}), ("ga_r", {"r": 3}), ("multi_ga", {"s": 2})])
def test_stack_orbit_reduce_matches_oracle(pn, name, kw):
    field = GF(*pn)
    chart = builtin_chart(name, pn[0], **kw)
    tuples = [tup for _, tup in enumerate_points(chart, field, budget=1, samples=40, seed=1) if not tup.is_zero()]
    weights = field.p ** np.arange(field.n)

    def indices(tup):
        return [np.array([[v.coeffs for v in row] for row in m.to_rows()]) @ weights for m in tup.mats]

    reduced = batch._orbit_reduce(field, chart.kind, np.array([indices(tup) for tup in tuples]))
    assert reduced.tolist() == np.array([indices(orbit_reduce(tup)) for tup in tuples]).tolist()


# -- one evaluation per orbit ----------------------------------------------------------


def evaluated_tuples(*args, **kwargs):
    """(table, the number of tuples whose operator `tabulate_jt` evaluates)."""
    evaluated = []
    operator = batch._Sweep._operator

    def counted(sweep, mats):
        evaluated.append(len(mats))
        return operator(sweep, mats)

    with mock.patch.object(batch._Sweep, "_operator", counted):
        table = tabulate_jt(*args, **kwargs)
    return table, sum(evaluated)


def test_gf5_m12_table_evaluates_36_tuples():
    chart = builtin_chart("sl2_line", 5, r=2)
    e = parse_module_expr("Sym(2,Std(2))*Tw(1,Sym(3,Std(2)))")
    table, evaluated = evaluated_tuples(chart, e, GF(5))
    assert evaluated == 36
    assert table.swept - table.zero_count == 576


@pytest.mark.parametrize("name, kw", [("ga_r", {"r": 2}), ("multi_ga", {"s": 2})])
def test_gf9_pointwise_sweep_evaluates_once_per_orbit(name, kw):
    chart = builtin_chart(name, 3, **kw)
    table, evaluated = evaluated_tuples(chart, SQUARE4, GF(3, 2))
    # 80 nonzero points, 8 to an orbit
    assert table.swept - table.zero_count == 80 and evaluated == 10


# -- reports byte-identical to the per-point code ---------------------------------------


def _module_file(name):
    return f"Explicit(file={GOLDEN / name})"


# command line of each report; the last four were written by the per-point sweeps
GOLDEN_RUNS = {
    "sl2_line_gf5_m12.jsonl": ["strata", "--p", "5", "--chart", "sl2_line", "--r", "2",
                               "--module", "Sym(2,Std(2))*Tw(1,Sym(3,Std(2)))"],
    # a tensor product whose operator is not X (x) 1 + 1 (x) Y: its factors' t-supports meet
    "sl2_line_gf5_sym_sym.jsonl": ["strata", "--p", "5", "--chart", "sl2_line", "--r", "2",
                                   "--module", "Sym(2,Std(2))*Sym(3,Std(2))"],
    "upper_glN_gf5_sampled.jsonl": ["strata", "--p", "5", "--chart", "upper_glN", "--r", "2", "--N", "3",
                                    "--module", "Std(3)*Tw(1,Std(3))",
                                    "--budget", "10000", "--samples", "800", "--seed", "7"],
    # recorded before sweeps cut points and operator walks into chunks of their own sizes; it spans
    # several point chunks either way
    "upper_glN_gf5_s3000.jsonl": ["strata", "--p", "5", "--chart", "upper_glN", "--N", "3", "--r", "2",
                                  "--module", "Std(3)*Tw(1,Std(3))",
                                  "--budget", "10000", "--samples", "3000", "--seed", "3"],
    "ga_r_gf9.jsonl": ["strata", "--field", "GF(9)", "--chart", "ga_r", "--r", "2", "--module",
                       f"{_module_file('square4.txt')}+Tw(1,{_module_file('chain3.txt')})"],
    "multi_ga_gf9.jsonl": ["strata", "--field", "GF(9)", "--chart", "multi_ga", "--s-lines", "2",
                           "--module", _module_file("square4.txt")],
    "sl2_line_gf9_r2.jsonl": ["strata", "--field", "GF(9)", "--chart", "sl2_line", "--r", "2",
                              "--module", "Sym(2,Std(2))*Tw(1,Std(2))"],
    "sl2_line_gf25_sampled.jsonl": ["strata", "--field", "GF(25)", "--chart", "sl2_line", "--r", "2",
                                    "--module", "Sym(2,Std(2))*Tw(1,Dual(Std(2)))",
                                    "--budget", "10000", "--samples", "300", "--seed", "11"],
    "closed_sl2_line_gf9.jsonl": ["closed", "--field", "GF(9)", "--chart", "sl2_line", "--r", "1",
                                  "--module", "Sym(2,Std(2))", "--type", "[2]+[1]"],
    "closed_ga_r_gf9.jsonl": ["closed", "--field", "GF(9)", "--chart", "ga_r", "--r", "2",
                              "--module", f"Sym(2,{_module_file('chain3.txt')})", "--type", "[3]+[2]+[1]"],
    "sl2_line_gf3_r3_dual.jsonl": ["strata", "--p", "3", "--chart", "sl2_line", "--r", "3",
                                   "--module", "Dual(Std(2))*Std(2)", "--variant", "full"],
    # recorded when closed strata walked every nonzero point: 6400 points in 100 orbits
    "closed_sl2_line_gf9_r2.jsonl": ["closed", "--field", "GF(9)", "--chart", "sl2_line", "--r", "2",
                                     "--module", "Std(2)*Tw(1,Std(2))", "--type", "2[2]"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_strata_report_matches_golden(golden):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main([*GOLDEN_RUNS[golden], "--format", "jsonl"])
    finally:
        sys.stdout, sys.stderr = saved
    assert code == 0, err.getvalue()
    assert out.getvalue() == (GOLDEN / golden).read_text()
