"""Sweep reports do not depend on how a sweep is cut into chunks.

`batch._Sweep` derives a point chunk (draws, chart evaluation, orbit
reduction, validation), an operator chunk (one walk of the type plan's
leaves) and a chunk of the whole module's walk from `batch.CHUNK_CELLS`;
`jordan_types` numbers orbits across the whole sweep.
With CHUNK_CELLS patched down to a few cells every stage runs one or a few
points at a time, and every report must be byte for byte the default one.
Also here: the batched GF(p) ranks (`linalg._ranks`) against
`linalg._gfp_rref`, the one
lift of a finite-field tuple's matrices, and the attempts a sampled sweep
draws.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc import batch
from jtcalc import theta as theta_mod
from jtcalc.errors import ChartError, JTCalcError, NotNilpotentError
from jtcalc.fields import GF
from jtcalc.jordan import parse_jordan_type
from jtcalc.linalg import ExactMatrix, _gfp_rref, _Pointwise, _ranks
from jtcalc.modules import load_explicit_file, parse_module_expr
from jtcalc.strata import builtin_chart, enumerate_points, parse_chart, tabulate_jt, verify_closed_stratum
from jtcalc.theta import CommutingTuple, jt_at_point, scale_tuple

GOLDEN = Path(__file__).parent / "golden"
CHAIN3 = load_explicit_file(GOLDEN / "chain3.txt")
SQUARE4 = load_explicit_file(GOLDEN / "square4.txt")

# (chart, module, field, sweep options): exhaustive and sampled gl sweeps over GF(p),
# a GF(9) gl sweep and Explicit charts
CASES = {
    "gf5 exhaustive": (builtin_chart("sl2_line", 5, r=2), parse_module_expr("Std(2)*Tw(1,Std(2))"), GF(5), {}),
    "gf7 sampled": (builtin_chart("upper_glN", 7, r=2, N=3), parse_module_expr("Std(3)*Tw(1,Std(3))"),
                    GF(7), {"budget": 10**4, "samples": 150, "seed": 5}),
    # a Sym(2,Std(2)) leaf, whose walks take fewer tuples than a point chunk
    "gf7 sym leaf": (builtin_chart("sl2_line", 7, r=2), parse_module_expr("Sym(2,Std(2))*Tw(1,Std(2))"),
                     GF(7), {"budget": 10**4, "samples": 300, "seed": 5}),
    "gf9 sl2_line": (builtin_chart("sl2_line", 3, r=1), parse_module_expr("Sym(2,Std(2))*Dual(Std(2))"),
                     GF(3, 2), {}),
    "ga_r explicit": (builtin_chart("ga_r", 3, r=2), parse_module_expr("Sym(2,Explicit(file=chain3))", loader=lambda _: CHAIN3),
                      GF(3, 2), {}),
    "multi_ga explicit": (builtin_chart("multi_ga", 3, s=2), SQUARE4, GF(3, 2), {}),
}

# 1 cell: every chunk holds one point; 300 cells: a few points, and walks cut inside point chunks
SMALL = (1, 300)


def _outcome(fn, *args, **kwargs):
    """fn's report as its bytes, or (exception type, message)."""
    try:
        report = fn(*args, **kwargs)
    except JTCalcError as exc:
        return type(exc), str(exc)
    if hasattr(report, "entries"):
        return json.dumps([report.to_jsonl_records(), report.zero_count, report.swept, report.mode])
    return json.dumps([report.checked, report.mismatches, report.type_text, report.variant])


def _at_sizes(fn, *args, **kwargs):
    """fn's outcome at the default CHUNK_CELLS and at each small one."""
    outcomes = [_outcome(fn, *args, **kwargs)]
    for cells in SMALL:
        with mock.patch.object(batch, "CHUNK_CELLS", cells):
            outcomes.append(_outcome(fn, *args, **kwargs))
    return outcomes


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_do_not_depend_on_chunks(case, variant):
    chart, e, field, opts = CASES[case]
    tables = _at_sizes(tabulate_jt, chart, e, field, variant, **opts)
    assert isinstance(tables[0], str) and tables == [tables[0]] * len(tables)
    table = tabulate_jt(chart, e, field, variant, **opts)
    assert table.entries
    # the closed stratum of the table's least generic type
    reports = _at_sizes(verify_closed_stratum, chart, e, table.types()[-1], field, variant, **opts)
    assert isinstance(reports[0], str) and reports == [reports[0]] * len(reports)


def _rare_chart():
    # one draw in 343 meets the constraints: 2000 attempts find about 6 of 20 points
    return parse_chart("name rare\nfield GF(7)\nkind gl\nr 2\nN 2\nparams a:1 b:1 c:1 d:1\n"
                       "template\n0 a\n0 0\ntemplate\n0 b\n0 0\n"
                       "constraint c-1\nconstraint d-1\nconstraint a-b\n")


def test_sampling_that_runs_out_raises_alike():
    chart, e = _rare_chart(), parse_module_expr("Std(2)*Tw(1,Std(2))")
    opts = {"budget": 1, "samples": 20, "seed": 3}
    tables = _at_sizes(tabulate_jt, chart, e, GF(7), **opts)
    assert tables[0] == (ChartError, "rejection sampling failed to find enough chart points")
    assert tables == [tables[0]] * len(tables)
    # points are accepted before sampling runs out, and the closed check raises what the table does
    seen = []
    with pytest.raises(ChartError):
        for point in enumerate_points(chart, GF(7), **opts):
            seen.append(point)
    assert seen
    reports = _at_sizes(verify_closed_stratum, chart, e, parse_jordan_type("[3]+[1]", 7), GF(7), **opts)
    assert reports == tables


def _walks(case):
    """The `_Sweep` of a case, the table of its full operator, and the tuples of each operator
    walk of the table and then of the closed check of its least generic type."""
    chart, e, field, opts = CASES[case]
    sweep = batch._Sweep(chart, e, field, "full")
    walks = []
    operator = batch._Sweep._operator

    def counted(self, mats):
        walks.append(len(mats))
        return operator(self, mats)

    with mock.patch.object(batch._Sweep, "_operator", counted):
        table = tabulate_jt(chart, e, field, **opts)
        orbits = len(walks)
        verify_closed_stratum(chart, e, table.types()[-1], field, **opts)
    return sweep, table, walks[:orbits], walks[orbits:]


def _assert_walks_within_the_chunk(sweep, table, walks, closed):
    assert max(walks + closed) <= sweep.chunk
    # the table evaluates each orbit once: fewer tuples than points
    assert sum(walks) < table.swept - table.zero_count
    # the closed check walks the table's orbits again, not every nonzero point
    assert sum(closed) == sum(walks)


def test_no_walk_exceeds_the_operator_chunk():
    sweep, table, walks, closed = _walks("gf7 sym leaf")
    assert sweep.point_chunk % sweep.chunk == 0 and sweep.point_chunk > sweep.chunk
    _assert_walks_within_the_chunk(sweep, table, walks, closed)


def test_leaf_sized_walks_fill_the_point_chunk():
    # Std(3) leaves: a walk of a point chunk's orbits stays within CHUNK_CELLS, where one of
    # the whole module would not
    sweep, table, walks, closed = _walks("gf7 sampled")
    assert sweep.whole_chunk < sweep.chunk == sweep.point_chunk
    _assert_walks_within_the_chunk(sweep, table, walks, closed)


def test_the_whole_module_walk_keeps_within_chunk_cells():
    """Where a leaf is not p-nilpotent the whole module is walked, and its stacks, larger than
    the leaves', are cut anew: no walk holds more cells than CHUNK_CELLS."""
    chart, e, field = builtin_chart("sl2_line", 5, r=2), parse_module_expr("Std(2)*Tw(1,Std(2))"), GF(5)
    cells = 384
    terms = field.p ** (chart.r - 1) + 1
    rank_rows, curve_operator = batch._rank_rows, batch.curve_operator
    walks = []

    def leaf_fails(ring, op, report):
        if ring.dim(op) < e.dim():
            raise NotNilpotentError("a leaf's message")
        return rank_rows(ring, op, report)

    def counted(ring, kind, module, variant, mats):
        walks.append(len(mats[0]))
        return curve_operator(ring, kind, module, variant, mats)

    want = tabulate_jt(chart, e, field)
    with mock.patch.object(batch, "CHUNK_CELLS", cells), \
            mock.patch.object(batch, "_rank_rows", leaf_fails), mock.patch.object(batch, "curve_operator", counted):
        sweep = batch._Sweep(chart, e, field, "full")
        got = tabulate_jt(chart, e, field)
    # the leaves' walks take more tuples than one of the whole module holds within the cells
    assert sweep.chunk * terms * batch._cells(e) > cells
    # every nonzero orbit is walked whole, once
    assert sum(walks) == (batch.jordan_types(chart, e, field, "full", 10**6, 0, 0)[2] >= 0).sum()
    assert max(walks) * terms * batch._cells(e) * field.n**2 <= cells
    assert got.to_jsonl_records() == want.to_jsonl_records() and got.swept == want.swept


# -- batched ranks ----------------------------------------------------------------------


@st.composite
def stacks(draw):
    """(p, a (P, rows, cols) stack mod p): products of rows x k and k x cols factors, so
    ranks up to k, with zero and rank-deficient matrices among them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    count, rows, cols = draw(st.integers(1, 6)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    out = np.zeros((count, rows, cols), dtype=np.int64)
    for i in range(count):
        k = draw(st.integers(0, max(rows, cols)))
        out[i] = rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols)) % p
    return p, out


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_batched_ranks_match_rref(case):
    p, m = case
    before = m.copy()
    ranks = _ranks(m, p)
    assert ranks.tolist() == [len(_gfp_rref(x, p)[1]) for x in m]
    assert np.array_equal(m, before)


def test_batched_ranks_of_zero_and_empty_stacks():
    assert _ranks(np.zeros((3, 4, 5), dtype=np.int64), 5).tolist() == [0, 0, 0]
    assert _ranks(np.zeros((2, 0, 3), dtype=np.int64), 3).tolist() == [0, 0]
    assert _ranks(np.zeros((2, 3, 0), dtype=np.int64), 3).tolist() == [0, 0]


# -- one lift per finite-field tuple ----------------------------------------------------


@pytest.mark.parametrize("field", [GF(5), GF(3, 2)])
def test_validated_tuple_lifts_its_matrices_once(field):
    chart = builtin_chart("sl2_line", field.p, r=2)
    e = parse_module_expr("Sym(2,Std(2))*Tw(1,Std(2))")
    values = next(v for v, tup in enumerate_points(chart, field, budget=1, samples=20, seed=1)
                  if all(not m.is_zero() for m in tup.mats))
    lifts = []
    lift = _Pointwise.lift
    with mock.patch.object(_Pointwise, "lift", lambda self, data: lifts.append(1) or lift(self, data)):
        tup = chart.tuple_at(values)
        after_validation = len(lifts)
        jt = jt_at_point(e, tup, "full")
        jt_at_point(e, tup, "exp")
    assert after_validation == len(lifts) == chart.r
    fresh = CommutingTuple.gl(tup.mats)
    assert fresh == tup and hash(fresh) == hash(tup)
    assert jt_at_point(e, fresh, "full") == jt


def test_unvalidated_and_scaled_tuples_lift_their_own_matrices():
    field = GF(5)
    e = parse_module_expr("Std(2)*Tw(1,Std(2))")
    mats = [ExactMatrix.from_rows(field, rows) for rows in ([[0, 1], [0, 0]], [[0, 3], [0, 0]])]
    tup = CommutingTuple.gl(mats)
    jt = jt_at_point(e, tup)
    # a scaled tuple does not keep the stacks of the tuple it came from
    scaled = scale_tuple(CommutingTuple.gl(mats), field.from_int(2))
    assert jt_at_point(e, scaled) == jt
    ring, stacks = theta_mod._stacks(scaled)
    assert [s[0].tolist() for s in stacks] == [[[0, 2], [0, 0]], [[0, 1], [0, 0]]]
    with pytest.raises(ValueError):
        stacks[0][0, 0, 1] = 1


def test_sampled_sweeps_draw_about_the_attempts_they_need():
    """Each step draws about as many attempts as the acceptance so far expects the missing
    samples to take, not a whole point chunk: `sl2_line` p=7 r=2 with 800 samples (seed 1)
    needs 5399 attempts, and whole chunks drew 6144.  Its report is the one of a sweep cut
    into chunks of a few points, which draw almost exactly what they need."""
    chart, e = builtin_chart("sl2_line", 7, r=2), parse_module_expr("Std(2)*Tw(1,Std(2))")
    opts = {"budget": 10**4, "samples": 800, "seed": 1}
    draws = []
    randrange = batch._randrange

    def counted(rng, q, count):
        draws.append(count)
        return randrange(rng, q, count)

    with mock.patch.object(batch, "_randrange", counted):
        report = _outcome(tabulate_jt, chart, e, GF(7), **opts)
    assert 5399 <= sum(draws) // len(chart.params) < 6144
    assert isinstance(report, str) and json.loads(report)[2] == 800
    with mock.patch.object(batch, "CHUNK_CELLS", SMALL[1]):
        assert _outcome(tabulate_jt, chart, e, GF(7), **opts) == report
