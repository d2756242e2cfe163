import io
import itertools
import json
import os
import random
from math import comb

import pytest

from jtcalc.cli import _emit
from jtcalc.errors import CapExceededError, ChartError, JTCalcError
from jtcalc.fields import GF, PolyRing
from jtcalc.jordan import JordanType, dominance_leq, jt_rank, parse_jordan_type
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import Explicit, Ext, Std, Sym, Tensor, Twist
from jtcalc.strata import (
    Chart,
    Curve,
    builtin_chart,
    builtin_curves,
    constant_rank_on_strata,
    curve_from_coeffs,
    enumerate_points,
    parse_chart,
    rank_locus_minors,
    semicontinuity_check,
    tabulate_jt,
    verify_closed_stratum,
)
from jtcalc.theta import CommutingTuple, jt_at_point, jt_power_at_point, scale_tuple, theta_full
from sweep_oracles import orbit_reduce

F3 = GF(3)
J = JordanType.from_blocks


def e_line_chart(p=3):
    ring = PolyRing(GF(p), ("a0", "a1"), (1, p))
    zero = ring.zero()
    t0 = ExactMatrix.from_rows(ring, [[zero, ring.var("a0")], [zero, zero]])
    t1 = ExactMatrix.from_rows(ring, [[zero, ring.var("a1")], [zero, zero]])
    return Chart("e_line", "gl", p, 2, 2, ring, (t0, t1), ())


def test_builtin_chart_shapes():
    ga = builtin_chart("ga_r", p=3, r=2)
    assert len(ga.params) == 2 and ga.weights == (1, 3)
    sl2 = builtin_chart("sl2_line", p=3, r=2)
    assert sl2.params == ("a", "b", "c", "l0", "l1")
    assert len(sl2.constraints) == 1
    up = builtin_chart("upper_glN", p=5, r=2, N=3)
    assert len(up.params) == 6 and len(up.constraints) == 3
    with pytest.raises(ChartError):
        builtin_chart("sl2_line", p=2, r=1)
    with pytest.raises(ChartError):
        builtin_chart("upper_glN", p=3, r=1, N=4)
    with pytest.raises(ChartError):
        builtin_chart("nonesuch", p=3)


def test_enumerate_points_counts():
    ga = builtin_chart("ga_r", p=3, r=2)
    assert len(list(enumerate_points(ga, F3))) == 9
    sl21 = builtin_chart("sl2_line", p=3, r=1)
    pts = list(enumerate_points(sl21, F3))
    assert len(pts) == 27  # 9 cone solutions x 3 scalings
    cone = {tuple(str(v) for v in values[:3]) for values, _ in pts}
    assert len(cone) == 9
    sampled = list(enumerate_points(sl21, F3, budget=1, seed=5, samples=7))
    assert len(sampled) == 7
    again = list(enumerate_points(sl21, F3, budget=1, seed=5, samples=7))
    assert [[str(v) for v in vals] for vals, _ in sampled] == [[str(v) for v in vals] for vals, _ in again]
    with pytest.raises(ChartError):
        list(enumerate_points(ga, F3, budget=0))
    with pytest.raises(ChartError):
        list(enumerate_points(ga, GF(5)))


def test_chart_text_round_trip():
    for chart in (builtin_chart("sl2_line", p=3, r=2), builtin_chart("upper_glN", p=3, r=2, N=3)):
        text = chart.to_text()
        back = parse_chart(text)
        assert back.params == chart.params
        assert back.templates == chart.templates
        assert back.constraints == chart.constraints
    with pytest.raises(ChartError):
        parse_chart("name broken\nr 2\n")


def test_tabulate_strata_partition():
    chart = builtin_chart("sl2_line", p=3, r=2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    table = tabulate_jt(chart, mod, F3, "full")
    total = sum(entry.count for entry in table.entries.values())
    assert total + table.zero_count == table.swept
    assert table.zero_count >= 1
    assert {a.to_text() for a in table.entries} == {"2[2]", "[3]+[1]"}
    # JSON/CSV exports
    recs = table.to_jsonl_records()
    assert all(set(r) == {"type", "count", "representatives"} for r in recs)
    out = io.StringIO()
    _emit(recs, "csv", out, "strata")
    csv = out.getvalue().splitlines()
    assert csv[0] == "count,representatives,type"
    assert len(csv) == len(recs) + 1


def test_tabulate_single_stratum_modules():
    # a module of everywhere-maximal type: one stratum at the max
    import itertools

    basis = list(itertools.product(range(3), repeat=2))
    index = {b: i for i, b in enumerate(basis)}
    mats = []
    for k in range(2):
        rows = [[F3.zero()] * 9 for _ in range(9)]
        for b in basis:
            nb = list(b)
            nb[k] += 1
            if nb[k] < 3:
                rows[index[tuple(nb)]][index[b]] = F3.one()
        mats.append(ExactMatrix.from_rows(F3, rows))
    regular = Explicit(tuple(mats))
    ga = builtin_chart("ga_r", p=3, r=2)
    table = tabulate_jt(ga, regular, F3, "exp")
    assert set(table.entries) == {J(3, [3, 3, 3])}
    # a trivial action: one stratum m[1]
    trivial = Explicit((ExactMatrix.zeros(F3, 2, 2), ExactMatrix.zeros(F3, 2, 2)))
    table2 = tabulate_jt(ga, trivial, F3, "full")
    assert set(table2.entries) == {J(3, [1, 1])}


def test_tabulate_orbit_invariance():
    chart = e_line_chart()
    mod = Tensor(Std(2), Twist(1, Std(2)))
    rng = random.Random(3)
    for values, tup in enumerate_points(chart, F3):
        if tup.is_zero():
            continue
        jt = jt_at_point(mod, tup)
        red = orbit_reduce(tup)
        assert jt_at_point(mod, red) == jt
        alpha = F3.from_int(rng.randrange(1, 3))
        assert jt_at_point(mod, scale_tuple(tup, alpha)) == jt


def test_rank_locus_examples():
    # d = dim gives no generators
    chart = e_line_chart()
    mod = Tensor(Std(2), Twist(1, Std(2)))
    assert rank_locus_minors(chart, mod, "full", 1, 4) == []
    # ga_r explicit J2: 1-minors of a0 * J2 reduce to the single polynomial a0
    ga1 = builtin_chart("ga_r", p=3, r=1)
    j2 = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
    emod = Explicit((j2,))
    gens = rank_locus_minors(ga1, emod, "full", 1, 0)
    nonzero = [g for g in gens if not g.is_zero()]
    assert len(nonzero) == 1 and str(nonzero[0]) == "a0"
    # Ex 6.2 chart, j=1, d=1: generators vanish exactly where JT <= [2]+2[1]
    gens2 = rank_locus_minors(chart, mod, "full", 1, 1)
    bound = parse_jordan_type("[2]+2[1]", 3)
    for values, tup in enumerate_points(chart, F3):
        vanish = all(g.evaluate(values).is_zero() for g in gens2)
        jt = jt_at_point(mod, tup)
        assert vanish == dominance_leq(jt, bound)


def test_rank_locus_rejects_an_unknown_variant_without_minors():
    """An unknown variant raises even when d >= m leaves no minors to take (it returned [])."""
    chart = e_line_chart()
    mod = Tensor(Std(2), Twist(1, Std(2)))
    for d in (1, 4):
        with pytest.raises(JTCalcError, match="unknown operator variant 'bogus'"):
            rank_locus_minors(chart, mod, "bogus", 1, d)
    assert rank_locus_minors(chart, mod, "exp", 1, 4) == []


def test_gamma_j_power_loci():
    chart = builtin_chart("sl2_line", p=3, r=2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    for j in (1, 2):
        for d in range(4):
            gens = rank_locus_minors(chart, mod, "full", j, d)
            for values, tup in enumerate_points(chart, F3):
                vanish = all(g.evaluate(values).is_zero() for g in gens)
                rank_j = jt_rank(jt_power_at_point(mod, tup, "full", j), 1) if j else None
                actual = theta_full(mod, tup).pow(j).rank()
                assert vanish == (actual <= d)


def test_verify_closed_stratum_cases():
    chart = e_line_chart()
    mod = Tensor(Std(2), Twist(1, Std(2)))
    for text in ("[3]+[1]", "2[2]", "4[1]"):
        rep = verify_closed_stratum(chart, mod, parse_jordan_type(text, 3), F3)
        assert rep.ok, rep.mismatches
    # the maximal type is realized by every point
    rep = verify_closed_stratum(chart, mod, parse_jordan_type("[3]+[1]", 3), F3)
    assert rep.checked == 8
    with pytest.raises(ChartError):
        verify_closed_stratum(chart, mod, parse_jordan_type("[2]", 3), F3)


def _count_theta_builds(monkeypatch):
    """Count the builds of theta over the chart's `PolyRing` by `strata`."""
    from jtcalc import strata

    builds = []
    build = strata._symbolic_theta
    monkeypatch.setattr(strata, "_symbolic_theta", lambda *args: builds.append(args) or build(*args))
    return builds


def _closed_minors(monkeypatch, *args, **kwargs):
    """The minors `verify_closed_stratum` checks the sweep with, and its report."""
    from jtcalc import strata

    seen = []
    check = strata._closed_check
    monkeypatch.setattr(strata, "_closed_check", lambda *a: seen.append(a[-1]) or check(*a))
    report = verify_closed_stratum(*args, **kwargs)
    return seen[0], report


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("p, module, types", [
    (3, "Std(2)*Tw(1,Std(2))", ("[3]+[1]", "2[2]", "[2]+2[1]", "4[1]")),
    (3, "Sym(2,Std(2))*Tw(1,Std(2))", ("2[3]", "[3]+[2]+[1]", "3[2]")),
    (5, "Std(2)*Tw(1,Std(2))", ("[3]+[1]", "2[2]")),
])
def test_closed_stratum_builds_theta_once(monkeypatch, p, module, types, variant):
    """One theta per call, and the minors of `rank_locus_minors` for j = 1..p-1, as strings and
    in order."""
    from jtcalc.modules import parse_module_expr

    chart = builtin_chart("sl2_line", p, r=2)
    mod = parse_module_expr(module)
    builds = _count_theta_builds(monkeypatch)
    for text in types:
        a = parse_jordan_type(text, p)
        want = []
        for j in range(1, p):
            del builds[:]
            want += map(str, rank_locus_minors(chart, mod, variant, j, jt_rank(a, j)))
            assert len(builds) == (jt_rank(a, j) < mod.dim())
        del builds[:]
        polys, report = _closed_minors(monkeypatch, chart, mod, a, GF(p), variant,
                                       budget=300, seed=1, samples=40)
        assert len(builds) == 1
        assert [str(g) for g in polys] == want
        assert report.ok, report.mismatches


def test_closed_stratum_checks_come_before_theta(monkeypatch):
    chart = e_line_chart()
    builds = _count_theta_builds(monkeypatch)
    with pytest.raises(ChartError, match="dimension"):
        verify_closed_stratum(chart, Std(2), parse_jordan_type("[3]", 3), F3)
    big = Sym(4, Sym(4, Std(2)))
    assert big.dim() > 64
    with pytest.raises(CapExceededError):
        verify_closed_stratum(chart, big, J(3, [1] * big.dim()), F3)
    # the zero-dimensional module has no minors, so theta is never built
    empty = Ext(3, Std(2))
    assert verify_closed_stratum(chart, empty, J(3, []), F3).ok
    assert not builds


def test_continuity_downsets_are_determinantally_closed():
    chart = e_line_chart()
    mod = Tensor(Std(2), Twist(1, Std(2)))
    table = tabulate_jt(chart, mod, F3, "full")
    realized = list(table.entries)
    minor_cache = {}
    for a in realized:
        minor_cache[a] = [
            rank_locus_minors(chart, mod, "full", s, jt_rank(a, s)) for s in range(1, 3)
        ]
    for a in realized:
        for b in realized:
            if a == b or not dominance_leq(a, b):
                continue
            # every point with JT <= a lies in the zero set of the <= b minors
            for values, tup in enumerate_points(chart, F3):
                if tup.is_zero():
                    continue
                if dominance_leq(jt_at_point(mod, tup), a):
                    for gens in minor_cache[b]:
                        assert all(g.evaluate(values).is_zero() for g in gens)


def test_semicontinuity_cases():
    chart = builtin_chart("sl2_line", p=3, r=2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    # constant curve: equal types
    const = curve_from_coeffs(chart, F3, {"a": [0], "b": [1], "c": [0], "l0": [1], "l1": [1]})
    rep = semicontinuity_check(const, mod)
    assert rep.ok and rep.generic_type == rep.special_type
    # the worked curve
    worked = curve_from_coeffs(chart, F3, {"a": [0], "b": [1], "c": [0], "l0": [0, 1], "l1": [1]})
    rep = semicontinuity_check(worked, mod)
    assert (rep.generic_type, rep.special_type, rep.ok) == ("[3]+[1]", "2[2]", True)
    # a curve into the zero locus
    null = curve_from_coeffs(chart, F3, {"a": [0], "b": [1], "c": [0], "l0": [0], "l1": [0]})
    rep = semicontinuity_check(null, mod)
    assert rep.special_type == "4[1]" and rep.ok
    # constraint-violating substitution is rejected
    with pytest.raises(ChartError):
        curve_from_coeffs(chart, F3, {"a": [1], "b": [1], "c": [1], "l0": [1], "l1": [1]})


def test_builtin_curves_satisfy_constraints():
    for name, kwargs in (("ga_r", {"r": 2}), ("multi_ga", {"s": 2}),
                         ("sl2_line", {"r": 2}), ("upper_glN", {"r": 2, "N": 3})):
        chart = builtin_chart(name, p=3, **kwargs)
        curves = builtin_curves(chart, seed=1, count=5)
        assert len(curves) == 5  # Curve.__post_init__ checks constraints identically


def test_constant_rank_report():
    chart = e_line_chart()
    mod = Tensor(Std(2), Twist(1, Std(2)))
    table = tabulate_jt(chart, mod, F3, "full")
    rep = constant_rank_on_strata(table, chart, mod, 1, F3)
    assert rep.ok
    # this module has constant 1-rank (both strata have rank 2) ...
    assert rep.global_constant and rep.homotopy_checked > 0
    # ... but its 2-rank separates the strata
    rep2 = constant_rank_on_strata(table, chart, mod, 2, F3)
    assert rep2.ok and not rep2.global_constant
    # a constant-type module: single chain on ga_r(p,1)
    ga1 = builtin_chart("ga_r", p=3, r=1)
    j3 = ExactMatrix.from_rows(F3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    emod = Explicit((j3,))
    table2 = tabulate_jt(ga1, emod, F3, "full")
    rep2 = constant_rank_on_strata(table2, ga1, emod, 1, F3)
    assert rep2.ok and rep2.global_constant and rep2.homotopy_checked > 0


def test_orbit_reduce_properties():
    F9 = GF(3, 2)
    e9 = ExactMatrix.from_rows(F9, [[0, 1], [0, 0]])
    g = F9.gen()
    tup = CommutingTuple.gl([e9.scalar_mul(g), e9.scalar_mul(g * g + g)])
    red = orbit_reduce(tup)
    assert red.mats[0].entry(0, 1) == F9.one()
    for alpha in F9.nonzero_elements():
        other = orbit_reduce(scale_tuple(tup, alpha))
        assert other.mats[0] == red.mats[0] and other.mats[1] == red.mats[1]
    with pytest.raises(JTCalcError):
        orbit_reduce(CommutingTuple.gl([ExactMatrix.zeros(F3, 2, 2)]))
    f5 = GF(5)
    e5 = ExactMatrix.from_rows(f5, [[0, 1], [0, 0]])
    red5 = orbit_reduce(CommutingTuple.gl([e5.scalar_mul(f5.from_int(2))]))
    assert red5.mats[0] == e5


def test_symbolic_cap():
    chart = builtin_chart("upper_glN", p=5, r=1, N=5)
    big = Tensor(Sym(4, Std(5)), Sym(3, Std(5)))  # 70 x 35 > 64 cap
    with pytest.raises(CapExceededError):
        rank_locus_minors(chart, big, "full", 1, 0)


FOUR_STD = Tensor(Tensor(Std(2), Std(2)), Tensor(Std(2), Std(2)))


def test_minor_count_is_the_expansion_of_every_prefix():
    """`_minor_count` counts the (row prefix, column subset) pairs of each step of the
    expansion; the last step's are the C(m, size)^2 minors returned."""
    from jtcalc.strata import _minor_count

    for m in range(7):
        for size in range(1, m + 2):
            want = 0
            for i in range(1, size + 1):
                prefixes = [rows for rows in itertools.combinations(range(m), i) if rows[-1] < m - size + i]
                want += len(prefixes) * comb(m, i)
            assert _minor_count(m, size) == want, (m, size)
    # a 15 x 15 minor of a 16 x 16 matrix: 256 minors, but 589806 taken on the way
    assert _minor_count(16, 15) == 589806


def test_too_many_minors_are_refused_before_theta(monkeypatch):
    """The m = 16 closed stratum 5[3]+[1] over sl2_line p = 3 r = 1 has 8.3e7 (d+1)-minors; it is
    refused by their count before any operator is built."""
    from jtcalc import strata

    def no_theta(*args):
        raise AssertionError("the operator was built")

    monkeypatch.setattr(strata, "_symbolic_theta", no_theta)
    chart = builtin_chart("sl2_line", p=3, r=1)
    assert FOUR_STD.dim() == 16
    with pytest.raises(CapExceededError, match=r"^175953470 rank-locus minors exceed cap 500000$"):
        verify_closed_stratum(chart, FOUR_STD, parse_jordan_type("5[3]+[1]", 3), F3)
    with pytest.raises(CapExceededError, match=r"^96718226 rank-locus minors exceed cap 500000$"):
        rank_locus_minors(chart, FOUR_STD, "full", 1, 10)
    # the counts of the bounds add up: each alone is under the cap, both are not
    assert strata._minor_count(16, 3) <= strata.MINORS_CAP < 2 * strata._minor_count(16, 3)
    with pytest.raises(CapExceededError, match=r"^652848 rank-locus minors"):
        strata._rank_loci(chart, FOUR_STD, [(1, 2), (2, 2)], no_theta)


def test_minor_expansion_refuses_a_step_of_too_many_products(monkeypatch):
    """A step of the expansion whose products of monomial terms exceed the cap raises before
    they are taken; under a cap above every step the minors are as before."""
    from jtcalc import monomials

    chart = builtin_chart("sl2_line", p=3, r=2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    want = [str(g) for g in rank_locus_minors(chart, mod, "full", 1, 1)]
    monkeypatch.setattr(monomials, "MINOR_PRODUCTS_CAP", 10)
    with pytest.raises(CapExceededError, match=r"products of the [12]-minors exceed cap 10$"):
        rank_locus_minors(chart, mod, "full", 1, 1)
    monkeypatch.setattr(monomials, "MINOR_PRODUCTS_CAP", 1000)
    assert [str(g) for g in rank_locus_minors(chart, mod, "full", 1, 1)] == want


def test_thread_determinism(monkeypatch):
    chart = builtin_chart("sl2_line", p=3, r=2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    monkeypatch.setenv("JTCALC_THREADS", "1")
    t1 = tabulate_jt(chart, mod, F3, "full")
    monkeypatch.setenv("JTCALC_THREADS", "4")
    t4 = tabulate_jt(chart, mod, F3, "full")
    assert t1.entries.keys() == t4.entries.keys()
    for a in t1.entries:
        assert t1.entries[a].count == t4.entries[a].count
        assert t1.entries[a].representatives == t4.entries[a].representatives


def test_chart_is_hashable():
    a, b = builtin_chart("sl2_line", 3, r=2), builtin_chart("sl2_line", 3, r=2)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert len({a, b, builtin_chart("sl2_line", 3, r=1)}) == 2


def test_sampled_sweeps_reject_negative_sample_counts():
    chart = builtin_chart("sl2_line", p=3, r=2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    with pytest.raises(ChartError, match="^sample count -1 is negative$"):
        tabulate_jt(chart, mod, F3, budget=10, seed=1, samples=-1)
    with pytest.raises(ChartError, match="^sample count -1 is negative$"):
        list(enumerate_points(chart, F3, budget=10, seed=1, samples=-1))
    assert tabulate_jt(chart, mod, F3, budget=10, seed=1, samples=0).swept == 0
    assert tabulate_jt(chart, mod, F3, samples=-1).mode == "exhaustive"
