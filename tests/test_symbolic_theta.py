"""The operator over a chart's `PolyRing` and the rank-locus minors on `batch`'s stack walker.

`strata._symbolic_theta` builds the operator on the chart's templates in
the `monomials._Monomials` ring, and `strata.rank_locus_minors` takes the
minors of its powers there by a subset DP.  The oracle is the
object-walker route kept in `theta_oracles`: `modules.eval_unipotent` on
truncated curve rings over the `PolyRing`, at the chart's templates as a
`SymbolicPoint`, and `ExactMatrix.minors`.  Both are compared entry for
entry, the generators as strings and in order, and an error by its type
and message.
"""

from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import theta_oracles as oracle
from sweep_oracles import element_indices
from test_poly_kernel import explicit_leaves, modules
from jtcalc import batch, monomials
from jtcalc.cli import main
from jtcalc.errors import DomainMismatchError, JTCalcError
from jtcalc.fields import GF, PolyRing
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import Std, parse_module_expr
from jtcalc.strata import Chart, builtin_chart, parse_chart, rank_locus_minors
from jtcalc.theta import KIND_GL

# the minors of the `loci` bench: (chart, p, chart kwargs, module, (j, d) pairs)
LOCI = [
    ("sl2_line", 3, {"r": 2}, "Std(2)*Tw(1,Std(2))", ((1, 1), (1, 2), (2, 0), (2, 1))),
    ("sl2_line", 3, {"r": 2}, "Sym(2,Std(2))*Tw(1,Std(2))", ((1, 1), (2, 1), (1, 2))),
    ("sl2_line", 5, {"r": 2}, "Std(2)*Tw(1,Std(2))", ((1, 1), (3, 1), (4, 0))),
    ("sl2_line", 3, {"r": 3}, "Std(2)*Tw(2,Std(2))", ((1, 1), (2, 1))),
    ("upper_glN", 3, {"r": 2, "N": 3}, "Std(3)+Dual(Std(3))", ((1, 2), (2, 1))),
]


def _outcome(call):
    """The call's value, or (exception type, message).

    An Explicit leaf over GF(p^2) on a GF(p) tuple raises DomainMismatchError
    on both routes, with the message of the embedding each tries first
    (`ExactMatrix.embed_into` here, `FiniteField.embed` in the oracle), so
    that error is compared by its type.
    """
    try:
        return call()
    except DomainMismatchError as exc:
        return type(exc)
    except JTCalcError as exc:
        return type(exc), str(exc)


def _once(build):
    """A call of build, made on the first call only: each call returns its value, or raises
    again what it raised."""
    done = []

    def call():
        if not done:
            try:
                done.append((build(), None))
            except Exception as exc:
                done.append((None, exc))
        value, exc = done[0]
        if exc is not None:
            raise exc
        return value

    return call


def assert_theta_matches(chart, e, variant):
    """The operators of both routes agree; returns the oracle's operator, built once, for
    `assert_minors_match`."""
    theta = _once(lambda: oracle.theta_variant(e, oracle.chart_point(chart), variant))
    want = _outcome(theta)
    got = _outcome(lambda: oracle.symbolic_theta(chart, e, variant))
    assert got == want
    return theta


def assert_minors_match(chart, e, variant, j, d, theta):
    want = _outcome(lambda: [str(g) for g in oracle.rank_locus_minors(chart, e, variant, j, d, theta)])
    got = _outcome(lambda: [str(g) for g in rank_locus_minors(chart, e, variant, j, d)])
    assert got == want


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("name, p, kw, module, pairs", LOCI)
def test_loci_minors_match_object_route(name, p, kw, module, pairs, variant):
    chart = builtin_chart(name, p, **kw)
    e = parse_module_expr(module)
    theta = assert_theta_matches(chart, e, variant)
    for j, d in pairs:
        assert_minors_match(chart, e, variant, j, d, theta)


GOLDEN = Path(__file__).parent / "golden"
SL2 = ["--p", "3", "--chart", "sl2_line", "--r", "2", "--module", "Std(2)*Tw(1,Std(2))"]
# recorded by the object-walker route, before the stack walker built symbolic operators
GOLDENS = {
    "minors_ga_r_gf3.jsonl": ["minors", "--p", "3", "--chart", "ga_r", "--r", "2", "--module",
                              "Sym(2,Explicit(file=tests/golden/chain3.txt))", "--j", "1", "--d", "2"],
    "closed_sl2_line_gf3.jsonl": ["closed", *SL2, "--type", "[3]+[1]"],
    "minors_sl2_line_gf3_dual_j1_d1.jsonl": ["minors", "--p", "3", "--chart", "sl2_line", "--r", "2", "--module",
                                             "Dual(Std(2))*Tw(1,Std(2))", "--j", "1", "--d", "1"],
}
for _variant in ("full", "exp"):
    for _j, _d in ((1, 2), (2, 1)):
        GOLDENS[f"minors_sl2_line_gf3_{_variant}_j{_j}_d{_d}.jsonl"] = [
            "minors", *SL2, "--variant", _variant, "--j", str(_j), "--d", str(_d)]
# recorded before the minors went straight from the monomial arrays to the closed check
GOLDENS.update({
    "closed_sl2_line_gf3_r3_exp.jsonl": ["closed", "--p", "3", "--chart", "sl2_line", "--r", "3", "--module",
                                         "Std(2)*Tw(1,Std(2))*Tw(2,Std(2))", "--variant", "exp", "--type", "4[2]"],
    "closed_sl2_line_gf5_sampled.jsonl": ["closed", "--p", "5", "--chart", "sl2_line", "--r", "2", "--module",
                                          "Std(2)*Tw(1,Std(2))", "--type", "[3]+[1]", "--budget", "100",
                                          "--samples", "400", "--seed", "3"],
    "closed_upper_glN_gf9_dual.jsonl": ["closed", "--field", "GF(9)", "--chart", "upper_glN", "--N", "3", "--r", "1",
                                        "--module", "Dual(Std(3))", "--type", "[2]+[1]", "--budget", "100",
                                        "--samples", "300", "--seed", "2"],
    # at r = 3 the exp and full minors differ
    "minors_sl2_line_gf3_r3_exp_j2_d1.jsonl": ["minors", "--p", "3", "--chart", "sl2_line", "--r", "3", "--module",
                                               "Dual(Std(2))*Std(2)", "--variant", "exp", "--j", "2", "--d", "1"],
})


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_report_matches_golden(golden, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN.parent.parent)
    assert main([*GOLDENS[golden], "--format", "jsonl"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_minors_dp_matches_exact_minors():
    """Every minor size of a dense matrix over two variables, against `ExactMatrix.minors`."""
    ring = PolyRing(GF(5), ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    rng = np.random.default_rng(3)
    entries = [x, y, x * y, x * x, ring.one(), ring.zero()]
    rows = [[sum((entries[k] * int(c) for k, c in enumerate(rng.integers(0, 5, len(entries)))), ring.zero())
             for _ in range(4)] for _ in range(4)]
    matrix = ExactMatrix.from_rows(ring, rows)
    ring = monomials._Monomials(ring)
    stack = ring.lift_matrix(matrix)
    assert oracle.monomial_matrix(ring, stack) == matrix
    for size in range(1, 5):
        assert oracle.minor_polynomials(ring, comb(4, size) ** 2, ring.minors(stack, size)) == matrix.minors(size)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_compiled_minors_match_exact_minors(data):
    """The minors compiled from the expansion's arrays, as `verify_closed_stratum` checks them,
    evaluate at GF(p) and GF(p^2) points as the `ExactMatrix.minors` polynomials do, the
    minors that vanish identically among them."""
    p = data.draw(st.sampled_from([3, 5]))
    ring = PolyRing(GF(p), ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    entries = [x, y, x * y, x * x, ring.one(), ring.zero()]
    n = data.draw(st.integers(1, 4))
    coefficients = st.lists(st.integers(0, p - 1), min_size=len(entries), max_size=len(entries))
    rows = [[sum((entries[k] * c for k, c in enumerate(data.draw(coefficients))), ring.zero())
             for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        # every minor through this row vanishes identically
        rows[data.draw(st.integers(0, n - 1))] = [ring.zero()] * n
    matrix = ExactMatrix.from_rows(ring, rows)
    mono = monomials._Monomials(ring)
    stack = mono.lift_matrix(matrix)
    for field in (GF(p), GF(p, 2)):
        points = data.draw(st.lists(st.lists(st.integers(0, field.order - 1), min_size=2, max_size=2),
                                    min_size=1, max_size=6))
        elements = [[field.from_index(i) for i in point] for point in points]
        for size in range(1, n + 1):
            count = comb(n, size) ** 2
            minors = mono.minors(stack, size)
            compiled = batch._CompiledPolys.from_terms(mono.exps, count, *minors, p)
            want = [element_indices([g.evaluate(point) for g in matrix.minors(size)]) for point in elements]
            assert compiled.at_points(field, np.array(points)).tolist() == want
            if field.n == 1:
                assert [compiled.at_ints(point) for point in points] == want


def test_minors_need_a_prime_field():
    ring = monomials._Monomials(PolyRing(GF(3, 2), ("x",)))
    with pytest.raises(JTCalcError, match="minors are taken over GF"):
        ring.minors(ring.identity(2), 1)


# -- drawn charts and modules --------------------------------------------------------


BUILTIN = [("ga_r", {"r": 2}), ("ga_r", {"r": 1}), ("multi_ga", {"s": 2}), ("sl2_line", {"r": 2}),
           ("sl2_line", {"r": 1}), ("upper_glN", {"r": 2, "N": 3})]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_builtin_charts_match_object_route(data):
    p = data.draw(st.sampled_from([3, 5]))
    name, kw = data.draw(st.sampled_from(BUILTIN))
    chart = builtin_chart(name, p, **kw)
    leaf = Std(chart.size) if chart.kind == KIND_GL else data.draw(explicit_leaves(GF(p, 2), chart.r))
    e = data.draw(modules(leaf, cap=4 if p == 5 else 6))
    variant = data.draw(st.sampled_from(["full", "exp"]))
    theta = assert_theta_matches(chart, e, variant)
    m = e.dim()
    j = data.draw(st.integers(1, p - 1))
    d = data.draw(st.integers(0, m))
    assert_minors_match(chart, e, variant, j, d, theta)


@st.composite
def parsed_charts(draw, p):
    """A chart of any kind in a and b through its text form, with arbitrary templates."""
    kind = draw(st.sampled_from(["gl", "ga", "multi_ga"]))
    size = draw(st.integers(2, 3)) if kind == KIND_GL else 1
    r = draw(st.integers(1, 2))
    ring = PolyRing(GF(p), ("a", "b"), (1, draw(st.integers(1, 3))))
    a, b = ring.var("a"), ring.var("b")
    monomials = [ring.one(), a, b, a * b, b * b]

    def entry():
        out = ring.zero()
        for m in monomials:
            if draw(st.integers(0, 3)) == 0:
                out = out + ring.constant(draw(st.integers(1, p - 1))) * m
        return out

    templates = tuple(ExactMatrix.from_rows(ring, [[entry() for _ in range(size)] for _ in range(size)])
                      for _ in range(r))
    return parse_chart(Chart("drawn", kind, p, r, size, ring, templates, ()).to_text())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_parsed_charts_match_object_route(data):
    p = data.draw(st.sampled_from([3, 5]))
    chart = data.draw(parsed_charts(p))
    leaf = Std(chart.size) if chart.kind == KIND_GL else data.draw(explicit_leaves(GF(p, 2), chart.r))
    e = data.draw(modules(leaf, depth=1))
    variant = data.draw(st.sampled_from(["full", "exp"]))
    theta = assert_theta_matches(chart, e, variant)
    assert_minors_match(chart, e, variant, data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, e.dim())),
                        theta)


@st.composite
def extension_charts(draw):
    """A chart of any kind over a `PolyRing` in x and y with coefficients all over GF(p^n)."""
    field = draw(st.sampled_from([GF(3, 2), GF(5, 2), GF(3, 3)]))
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    monomials = [ring.one(), x, y, x * y]

    def entry():
        out = ring.zero()
        for m in monomials:
            if draw(st.integers(0, 2)) == 0:
                out = out + ring.constant(field.from_index(draw(st.integers(1, field.order - 1)))) * m
        return out

    kind = draw(st.sampled_from(["gl", "ga", "multi_ga"]))
    r = draw(st.integers(1, 2))
    size = 2 if kind == KIND_GL else 1
    templates = tuple(ExactMatrix.from_rows(ring, [[entry() for _ in range(size)] for _ in range(size)])
                      for _ in range(r))
    return Chart("drawn", kind, field.p, r, size, ring, templates, ())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_extension_field_coefficients_match_object_route(data):
    """Over GF(p^n) each coefficient is its regular-representation block, twisted by Frobenius."""
    chart = data.draw(extension_charts())
    leaf = Std(2) if chart.kind == KIND_GL else data.draw(explicit_leaves(GF(chart.p, 2), chart.r))
    e = data.draw(modules(leaf, depth=1, cap=4))
    variant = data.draw(st.sampled_from(["full", "exp"]))
    assert_theta_matches(chart, e, variant)
