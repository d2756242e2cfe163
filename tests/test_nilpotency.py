"""Every input that raises NotNilpotentError.

Nilpotency is checked once at each trust boundary; this list pins the set of
rejected inputs so that moving a check can never let one through.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.errors import DomainMismatchError, JTCalcError, NotNilpotentError
from jtcalc.fields import GF, TruncatedCurveRing
from jtcalc.jordan import jt_of_nilpotent
from jtcalc.linalg import ExactMatrix, _Pointwise
from jtcalc.modules import (
    Explicit,
    Std,
    Tensor,
    eval_ga_point,
    parse_module_expr,
    texp_matrix,
    validate_commuting_tuple,
)
from jtcalc.strata import (
    builtin_chart,
    constant_rank_on_strata,
    curve_from_coeffs,
    parse_chart,
    semicontinuity_check,
    tabulate_jt,
)
from jtcalc import strata
from jtcalc import theta as theta_mod
from jtcalc.theta import (
    CommutingTuple,
    homotopy_ranks,
    homotopy_theta,
    jt_at_point,
    jt_power_at_point,
    theta_exp,
    theta_full,
)
import theta_oracles as oracle

F2, F3 = GF(2), GF(3)
E12 = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
DIAG = ExactMatrix.from_rows(F3, [[1, 0], [0, 0]])
# over GF(2), e12 and e21 are each 2-nilpotent but do not commute; the
# Std(2) x Std(2) operator on their stacks is not 2-nilpotent
E12_2 = ExactMatrix.from_rows(F2, [[0, 1], [0, 0]])
E21_2 = ExactMatrix.from_rows(F2, [[0, 0], [1, 0]])


def _unvalidated_cases():
    """(entry point, module, matrices, their validation report, the report of the entry point's
    operator check on their stacks).  The entry points once took such matrices in a tuple built
    unvalidated; the operator check names the variant that an entry point checks first."""
    entry_points = {
        "theta_full": (theta_full, "full"),
        "theta_exp": (theta_exp, "exp"),
        "jt_at_point_full": (lambda e, t: jt_at_point(e, t, "full"), "full"),
        "jt_at_point_exp": (lambda e, t: jt_at_point(e, t, "exp"), "exp"),
        "jt_power_at_point": (lambda e, t: jt_power_at_point(e, t, "full", 1), "full"),
        "homotopy_theta": (lambda e, t: homotopy_theta(e, t, t.domain.one(), t.domain.one()), "exp"),
        "homotopy_ranks": (lambda e, t: homotopy_ranks(e, t, ((1, 1),), 1), "exp"),
    }
    cases = []
    for name, (fn, variant) in entry_points.items():
        cases.append(pytest.param(fn, Std(2), [DIAG, E12], "matrix 0 is not 3-nilpotent", None,
                                  id=f"{name}-matrix"))
        cases.append(pytest.param(fn, Tensor(Std(2), Std(2)), [E12_2, E21_2], "matrices 0 and 1 do not commute",
                                  f"{variant} operator is not p-nilpotent", id=f"{name}-operator"))
    return cases


def test_gl_tuple_rejects_non_nilpotent_matrix():
    with pytest.raises(NotNilpotentError):
        CommutingTuple.gl([E12, DIAG])


F9 = GF(3, 2)
F4, F25, F27 = GF(2, 2), GF(5, 2), GF(3, 3)


def _over(field, rows, scale=None):
    """A matrix over field with integer entries, times the field's generator when scale."""
    m = ExactMatrix.from_rows(field, rows)
    return m.scalar_mul(field.gen()) if scale else m


# (matrices, field): each tuple fails a different check of `validate_commuting_tuple`, or two
# checks whose order decides the report
INVALID_TUPLES = [
    ([E12, DIAG], F3),
    ([DIAG, ExactMatrix.zeros(F3, 3, 3)], F3),
    ([E12, ExactMatrix.zeros(F3, 3, 3)], F3),
    ([E12, ExactMatrix.zeros(F3, 2, 3)], F3),
    ([E12_2, E21_2], F2),
    ([E12_2, E21_2, ExactMatrix.from_rows(F2, [[1, 0], [0, 0]])], F2),
    ([E12.embed_into(F9), DIAG.embed_into(F9).scalar_mul(F9.gen())], F9),
    ([E12.embed_into(F9), E12.embed_into(F9).transpose()], F9),
    ([E12.embed_into(F9), ExactMatrix.zeros(F9, 1, 1)], F9),
    # over GF(4), GF(25) and GF(27): the reports name element sizes, not block sizes
    ([_over(F4, [[0, 1], [0, 0]], True), ExactMatrix.zeros(F4, 2, 3)], F4),
    ([ExactMatrix.zeros(F25, 3, 2), _over(F25, [[0, 1], [0, 0]])], F25),
    ([_over(F25, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]), _over(F25, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], True)], F25),
    ([_over(F27, [[0, 1], [0, 0]], True), _over(F27, [[0, 0], [1, 0]])], F27),
    # a later non-nilpotent matrix outranks an earlier pair that does not commute
    ([_over(F4, [[0, 1], [0, 0]]), _over(F4, [[0, 0], [1, 0]], True), _over(F4, [[1, 1], [0, 1]])], F4),
    # a later matrix of the wrong size outranks an earlier pair that does not commute
    ([_over(F27, [[0, 1], [0, 0]]), _over(F27, [[0, 0], [1, 0]], True), ExactMatrix.zeros(F27, 3, 3)], F27),
]


@pytest.mark.parametrize("mats, field", INVALID_TUPLES)
def test_gl_tuple_reports_as_validate_commuting_tuple(mats, field):
    """`CommutingTuple` validates on integer stacks with the report of the object check."""
    report = oracle.validate_commuting_tuple(mats, field.p)
    assert report is not None
    with pytest.raises(NotNilpotentError, match=f"^{report}$"):
        CommutingTuple.gl(mats)


def test_gl_tuple_rejects_mixed_fields():
    with pytest.raises(DomainMismatchError):
        CommutingTuple.gl([E12, E12.embed_into(F9)])


@st.composite
def families(draw):
    """(matrices, field): a family over GF(p) or GF(p^n) of strictly upper or lower triangular
    matrices, or of any entries, some of another shape: square or not, p-nilpotent or not,
    commuting or not."""
    field = draw(st.sampled_from([F2, F3, GF(5), F4, F9]))
    size = draw(st.integers(1, 3))
    element = st.integers(0, field.order - 1).map(field.from_index)
    keep = {"upper": lambda i, j: j > i, "lower": lambda i, j: j < i, "any": lambda i, j: True}
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        rows = cols = size
        if draw(st.integers(0, 5)) == 0:
            rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        shape = keep[draw(st.sampled_from(["upper", "upper", "lower", "any"]))]
        mats.append(ExactMatrix.from_rows(field, [[draw(element) if shape(i, j) else 0 for j in range(cols)]
                                                  for i in range(rows)]))
    return mats, field


@settings(max_examples=300, deadline=None)
@given(families())
def test_validate_commuting_tuple_matches_the_object_check(family):
    """`modules.validate_commuting_tuple` runs the sweep's check on the matrices' stacks, with
    the report of the object arithmetic it replaced."""
    mats, field = family
    assert validate_commuting_tuple(mats, field.p) == oracle.validate_commuting_tuple(mats, field.p)


def test_validate_commuting_tuple_rejects_mixed_fields():
    """Matrices over different fields raise before any report, as a p that is not theirs does."""
    for mats in ([E12, E12.embed_into(F9)], [DIAG, E12.embed_into(F9)]):
        with pytest.raises(DomainMismatchError, match="^matrix domains differ$"):
            validate_commuting_tuple(mats, 3)
    with pytest.raises(DomainMismatchError, match=r"^p=5 is not the characteristic of GF\(3\)$"):
        validate_commuting_tuple([E12], 5)


def test_texp_matrix_rejects_non_nilpotent_matrix():
    with pytest.raises(NotNilpotentError):
        texp_matrix(DIAG, TruncatedCurveRing(F3, 1))


@pytest.mark.parametrize("fn, module, mats, report, message", _unvalidated_cases())
def test_unvalidated_tuple_is_rejected(stand_in, fn, module, mats, report, message):
    """Such matrices make no tuple: `CommutingTuple.gl` validates them when it is built.  Where the
    operator on their stacks is not p-nilpotent either, the entry point's check still says so."""
    with pytest.raises(NotNilpotentError, match=f"^{report}$"):
        CommutingTuple.gl(mats)
    if message is not None:
        with pytest.raises(NotNilpotentError, match=f"^{message}$"):
            fn(module, stand_in(mats))


def test_jt_of_nilpotent_rejects_non_nilpotent_matrix():
    with pytest.raises(NotNilpotentError):
        jt_of_nilpotent(DIAG, 3)
    with pytest.raises(NotNilpotentError):
        jt_of_nilpotent(ExactMatrix.identity(F3, 2), 3)


def test_explicit_module_rejects_invalid_matrices():
    with pytest.raises(NotNilpotentError):
        Explicit((DIAG,))
    with pytest.raises(NotNilpotentError):
        Explicit((E12_2, E21_2))


def test_eval_ga_point_rejects_non_nilpotent_point():
    ring = TruncatedCurveRing(F3, 1)
    with pytest.raises(NotNilpotentError):
        eval_ga_point(Explicit((E12,)), ring.one())


# a curve through a chart whose template is not nilpotent, and a curve through
# a GF(2) chart of non-commuting pairs (as E12_2, E21_2 above): in both the
# generic operator's final power does not vanish
SEMICONT_CASES = [
    ("field GF(3)\nkind gl\nr 1\nN 2\nparams a\ntemplate\na 0\n0 0\n", "Std(2)",
     {"a": [0, 1]}, "matrix is not 3-nilpotent"),
    ("field GF(2)\nkind gl\nr 2\nN 2\nparams a b\ntemplate\n0 a\n0 0\ntemplate\n0 0\nb 0\n",
     "Std(2)*Std(2)", {"a": [0, 1], "b": [0, 1]}, "matrix is not 2-nilpotent"),
]


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("text, module, coeffs, message", SEMICONT_CASES, ids=["template", "operator"])
def test_semicontinuity_rejects_non_nilpotent_generic_operator(text, module, coeffs, message, variant):
    chart = parse_chart(text)
    curve = curve_from_coeffs(chart, GF(chart.p), coeffs)
    with pytest.raises(NotNilpotentError, match=f"^{message}$"):
        semicontinuity_check(curve, parse_module_expr(module), variant)


# curves whose generic operator is p-nilpotent although the tuple along them
# is not a point: B_0 and B_1 do not commute for t != 0, or B_1 = diag(t, 0)
SEMICONT_TUPLE_CASES = [
    ("field GF(3)\nkind gl\nr 2\nN 2\nparams a b\ntemplate\n0 a\n0 0\ntemplate\n0 0\nb 0\n",
     "Std(2)*Std(2)", {"a": [0, 1], "b": [0, 1]}, "matrices 0 and 1 do not commute"),
    ("field GF(3)\nkind gl\nr 2\nN 2\nparams a\ntemplate\n0 a\n0 0\ntemplate\na 0\n0 0\n",
     "Tw(1,Std(2))", {"a": [0, 1]}, "matrix 1 is not 3-nilpotent"),
]


@pytest.mark.parametrize("variant", ["full", "exp"])
@pytest.mark.parametrize("text, module, coeffs, message", SEMICONT_TUPLE_CASES,
                         ids=["commute", "matrix"])
def test_semicontinuity_rejects_an_invalid_generic_tuple(text, module, coeffs, message, variant):
    chart = parse_chart(text)
    curve = curve_from_coeffs(chart, GF(chart.p), coeffs)
    with pytest.raises(NotNilpotentError, match=f"^{message}$"):
        semicontinuity_check(curve, parse_module_expr(module), variant)


# the three p-th-power checks of the homotopy family, in the order they raise: theta_exp,
# theta_full, then the sum.  At height 3 over GF(2) the full operator of Std(2) x Std(2) on
# the stacks of (e12, e21, 0), which do not commute, is not 2-nilpotent while the exponential
# one is.  No tuple holds them, so a point stands in for them (the `stand_in` fixture).
HOMOTOPY_ENTRY_POINTS = {
    "homotopy_theta": lambda e, t, s, u: homotopy_theta(e, t, t.domain.from_int(s), t.domain.from_int(u)),
    "homotopy_ranks": lambda e, t, s, u: homotopy_ranks(e, t, ((s, u),), 1),
}


@pytest.mark.parametrize("name", HOMOTOPY_ENTRY_POINTS)
def test_homotopy_checks_exp_then_full(stand_in, name):
    fn = HOMOTOPY_ENTRY_POINTS[name]
    module = Tensor(Std(2), Std(2))
    both = stand_in([E12_2, E21_2])
    with pytest.raises(NotNilpotentError, match="^exp operator is not p-nilpotent$"):
        fn(module, both, 1, 1)
    full_only = stand_in([E12_2, E21_2, ExactMatrix.zeros(F2, 2, 2)])
    with pytest.raises(NotNilpotentError, match="^full operator is not p-nilpotent$"):
        fn(module, full_only, 1, 0)
    with pytest.raises(JTCalcError, match=r"^homotopy parameters \(0, 0\) are excluded$"):
        fn(module, both, 0, 0)


@pytest.mark.parametrize("name", HOMOTOPY_ENTRY_POINTS)
def test_homotopy_checks_the_sum(monkeypatch, name):
    """No tuple found makes both operators p-nilpotent and their sum not, so the operators are
    replaced: e12 and e21 over GF(2), whose sum squares to the identity."""
    ring = _Pointwise(F2)
    ops = {"exp": E12_2._data[0], "full": E21_2._data[0]}
    monkeypatch.setattr(theta_mod, "_stack_operator", lambda e, tup, variant: (ring, ops[variant]))
    tup = CommutingTuple.gl([E12_2])
    with pytest.raises(NotNilpotentError, match=r"^homotopy\(1:1\) operator is not p-nilpotent$"):
        HOMOTOPY_ENTRY_POINTS[name](Std(2), tup, 1, 1)


# constant_rank_on_strata with the operators of some variants made not p-nilpotent at every
# representative: (table variant, those variants, homotopy samples, the error raised).  The
# per-stratum audit of the table's variant runs over every representative first; then, at each
# representative, the homotopy family checks (0, 0), theta_exp and theta_full at its first sample.
NOT_NILPOTENT = "^{} operator is not p-nilpotent$"
EXCLUDED = r"^homotopy parameters \(0, 0\) are excluded$"
CONSTANT_RANK_CASES = [
    ("full", {"exp"}, ((1, 0), (0, 1)), NOT_NILPOTENT.format("exp")),
    ("full", {"full"}, ((1, 0), (0, 1)), NOT_NILPOTENT.format("full")),
    ("full", {"exp", "full"}, ((1, 0), (0, 1)), NOT_NILPOTENT.format("full")),
    ("exp", {"full"}, ((1, 0), (0, 1)), NOT_NILPOTENT.format("full")),
    ("exp", {"exp"}, ((1, 0), (0, 1)), NOT_NILPOTENT.format("exp")),
    ("exp", {"exp", "full"}, ((1, 0), (0, 1)), NOT_NILPOTENT.format("exp")),
    ("full", {"exp"}, ((1, 0), (0, 0)), NOT_NILPOTENT.format("exp")),
    ("full", {"exp"}, ((0, 0), (1, 0)), EXCLUDED),
    ("full", {"full"}, ((0, 0), (1, 0)), NOT_NILPOTENT.format("full")),
]


@pytest.mark.parametrize("variant, failing, samples, message", CONSTANT_RANK_CASES)
def test_constant_rank_raises_the_first_failed_check(monkeypatch, variant, failing, samples, message):
    chart = builtin_chart("sl2_line", 3, r=1)
    e = parse_module_expr("Std(2)")
    table = tabulate_jt(chart, e, F3, variant)
    build = theta_mod._stack_operator

    def operator(e, tup, variant):
        ring, op = build(e, tup, variant)
        return ring, (op + np.eye(len(op), dtype=np.int64)) % ring.p if variant in failing else op

    monkeypatch.setattr(theta_mod, "_stack_operator", operator)
    with pytest.raises(JTCalcError, match=message):
        constant_rank_on_strata(table, chart, e, 1, F3, samples)


def test_homotopy_ranks_match_homotopy_theta():
    module = parse_module_expr("Sym(2,Std(2))*Tw(2,Std(2))")
    tup = CommutingTuple.gl([E12, E12.scalar_mul(F3.from_int(2)), E12])
    samples = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))
    for j in (1, 2):
        want = [homotopy_theta(module, tup, F3.from_int(s), F3.from_int(t)).pow(j).rank()
                for s, t in samples]
        assert homotopy_ranks(module, tup, samples, j) == want


@pytest.mark.parametrize("text, module, coeffs, message", SEMICONT_CASES + SEMICONT_TUPLE_CASES,
                         ids=["template", "operator", "commute", "matrix"])
def test_an_invalid_curve_raises_alike_on_every_check(text, module, coeffs, message):
    """The generic type, then the tuple's validation, then the special type, on every call."""
    curve = curve_from_coeffs(parse_chart(text), GF(parse_chart(text).p), coeffs)
    for variant in ("full", "exp", "full", "exp"):
        with pytest.raises(NotNilpotentError, match=f"^{message}$"):
            semicontinuity_check(curve, parse_module_expr(module), variant)


def test_a_valid_curve_is_validated_once(monkeypatch):
    calls = []
    validate = strata._validate
    monkeypatch.setattr(strata, "_validate", lambda *args: calls.append(args) or validate(*args))
    chart = parse_chart("field GF(3)\nkind gl\nr 2\nN 2\nparams a b\ntemplate\n0 a\n0 0\n"
                        "template\n0 b\n0 0\n")
    curve = curve_from_coeffs(chart, GF(3), {"a": [0, 1], "b": [1, 1]})
    module = parse_module_expr("Std(2)*Tw(1,Std(2))")
    reports = [semicontinuity_check(curve, module, variant) for variant in ("full", "exp", "full")]
    assert len(calls) == 1
    assert reports[0] == reports[2] and reports[0].ok
