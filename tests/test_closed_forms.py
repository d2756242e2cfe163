"""Closed forms against the matrix computations they replace.

`jt_tensor` pairs blocks by the closed form for [m] (x) [n].  Its oracle
realizes both types as nilpotent matrices N_a, N_b and takes the Jordan type
of N_a (x) 1 + 1 (x) N_b, as `jt_tensor` itself did before.

`jt_power_at_point` over a finite field is `jt_power` of the type at the
point.  Its oracle builds the checked operator and ranks its j-th power, as
`jt_power_at_point` did before; outcomes compare as values or as
(exception type, message).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jtcalc.errors import JTCalcError, NotNilpotentError
from jtcalc.fields import GF
from jtcalc.jordan import JordanType, all_types_of_dim, jt_of_nilpotent, jt_tensor, realize_nilpotent
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import Explicit, Std, Tensor, parse_module_expr
from jtcalc.strata import builtin_chart
from jtcalc.theta import CommutingTuple, by_variant, jt_power_at_point, theta_exp, theta_full

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def tensor_by_realization(a, b):
    field = GF(a.p)
    na, nb = realize_nilpotent(a, field), realize_nilpotent(b, field)
    ia, ib = ExactMatrix.identity(field, a.dim), ExactMatrix.identity(field, b.dim)
    return jt_of_nilpotent(na.kron(ib) + ia.kron(nb), a.p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tensor_closed_form_matches_realization(p):
    types = [a for m in range(1, 7) for a in all_types_of_dim(p, m)]
    for i, a in enumerate(types):
        for b in types[i:]:
            want = tensor_by_realization(a, b)
            assert jt_tensor(a, b) == want, (a, b)
            assert jt_tensor(b, a) == want, (b, a)


def test_tensor_mismatch_is_checked_before_zero():
    zero3 = JordanType(3, (0, 0, 0))
    with pytest.raises(JTCalcError, match="characteristic mismatch"):
        jt_tensor(zero3, JordanType(5, (1, 0, 0, 0, 0)))
    assert jt_tensor(JordanType(3, (1, 0, 2)), zero3) == zero3


def power_by_rank_profile(e, tup, variant, j):
    if not 1 <= j < tup.p:
        raise JTCalcError(f"power {j} outside 1..p-1")
    return jt_of_nilpotent(by_variant(variant, theta_full, theta_exp)(e, tup).pow(j), tup.p)


def outcome(fn, *args):
    try:
        return fn(*args)
    except JTCalcError as exc:
        return type(exc), str(exc)


def assert_same_power(e, tup, variant, j):
    want = outcome(power_by_rank_profile, e, tup, variant, j)
    assert outcome(jt_power_at_point, e, tup, variant, j) == want


SL2_MODULES = ["Std(2)", "Std(2)*Tw(1,Std(2))", "Sym(2,Std(2))*Tw(1,Std(2))",
               "Dual(Std(2))+Tw(1,Sym(2,Std(2)))", "Ext(2,Std(2)+Tw(1,Std(2)))"]


@st.composite
def sl2_points(draw):
    """A point of sl2_line r=2: a^2 + b c = 0 holds by construction."""
    field = draw(st.sampled_from([GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2)]))
    a, b, c, l0, l1 = (field.from_index(draw(st.integers(0, field.order - 1))) for _ in range(5))
    if b.is_zero():
        a = field.zero()
    else:
        c = -(a * a) / b
    return builtin_chart("sl2_line", field.p, r=2).tuple_at([a, b, c, l0, l1])


@SETTINGS
@given(sl2_points(), st.sampled_from(SL2_MODULES), st.sampled_from(["full", "exp"]), st.data())
def test_power_at_point_matches_rank_profile_on_sl2_line(tup, text, variant, data):
    j = data.draw(st.integers(1, tup.p - 1))
    assert_same_power(parse_module_expr(text), tup, variant, j)


def test_power_at_point_matches_rank_profile_on_upper_and_additive_charts():
    f5 = GF(5)
    upper = builtin_chart("upper_glN", 5, r=2, N=3)
    e = parse_module_expr("Std(3)*Tw(1,Std(3))")
    for values in ([1, 2, 0, 3, 4, 0], [0, 1, 0, 0, 2, 0], [1, 0, 2, 1, 0, 2]):
        tup = upper.tuple_at([f5.from_int(v) for v in values])
        for variant in ("full", "exp"):
            for j in range(1, 5):
                assert_same_power(e, tup, variant, j)
    # a height-2 Explicit module: the 3x3 Jordan block J and J^2 commute and are 3-nilpotent
    f3 = GF(3)
    jb = ExactMatrix.from_rows(f3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    explicit = Explicit((jb, jb @ jb))
    for field in (f3, GF(3, 2)):
        for idx in ((1, 0), (0, 1), (2, 1), (field.order - 1, 1)):
            scalars = [field.from_index(i) for i in idx]
            for tup in (CommutingTuple.ga(scalars, field), CommutingTuple.multi_ga(scalars, field)):
                for variant in ("full", "exp"):
                    for j in (1, 2):
                        assert_same_power(explicit, tup, variant, j)


def test_power_at_point_rejects_what_the_rank_profile_rejected(stand_in):
    """A matrix that is not p-nilpotent makes no tuple: `CommutingTuple.gl` rejects it.  Matrices
    that do not commute make none either; a point stands in for them (`stand_in`), so that their
    operator, which is not p-nilpotent, meets both routes."""
    f2, f3 = GF(2), GF(3)
    diag = ExactMatrix.from_rows(f3, [[1, 0], [0, 0]])
    e12 = ExactMatrix.from_rows(f3, [[0, 1], [0, 0]])
    with pytest.raises(NotNilpotentError, match="^matrix 0 is not 3-nilpotent$"):
        CommutingTuple.gl([diag, e12])
    bad_operator = stand_in([ExactMatrix.from_rows(f2, [[0, 1], [0, 0]]),
                             ExactMatrix.from_rows(f2, [[0, 0], [1, 0]])])
    good = CommutingTuple.gl([e12, e12])
    square = Tensor(Std(2), Std(2))
    cases = [(square, bad_operator, "full", 1), (square, bad_operator, "exp", 1),
             (Std(2), good, "full", 0), (Std(2), good, "full", 3), (Std(2), good, "both", 1),
             (parse_module_expr("Std(3)"), good, "full", 1)]
    for e, tup, variant, j in cases:
        got = outcome(jt_power_at_point, e, tup, variant, j)
        assert isinstance(got, tuple)
        assert got == outcome(power_by_rank_profile, e, tup, variant, j)
