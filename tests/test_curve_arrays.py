"""Curves drawn as integer coefficient arrays against the `Polynomial` builders.

The oracles are the builders of `curve_oracles`, which sum `constant(c) * t**i`
terms and multiply `Polynomial`s.  The curves must be equal as `Curve`s (the
chart, the `substitution` dict compared by `Polynomial ==`, and the label),
with the same `special_values`, and the seeded draws of a call that returns
must leave its generator in the same state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curve_oracles as oracle
from jtcalc import strata
from jtcalc.errors import DomainMismatchError, JTCalcError
from jtcalc.fields import GF, PolyRing
from jtcalc.strata import Curve, builtin_chart, builtin_curves, curve_from_coeffs, parse_chart


def custom_chart(p, constraint=""):
    """A parsed chart, which takes the generic branch of `builtin_curves`."""
    return parse_chart(f"name custom\nfield GF({p})\nkind gl\nr 1\nN 2\nparams x y:2\n"
                       f"template\n0 x*y\n0 0\n{constraint}")


def _charts(p):
    charts = [builtin_chart("sl2_line", p, r=r) for r in (1, 2, 3)]
    charts += [builtin_chart("upper_glN", p, r=r, N=n) for n in (2, 3, 4) if n <= p for r in (1, 2)]
    charts += [builtin_chart("ga_r", p, r=2), builtin_chart("multi_ga", p, s=3)]
    # the constraint fails on most drawn curves, so the builders must raise alike
    return charts + [custom_chart(p), custom_chart(p, "constraint x^2*y\n")]


def _outcome(call):
    """The call's value, or (exception type, message)."""
    try:
        return call()
    except JTCalcError as exc:
        return type(exc), str(exc)


def _with_generators(call):
    """The call's value and the states of the `random.Random`s it made, after it ran."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random, "Random", Recorded)
        out = _outcome(call)
    return out, [rng.getstate() for rng in made]


def assert_same_curves(got, want):
    assert isinstance(got, list) == isinstance(want, list)
    if not isinstance(want, list):
        assert got == want
        return
    assert got == want
    assert [c.label for c in got] == [c.label for c in want]
    for new, old in zip(got, want):
        assert list(new.substitution) == list(old.substitution)
        fields = [new.field] + ([GF(new.field.p, 2)] if new.field.n == 1 else [])
        for field in fields:
            assert new.special_values(field) == old.special_values(field)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_builtin_curves_match_the_polynomial_builder(p):
    for chart in _charts(p):
        for seed, count in ((0, 64), (1, 7), (p, 1), (19, 0)):
            got, got_states = _with_generators(lambda: builtin_curves(chart, seed, count))
            want, want_states = _with_generators(lambda: oracle.builtin_curves(chart, seed, count))
            assert_same_curves(got, want)
            assert len(got_states) == len(want_states) == 1
            if isinstance(want, list):
                # after an error the generator is dropped, so its state shows nowhere
                assert got_states == want_states


def test_builtin_curves_are_prefixes_and_reject_negative_counts():
    chart = builtin_chart("sl2_line", 5, r=2)
    assert builtin_curves(chart, 3, 40)[:9] == builtin_curves(chart, 3, 9)
    assert builtin_curves(chart, 3, 0) == []
    with pytest.raises(JTCalcError, match="^curve count -1 is negative$"):
        builtin_curves(chart, 3, -1)


FIELDS = [GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2), GF(2, 3)]


@st.composite
def coefficient_maps(draw, chart, field):
    """{param: [c0, ...]}: ints of any sign and size, elements of the field or of its prime
    field, trailing zeros and empty lists; some parameters are left out."""
    prime = GF(field.p)
    coefficient = st.one_of(
        st.integers(-3 * field.p, 3 * field.p),
        st.integers(0, field.order - 1).map(field.from_index),
        st.integers(0, field.p - 1).map(prime.from_int),
    )
    out = {}
    for v in chart.params:
        if draw(st.integers(0, 4)):
            coeffs = draw(st.lists(coefficient, max_size=4))
            out[v] = coeffs + [0] * draw(st.integers(0, 2))
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_curve_from_coeffs_matches_the_polynomial_builder(data):
    field = data.draw(st.sampled_from(FIELDS))
    p = field.p
    charts = [builtin_chart("ga_r", p, r=2), builtin_chart("multi_ga", p, s=2)]
    if p >= 3:
        charts.append(builtin_chart("sl2_line", p, r=1))
    charts += [custom_chart(p), custom_chart(p, "constraint x*y\n")]
    chart = data.draw(st.sampled_from(charts))
    coeffs = data.draw(coefficient_maps(chart, field))
    got = _outcome(lambda: [curve_from_coeffs(chart, field, coeffs, label="drawn")])
    want = _outcome(lambda: [oracle.curve_from_coeffs(chart, field, coeffs, label="drawn")])
    assert_same_curves(got, want)


def test_curve_from_coeffs_on_sl2_line_curves_that_satisfy_the_constraint():
    """a = b*d, c = -b*d^2, with ints outside 0..p-1 and trailing zeros."""
    chart = builtin_chart("sl2_line", 5, r=2)
    # b = 3 + t, d = 1 + 2t
    coeffs = {"a": [-2, 7, 2], "b": [3, 1, 0, 0], "c": [-3, 12, 4, 1, 0], "l1": [-1, 5, 6]}
    got, want = (build(chart, GF(5), coeffs) for build in (curve_from_coeffs, oracle.curve_from_coeffs))
    assert_same_curves([got], [want])
    assert str(got.substitution["c"]) == "t^3 + 4 * t^2 + 2 * t + 2"
    assert got.substitution["l0"].is_zero()


def test_curve_field_mismatch_raises_as_before():
    """A coefficient from a field that does not embed raises the same error on both routes."""
    chart = builtin_chart("ga_r", 3, r=2)
    bad = {"a0": [GF(3, 2).gen()]}
    got = _outcome(lambda: curve_from_coeffs(chart, GF(3), bad))
    want = _outcome(lambda: oracle.curve_from_coeffs(chart, GF(3), bad))
    assert got == want
    assert isinstance(got, tuple)


def test_unconstrained_charts_build_no_stacks(monkeypatch):
    calls = []
    at_stacks = strata.batch._CompiledPolys.at_stacks
    monkeypatch.setattr(strata.batch._CompiledPolys, "at_stacks",
                        lambda self, *args: calls.append(self) or at_stacks(self, *args))
    for name, kw in (("ga_r", {"r": 2}), ("multi_ga", {"s": 2})):
        builtin_curves(builtin_chart(name, 3, **kw), 1, 5)
    assert not calls
    builtin_curves(builtin_chart("sl2_line", 3, r=1), 1, 5)
    assert len(calls) == 5


def test_parameters_over_a_subfield_embed_into_the_curve_field():
    """The curve's field is its first parameter's; the others embed into it, or the curve is
    rejected."""
    chart = builtin_chart("ga_r", 3, r=2)
    small, big = PolyRing(GF(3), ("t",)), PolyRing(GF(3, 2), ("t",))
    g = GF(3, 2).gen()
    curve = Curve(chart, {"a0": big.var("t") * g + g, "a1": small.var("t") + 1})
    assert curve.field == GF(3, 2)
    assert curve.special_values(GF(3, 2)) == [g, GF(3, 2).one()]
    with pytest.raises(DomainMismatchError, match="cannot embed"):
        Curve(chart, {"a0": small.var("t"), "a1": big.var("t") * g})
