import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.errors import CapExceededError, JTCalcError, NotNilpotentError
from jtcalc.fields import GF
from jtcalc.jordan import (
    JordanType,
    RankProfile,
    all_types_of_dim,
    dominance_leq,
    dominance_leq_checked,
    jt_from_rank_profile,
    jt_of_nilpotent,
    jt_perp,
    jt_power,
    jt_rank,
    jt_sum,
    jt_tensor,
    parse_jordan_type,
    realize_nilpotent,
)
from jtcalc.linalg import ExactMatrix
from linalg_oracles import power_ranks

J = JordanType.from_blocks


def test_rank_profile_inversion_examples():
    assert jt_from_rank_profile(RankProfile(3, 3, (0, 0))) == J(3, [1, 1, 1])
    assert jt_from_rank_profile(RankProfile(3, 3, (2, 1))) == J(3, [3])
    assert jt_from_rank_profile(RankProfile(5, 4, (2, 0, 0, 0))) == J(5, [2, 2])
    with pytest.raises(JTCalcError):
        jt_from_rank_profile(RankProfile(3, 3, (1, 2)))  # not monotone
    with pytest.raises(JTCalcError):
        jt_from_rank_profile(RankProfile(5, 6, (4, 1, 0, 0)))  # not convex


def test_jt_of_nilpotent_examples():
    F5, F3 = GF(5), GF(3)
    assert jt_of_nilpotent(ExactMatrix.zeros(F5, 3, 3), 5) == J(5, [1, 1, 1])
    j3 = realize_nilpotent(J(3, [3]), F3)
    assert jt_of_nilpotent(j3, 3) == J(3, [3])
    j2 = realize_nilpotent(J(3, [2]), F3)
    i2 = ExactMatrix.identity(F3, 2)
    op = j2.kron(i2) + i2.kron(j2)
    assert jt_of_nilpotent(op, 3) == J(3, [3, 1])
    with pytest.raises(NotNilpotentError):
        jt_of_nilpotent(ExactMatrix.identity(F3, 2), 3)
    with pytest.raises(JTCalcError):
        jt_of_nilpotent(ExactMatrix.zeros(F3, 2, 3), 3)


def _by_power_ranks(n, p):
    """The Jordan type of the ranks of n's powers, taken one by one: the oracle of `jt_of_nilpotent`."""
    return jt_from_rank_profile(RankProfile(p, n.rows, power_ranks(n, p)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except JTCalcError as exc:
        return type(exc), str(exc)


@st.composite
def square_matrices(draw):
    """A matrix over GF(p) or GF(p^n): a realized Jordan type conjugated by a drawn matrix when that
    is invertible, plus a drawn multiple of the identity, so that some are not p-nilpotent."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2), GF(5, 2), GF(2, 3)]))
    a = draw(st.sampled_from(all_types_of_dim(field.p, draw(st.integers(1, 6)))))
    element = st.integers(0, field.order - 1).map(field.from_index)
    m = a.dim
    n = realize_nilpotent(a, field)
    g = ExactMatrix.from_rows(field, [[draw(element) for _ in range(m)] for _ in range(m)])
    if g.rank() == m:
        n = g @ n @ g.inverse()
    shift = draw(element) if draw(st.integers(0, 3)) == 0 else field.zero()
    return n + ExactMatrix.identity(field, m).scalar_mul(shift)


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_jt_of_nilpotent_matches_power_ranks_oracle(n):
    p = n.domain.p
    assert _outcome(jt_of_nilpotent, n, p) == _outcome(_by_power_ranks, n, p)


def test_dominance_examples():
    assert dominance_leq(J(3, [2, 1]), J(3, [3]))
    assert not dominance_leq(J(3, [3]), J(3, [2, 1]))
    a = J(3, [2, 2])
    b = J(3, [3, 1])
    assert dominance_leq(a, b) and not dominance_leq(b, a)
    for t in all_types_of_dim(5, 6):
        assert dominance_leq(t, t)
    leq, comparable = dominance_leq_checked(J(3, [2]), J(3, [3]))
    assert not leq and not comparable
    with pytest.raises(JTCalcError):
        dominance_leq(J(3, [2]), J(5, [2]))


def test_sum_examples():
    zero = JordanType.of(3, (0, 0, 0))
    a = J(3, [3, 1])
    assert jt_sum(a, zero) == a
    assert jt_sum(J(3, [3]), J(3, [1])) == J(3, [3, 1])
    assert jt_sum(J(3, [2, 2]), J(3, [2])) == J(3, [2, 2, 2])


def test_tensor_examples():
    for p in (2, 3, 5):
        b = J(p, [2]) if p > 2 else J(p, [2])
        assert jt_tensor(J(p, [1]), b) == b
    assert jt_tensor(J(3, [2]), J(3, [2])) == J(3, [3, 1])
    assert jt_tensor(J(2, [2]), J(2, [2])) == J(2, [2, 2])
    with pytest.raises(CapExceededError):
        jt_tensor(J(5, [5] * 14), J(5, [5] * 12))


def test_power_examples():
    a = J(5, [4, 2, 1])
    assert jt_power(a, 1) == a
    assert jt_power(J(5, [5]), 2) == J(5, [3, 2])
    assert jt_power(J(5, [4]), 2) == J(5, [2, 2])
    with pytest.raises(JTCalcError):
        jt_power(a, 5)


def test_jt_rank_examples():
    for s in range(1, 5):
        assert jt_rank(J(5, [1] * 4), s) == 0
    for p in (3, 5):
        for s in range(1, p):
            assert jt_rank(J(p, [p]), s) == p - s
    assert jt_rank(J(3, [2]), 1) == 1


def test_perp_examples():
    assert jt_perp(J(5, [5, 5])).is_zero()
    assert jt_perp(J(5, [4, 1])) == J(5, [4, 1])
    assert jt_perp(J(3, [2, 2])) == J(3, [1, 1])


def _down_set(a):
    """All types of the same dimension below a: the Alexandrov closure of {a}."""
    return {b for b in all_types_of_dim(a.p, a.dim) if dominance_leq(b, a)}


def test_down_set_examples():
    m1 = J(3, [1, 1, 1])
    assert _down_set(m1) == {m1}
    ds = _down_set(J(3, [3]))
    assert ds == {J(3, [3]), J(3, [2, 1]), J(3, [1, 1, 1])}
    ds2 = _down_set(J(2, [2, 2]))
    assert ds2 == {J(2, [2, 2]), J(2, [2, 1, 1]), J(2, [1, 1, 1, 1])}


def test_down_set_is_downward_closed():
    for a in all_types_of_dim(3, 6):
        ds = _down_set(a)
        for b in ds:
            for c in all_types_of_dim(3, 6):
                if dominance_leq(c, b):
                    assert c in ds


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_rank_profile_round_trip(seed):
    from jtcalc.jordan import rank_profile

    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7])
    a = rng.choice(all_types_of_dim(p, rng.randrange(1, 10)))
    assert jt_from_rank_profile(rank_profile(a)) == a


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_partial_order_laws(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    m = rng.randrange(1, 8)
    types = all_types_of_dim(p, m)
    a, b, c = (rng.choice(types) for _ in range(3))
    if dominance_leq(a, b) and dominance_leq(b, a):
        assert a == b
    if dominance_leq(a, b) and dominance_leq(b, c):
        assert dominance_leq(a, c)


def test_dimension_laws_sampled():
    rng = random.Random(9)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        a = rng.choice(all_types_of_dim(p, rng.randrange(1, 6)))
        b = rng.choice(all_types_of_dim(p, rng.randrange(1, 6)))
        assert jt_sum(a, b).dim == a.dim + b.dim
        assert jt_tensor(a, b).dim == a.dim * b.dim


def test_text_forms():
    a = JordanType.of(5, (4, 0, 1, 0, 2))
    assert a.to_text() == "2[5]+[3]+4[1]"
    assert parse_jordan_type("2[5]+[3]+4[1]", 5) == a
    assert parse_jordan_type("0", 5).is_zero()
    assert a.to_json() == {"p": 5, "counts": [4, 0, 1, 0, 2]}
    with pytest.raises(JTCalcError):
        parse_jordan_type("[6]", 5)
