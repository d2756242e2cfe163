import random
import re

import pytest

from jtcalc.errors import DomainMismatchError, JTCalcError, NotAFieldError, NotNilpotentError
from jtcalc.fields import GF, PolyRing, RationalFunctionField, TruncatedCurveRing
from jtcalc.jordan import JordanType, jt_of_nilpotent, jt_tensor, parse_jordan_type
from jtcalc.linalg import ExactMatrix
from jtcalc.modules import Explicit, Std, Sym, Tensor, Twist, texp_matrix
from jtcalc.strata import (
    Chart,
    builtin_chart,
    builtin_curves,
    constant_rank_on_strata,
    rank_locus_minors,
    semicontinuity_check,
    tabulate_jt,
    verify_closed_stratum,
)
from jtcalc.theta import (
    KIND_GL,
    CommutingTuple,
    _one_param,
    conjugate_tuple,
    homotopy_theta,
    jt_at_point,
    jt_exp_infinite,
    jt_power_at_point,
    one_param,
    scale_tuple,
    theta_exp,
    theta_full,
)
from theta_oracles import ga_curve_element, symbolic_theta

F3, F5 = GF(3), GF(5)
E3 = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
E5 = ExactMatrix.from_rows(F5, [[0, 1], [0, 0]])
J = JordanType.from_blocks


def J3(field):
    return ExactMatrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_trunc_exp_examples():
    ring5 = TruncatedCurveRing(F5, 1)
    z = ExactMatrix.zeros(F5, 2, 2)
    pair = texp_matrix(z, ring5)
    assert pair.g == ExactMatrix.identity(ring5, 2)
    pair = texp_matrix(E5, ring5)
    t = ring5.t()
    assert pair.g == ExactMatrix.from_rows(ring5, [[ring5.one(), t], [ring5.zero(), ring5.one()]])
    assert pair.g_inv == ExactMatrix.from_rows(ring5, [[ring5.one(), -t], [ring5.zero(), ring5.one()]])
    ring3 = TruncatedCurveRing(F3, 1)
    j3 = J3(F3)
    pair3 = texp_matrix(j3, ring3)
    # I + t J3 + 2 t^2 J3^2 since 1/2 = 2 in GF(3)
    assert pair3.g.coefficient(2) == (j3 @ j3).scalar_mul(F3.from_int(2))
    with pytest.raises(NotNilpotentError):
        texp_matrix(ExactMatrix.identity(F3, 2), ring3)


def test_one_param_examples():
    z = ExactMatrix.zeros(F3, 2, 2)
    tup0 = CommutingTuple.gl([z, z])
    assert one_param(tup0).g == ExactMatrix.identity(TruncatedCurveRing(F3, 2), 2)
    tup1 = CommutingTuple.gl([E3])
    ring1 = TruncatedCurveRing(F3, 1)
    assert one_param(tup1).g == texp_matrix(E3, ring1).g
    tup2 = CommutingTuple.gl([z, E3])
    ring2 = TruncatedCurveRing(F3, 2)
    t = ring2.t()
    expected = ExactMatrix.from_rows(ring2, [[ring2.one(), t**3], [ring2.zero(), ring2.one()]])
    assert one_param(tup2).g == expected


def test_one_param_without_inverse():
    tup = CommutingTuple.gl([E3, E3.scalar_mul(F3.from_int(2))])
    pair = _one_param(tup, with_inv=False)
    assert pair.g == one_param(tup).g
    assert pair.g_inv is None
    assert _one_param(tup, with_inv=True) == one_param(tup)


def test_theta_full_examples():
    mod = Tensor(Sym(1, Std(2)), Twist(1, Sym(1, Std(2))))
    z = ExactMatrix.zeros(F3, 2, 2)
    assert theta_full(mod, CommutingTuple.gl([z, z])).is_zero()
    # r=1 equals the Lie-algebra action
    tup1 = CommutingTuple.gl([E3])
    i2 = ExactMatrix.identity(F3, 2)
    assert theta_full(Std(2), tup1) == E3
    # at r=1 the twisted factor sees no t-coefficient; dp(E) acts on the first slot only
    got1 = theta_full(Tensor(Std(2), Twist(1, Std(2))), tup1)
    assert got1 == E3.kron(i2)
    # r=2 worked operator: a1 (E ox 1) + a0^p (1 ox E)
    for a0v in range(3):
        for a1v in range(3):
            a0, a1 = F3.from_int(a0v), F3.from_int(a1v)
            tup = CommutingTuple.gl([E3.scalar_mul(a0), E3.scalar_mul(a1)])
            got = theta_full(mod, tup)
            want = E3.kron(i2).scalar_mul(a1) + i2.kron(E3).scalar_mul(a0**3)
            assert got == want


def test_theta_exp_examples():
    # zero tuple gives the zero operator and type m[1]
    z = ExactMatrix.zeros(F3, 2, 2)
    mod = Tensor(Std(2), Twist(1, Std(2)))
    tup0 = CommutingTuple.gl([z, z])
    assert theta_exp(mod, tup0).is_zero()
    assert jt_at_point(mod, tup0, "exp") == J(3, [1, 1, 1, 1])
    # additive kernel: scalar tuple acts as sum a_{r-1-i}^{p^i} alpha_i
    j3 = J3(F3)
    alphas = (j3, j3 @ j3)
    emod = Explicit(alphas)
    rng = random.Random(0)
    for _ in range(20):
        scalars = [F3.random_element(rng) for _ in range(2)]
        tup = CommutingTuple.ga(scalars, F3)
        got = theta_exp(emod, tup)
        want = alphas[0].scalar_mul(scalars[1]) + alphas[1].scalar_mul(scalars[0] ** 3)
        assert got == want
    # r = 2: exp and full agree on every input
    for _ in range(20):
        scalars = [F3.random_element(rng) for _ in range(2)]
        tup = CommutingTuple.ga(scalars, F3)
        assert theta_exp(emod, tup) == theta_full(emod, tup)


def test_theta_multi_ga_examples():
    """The height-1 product-of-lines operator sum_i a_i alpha_i on an Explicit module."""
    j2 = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
    i2 = ExactMatrix.identity(F3, 2)
    alpha0, alpha1 = j2.kron(i2), i2.kron(j2)
    emod = Explicit((alpha0, alpha1))

    def multi_ga(scalars):
        return theta_full(emod, CommutingTuple.multi_ga(scalars, F3))

    zero = multi_ga([F3.zero(), F3.zero()])
    assert zero.is_zero()
    unit = multi_ga([F3.one(), F3.zero()])
    assert unit == alpha0
    both = multi_ga([F3.one(), F3.one()])
    assert jt_of_nilpotent(both, 3) == J(3, [3, 1])
    # the sum of the scaled action matrices
    assert both == alpha0 + alpha1
    # a scalar count other than the number of action matrices is refused at the pairing
    with pytest.raises(JTCalcError, match="Explicit module of height 2 used with a 1-parameter point"):
        multi_ga([F3.one()])


def test_jt_at_point_sl2_regimes():
    # the three height-2 regimes for Sym(l0) ox Tw(Sym(l1))
    for p in (3, 5):
        field = GF(p)
        e = ExactMatrix.from_rows(field, [[0, 1], [0, 0]])
        for lam0 in range(p):
            for lam1 in range(p):
                mod = Tensor(Sym(lam0, Std(2)), Twist(1, Sym(lam1, Std(2))))
                m, n = lam0 + 1, lam1 + 1
                one, zero = field.one(), field.zero()
                jt_a = jt_at_point(mod, CommutingTuple.gl([e, ExactMatrix.zeros(field, 2, 2)]))
                assert jt_a == JordanType.of(p, tuple(m if i == n else 0 for i in range(1, p + 1)))
                jt_b = jt_at_point(mod, CommutingTuple.gl([ExactMatrix.zeros(field, 2, 2), e]))
                assert jt_b == JordanType.of(p, tuple(n if i == m else 0 for i in range(1, p + 1)))
                jt_c = jt_at_point(mod, CommutingTuple.gl([e, e]))
                assert jt_c == jt_tensor(J(p, [m]), J(p, [n]))


def test_jt_power_at_point():
    mod = Sym(4, Std(2))  # 5-dimensional, E acts as a single [5] block
    e = ExactMatrix.from_rows(F5, [[0, 1], [0, 0]])
    tup = CommutingTuple.gl([e])
    assert jt_at_point(mod, tup) == J(5, [5])
    assert jt_power_at_point(mod, tup, "full", 1) == J(5, [5])
    assert jt_power_at_point(mod, tup, "full", 2) == J(5, [3, 2])
    z = ExactMatrix.zeros(F5, 2, 2)
    assert jt_power_at_point(mod, CommutingTuple.gl([z]), "full", 3) == J(5, [1] * 5)
    with pytest.raises(JTCalcError):
        jt_power_at_point(mod, tup, "full", 5)


def test_scale_tuple_examples():
    tup = CommutingTuple.gl([E5, E5.scalar_mul(F5.from_int(3))])
    same = scale_tuple(tup, F5.one())
    assert same.mats[0] == tup.mats[0] and same.mats[1] == tup.mats[1]
    zero = scale_tuple(tup, F5.zero())
    assert zero.is_zero()
    two = scale_tuple(tup, F5.from_int(2))
    assert two.mats[0] == E5.scalar_mul(F5.from_int(2))
    # 2^5 = 32 = 2 mod 5
    assert two.mats[1] == E5.scalar_mul(F5.from_int(3) * F5.from_int(2))


def test_conjugate_tuple_examples():
    tup = CommutingTuple.gl([E3, E3])
    ident = ExactMatrix.identity(F3, 2)
    same = conjugate_tuple(tup, ident)
    assert same.mats[0] == E3
    diag = ExactMatrix.from_rows(F3, [[2, 0], [0, 1]])
    conj = conjugate_tuple(tup, diag)
    assert conj.mats[0] == E3.scalar_mul(F3.from_int(2))
    perm = ExactMatrix.from_rows(F3, [[0, 1], [1, 0]])
    mod = Tensor(Std(2), Twist(1, Std(2)))
    assert jt_at_point(mod, conjugate_tuple(tup, perm)) == jt_at_point(mod, tup)
    with pytest.raises(JTCalcError):
        conjugate_tuple(tup, ExactMatrix.zeros(F3, 2, 2))


def test_homotopy_examples():
    mod = Tensor(Std(2), Twist(1, Std(2)))
    tup = CommutingTuple.gl([E3, E3])
    h_exp = homotopy_theta(mod, tup, F3.one(), F3.zero())
    assert h_exp == theta_exp(mod, tup)
    h_full = homotopy_theta(mod, tup, F3.zero(), F3.one())
    assert h_full == theta_full(mod, tup)
    # r = 2: the family is (s + t) times one matrix
    h11 = homotopy_theta(mod, tup, F3.one(), F3.one())
    assert h11 == theta_full(mod, tup).scalar_mul(F3.from_int(2))
    with pytest.raises(JTCalcError):
        homotopy_theta(mod, tup, F3.zero(), F3.zero())


def test_jt_exp_infinite_examples():
    mod = Tensor(Std(3), Twist(1, Std(3)))
    j3 = J3(F3)
    # single operator: height-1 type of the derived action
    single = jt_exp_infinite([j3], mod)
    tup1 = CommutingTuple.gl([j3])
    assert single == jt_at_point(mod, tup1, "exp")
    zeros = [ExactMatrix.zeros(F3, 3, 3)] * 2
    assert jt_exp_infinite(zeros, mod) == J(3, [1] * 9)
    # reversal convention at r = 2
    pair = [j3, j3 @ j3]
    rev = CommutingTuple.gl([j3 @ j3, j3])
    assert jt_exp_infinite(pair, mod) == jt_at_point(mod, rev, "exp")


def test_nilpotency_of_realized_operators():
    rng = random.Random(6)
    mod = Tensor(Std(2), Twist(1, Sym(2, Std(2))))
    for _ in range(20):
        a0, a1 = F5.random_element(rng), F5.random_element(rng)
        tup = CommutingTuple.gl([E5.scalar_mul(a0), E5.scalar_mul(a1)])
        for theta in (theta_full(mod, tup), theta_exp(mod, tup)):
            assert theta.pow(5).is_zero()


def test_twist_vanishing_height_slots():
    """Per-factor coefficients on a Frobenius twist of Std are nonzero exactly
    in the matching slot (the airtight case of the twist vanishing claim)."""
    r, p = 3, 3
    field = GF(p)
    b = J3(field)
    ring = TruncatedCurveRing(field, r)
    from jtcalc.modules import eval_unipotent

    for i in range(r):
        mod = Twist(i, Std(3)) if i else Std(3)
        for s in range(r):
            rho = eval_unipotent(mod, texp_matrix(b, ring))
            coeff = rho.g.coefficient(p ** (r - 1 - s))
            if i == r - 1 - s:
                assert not coeff.is_zero()
                assert coeff == b.frobenius(i)
            else:
                # contributions only at powers of p^i; p^(r-1-s) is not one of them
                if (p ** (r - 1 - s)) % (p**i) != 0 or (p ** (r - 1 - s)) // (p**i) >= p:
                    assert coeff.is_zero()


def test_symbolic_and_pointwise_theta_agree():
    ring = PolyRing(F3, ("a0", "a1"), (1, 3))
    zero = ring.zero()
    t0 = ExactMatrix.from_rows(ring, [[zero, ring.var("a0")], [zero, zero]])
    t1 = ExactMatrix.from_rows(ring, [[zero, ring.var("a1")], [zero, zero]])
    chart = Chart("line", KIND_GL, 3, 2, 2, ring, (t0, t1), ())
    mod = Tensor(Std(2), Twist(1, Std(2)))
    sym_theta = symbolic_theta(chart, mod, "full")
    for a0v in range(3):
        for a1v in range(3):
            pt = [F3.from_int(a0v), F3.from_int(a1v)]
            num = ExactMatrix.from_rows(
                F3, [[sym_theta.entry(i, j).evaluate(pt) for j in range(4)] for i in range(4)]
            )
            tup = CommutingTuple.gl([E3.scalar_mul(pt[0]), E3.scalar_mul(pt[1])])
            assert num == theta_full(mod, tup)


def test_dual_module_has_same_types():
    """A module and its dual share every local Jordan type."""
    from jtcalc.modules import Dual

    rng = random.Random(8)
    mod = Tensor(Sym(2, Std(2)), Twist(1, Std(2)))
    dual = Dual(mod)
    for _ in range(10):
        a0, a1 = F3.random_element(rng), F3.random_element(rng)
        tup = CommutingTuple.gl([E3.scalar_mul(a0), E3.scalar_mul(a1)])
        assert jt_at_point(dual, tup) == jt_at_point(mod, tup)
    # additive side
    j3 = J3(F3)
    emod = Explicit((j3, j3 @ j3))
    for _ in range(5):
        tup = CommutingTuple.ga([F3.random_element(rng) for _ in range(2)], F3)
        assert jt_at_point(Dual(emod), tup, "exp") == jt_at_point(emod, tup, "exp")


def test_ga_curve_element():
    tup = CommutingTuple.ga([F3.one(), F3.from_int(2)], F3)
    c = ga_curve_element(tup)
    assert c.coeff(1) == F3.one() and c.coeff(3) == F3.from_int(2)


def test_kind_mismatches_rejected():
    j2 = ExactMatrix.from_rows(F3, [[0, 1], [0, 0]])
    emod = Explicit((j2, ExactMatrix.zeros(F3, 2, 2)))
    gl_tup = CommutingTuple.gl([E3, E3])
    with pytest.raises(JTCalcError):
        theta_full(emod, gl_tup)
    ga_tup = CommutingTuple.ga([F3.one(), F3.one()], F3)
    with pytest.raises(JTCalcError):
        theta_full(Std(2), ga_tup)
    short = CommutingTuple.ga([F3.one()], F3)
    with pytest.raises(JTCalcError):
        theta_full(emod, short)


def test_unknown_variant_is_rejected():
    """Only "full" and "exp" name an operator; nothing falls back to exp."""
    chart = builtin_chart("sl2_line", 3, r=2)
    tup = chart.tuple_at([F3.from_int(v) for v in (0, 1, 0, 1, 1)])
    module = Tensor(Std(2), Twist(1, Std(2)))
    curve = builtin_curves(chart, 1, 1)[0]
    line = builtin_chart("sl2_line", 3)
    table = tabulate_jt(line, Std(2), F3)
    for bogus in ("homotopy", "Full"):
        table.variant = bogus
        for call in (
            lambda v: jt_at_point(module, tup, v),
            lambda v: jt_power_at_point(module, tup, v, 1),
            lambda v: rank_locus_minors(chart, module, v, 1, 1),
            lambda v: semicontinuity_check(curve, module, v),
            lambda v: tabulate_jt(line, Std(2), F3, v),
            lambda v: tabulate_jt(line, Std(2), GF(3, 2), v),
            lambda v: constant_rank_on_strata(table, line, Std(2), 1, F3),
            lambda v: verify_closed_stratum(chart, module, parse_jordan_type("[3]+[1]", 3), F3, v),
        ):
            with pytest.raises(JTCalcError, match="unknown operator variant"):
                call(bogus)


def _off_finite_fields():
    """(call, error type, message): inputs refused because points are tuples over finite fields,
    checked when they are built, and ranks and Jordan types are taken only over finite fields."""
    gf3t = RationalFunctionField(F3, "t")
    poly = PolyRing(F3, ("a0", "a1"), (1, 3))
    trunc = TruncatedCurveRing(F3, 1)
    diag = ExactMatrix.from_rows(F3, [[1, 0], [0, 0]])

    def off_field(domain):
        return rf"^points are tuples over finite fields, not over {re.escape(str(domain))}$"

    cases = {
        "rank_gf3t": (lambda: ExactMatrix.identity(gf3t, 2).rank(), JTCalcError,
                      r"^ranks are computed over finite fields, not over GF\(3\)\(t\)$"),
        "rank_gf3t_zero": (lambda: ExactMatrix.zeros(gf3t, 2, 2).rank(), JTCalcError,
                           r"^ranks are computed over finite fields, not over GF\(3\)\(t\)$"),
        # the operator at the zero point over a polynomial ring is zero
        "jt_at_point_polyring": (lambda: jt_at_point(Std(2), CommutingTuple.gl([ExactMatrix.zeros(poly, 2, 2)])),
                                 JTCalcError, off_field(poly)),
        "jt_power_at_point_polyring": (
            lambda: jt_power_at_point(Std(2), CommutingTuple.gl([ExactMatrix.zeros(poly, 2, 2)]), "full", 1),
            JTCalcError, off_field(poly)),
        "theta_full_truncated": (
            lambda: theta_full(Std(2), CommutingTuple(KIND_GL, trunc, 1, 2, (ExactMatrix.zeros(trunc, 2, 2),))),
            JTCalcError, off_field(trunc)),
        "gl_not_commuting": (lambda: CommutingTuple.gl([E3, E3.transpose()]), NotNilpotentError,
                             "^matrices 0 and 1 do not commute$"),
        "gl_not_nilpotent": (lambda: CommutingTuple.gl([diag, E3]), NotNilpotentError,
                             "^matrix 0 is not 3-nilpotent$"),
        "gl_gf3_gf9": (lambda: CommutingTuple.gl([E3, E3.embed_into(GF(3, 2))]), DomainMismatchError,
                       "^matrix domains differ$"),
        "jt_of_nilpotent_p": (lambda: jt_of_nilpotent(E3, 5), DomainMismatchError,
                              r"^p=5 is not the characteristic of GF\(3\)$"),
        "jt_of_nilpotent_gf3t": (lambda: jt_of_nilpotent(ExactMatrix.zeros(gf3t, 2, 2), 3), JTCalcError,
                                 r"^Jordan types are computed over finite fields, not over GF\(3\)\(t\)$"),
        "jt_of_nilpotent_polyring": (lambda: jt_of_nilpotent(ExactMatrix.zeros(poly, 2, 2), 3), NotAFieldError,
                                     r"^GF\(3\)\[a0:1,a1:3\] is not a field$"),
    }
    # every kind of point over every domain that is not a finite field, with a nonzero matrix
    for name, domain in (("polyring", poly), ("truncated", TruncatedCurveRing(F3, 2)), ("gf3t", gf3t)):
        one = domain.one()
        cases[f"gl_{name}"] = (
            lambda domain=domain, one=one: CommutingTuple.gl([ExactMatrix.from_rows(domain, [[0, one], [0, 0]])]),
            JTCalcError, off_field(domain))
        for kind, build in (("ga", CommutingTuple.ga), ("multi_ga", CommutingTuple.multi_ga)):
            cases[f"{kind}_{name}"] = (lambda build=build, domain=domain, one=one: build([one, 0], domain),
                                       JTCalcError, off_field(domain))
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("call, error, message", _off_finite_fields())
def test_answers_are_taken_only_over_finite_fields_at_checked_points(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error
