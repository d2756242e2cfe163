import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcalc.errors import DomainMismatchError, JTCalcError
from jtcalc.fields import (
    CONWAY,
    GF,
    PolyRing,
    RationalFunctionField,
    TruncatedCurveRing,
    _poly_is_irreducible,
)
from jtcalc.parsing import parse_field_spec, parse_modulus


def brute_irreducible(coeffs, p):
    """Degree <= 4 irreducibility by exhaustive factor search."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    # any factorization has a factor of degree 1 or 2
    from jtcalc.fields import _dense_divmod

    for d in (1, 2):
        if d >= deg:
            break
        import itertools

        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _dense_divmod(coeffs, tuple(den), p)
            if not any(rem):
                return False
    if deg <= 2:
        for a in range(p):
            if sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0:
                return False
    return True


def test_conway_table_is_irreducible():
    for (p, n), coeffs in CONWAY.items():
        assert len(coeffs) == n + 1 and coeffs[n] == 1
        assert _poly_is_irreducible(coeffs, p)
        assert brute_irreducible(coeffs, p)


def test_field_construction_limits():
    with pytest.raises(JTCalcError):
        GF(4)
    with pytest.raises(JTCalcError):
        GF(37)
    with pytest.raises(JTCalcError):
        GF(3, 5)
    with pytest.raises(JTCalcError):
        GF(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2) over GF(3)
    GF(11, 2, modulus=(9, 0, 1))  # x^2 - 2, irreducible: 2 is not a square mod 11


def test_gf9_arithmetic():
    F9 = GF(3, 2)
    g = F9.gen()
    # g^2 = g + 1 from the modulus x^2 + 2x + 2
    assert g * g == g + 1
    assert g.frobenius(1) == g**3 == F9.element((1, 2))
    assert g * g.inverse() == F9.one()
    inv = g.inverse()
    assert inv == g + 2


def test_inverse_of_every_nonzero_element():
    for field in (GF(5), GF(3, 2), GF(5, 2)):
        for a in field.nonzero_elements():
            assert a * a.inverse() == field.one(), (field, a)
    with pytest.raises(ZeroDivisionError):
        GF(5).zero().inverse()


def test_field_element_embedding_and_errors():
    F3, F9 = GF(3), GF(3, 2)
    a = F3.from_int(2)
    assert F9.embed(a) == F9.from_int(2)
    with pytest.raises(DomainMismatchError):
        _ = F9.gen() + GF(5).one()


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2))
def test_frobenius_ring_homomorphism_gf9(i, j, e):
    F9 = GF(3, 2)
    a, b = F9.from_index(i), F9.from_index(j)
    assert (a + b).frobenius(e) == a.frobenius(e) + b.frobenius(e)
    assert (a * b).frobenius(e) == a.frobenius(e) * b.frobenius(e)


def test_frobenius_examples():
    F5 = GF(5)
    a = F5.from_int(3)
    assert a.frobenius(0) == a
    ring = PolyRing(GF(3), ("x", "y"))
    x, y = ring.gens()
    assert (x + y).frobenius(1) == x**3 + y**3


def test_polynomial_evaluate_examples():
    F5 = GF(5)
    ring = PolyRing(F5, ("x",))
    x = ring.var("x")
    f = x**2 + 1
    assert f.evaluate([F5.from_int(2)]).is_zero()
    c = ring.constant(3)
    assert c.evaluate([F5.from_int(4)]) == F5.from_int(3)
    F9 = GF(3, 2)
    ring2 = PolyRing(GF(3), ("x", "y"))
    xx, yy = ring2.gens()
    g = F9.gen()
    assert (xx * yy - 1).evaluate([g, g.inverse()]).is_zero()
    with pytest.raises(JTCalcError):
        (xx * yy).evaluate([g])


def test_polynomial_serialization_graded_lex():
    ring = PolyRing(GF(5), ("x0", "x1"))
    x0, x1 = ring.gens()
    f = x1 + x0**2 * x1 + ring.constant(2)
    assert str(f) == "x0^2 x1 + x1 + 2"
    assert f.compact_str() == "x0^2*x1+x1+2"
    assert str(ring.zero()) == "0"
    assert ring.descriptor() == "GF(5)[x0:1,x1:1]"


def test_polynomial_no_zero_terms_invariant():
    ring = PolyRing(GF(3), ("x",))
    x = ring.var("x")
    f = x + x + x  # 3x = 0
    assert f.is_zero() and not f.terms


def test_weighted_degree():
    ring = PolyRing(GF(3), ("a", "b"), (1, 3))
    a, b = ring.gens()
    assert (a * b).weighted_degree() == 4
    assert (a**2).degree() == 2


def test_rational_function_field_normalization():
    FF = RationalFunctionField(GF(3), "t")
    t = FF.var()
    f = (t**2 - 1) / (t + 1)
    assert f == t - 1  # gcd-reduced
    g = FF.from_coeffs([0, 2], [2])  # 2t/2 -> t with monic denominator
    assert g == t
    with pytest.raises(ZeroDivisionError):
        FF.from_coeffs([1], [0])
    assert (t / t) == FF.one()
    assert str(t * t) == "t^2"


def test_truncated_ring_degree_bound():
    ring = TruncatedCurveRing(GF(3), 2)
    t = ring.t()
    assert (t**9).is_zero()
    f = (1 + t) ** 10
    assert f.degree() < 9
    assert t.frobenius(1) == t**3
    assert t.subs_power(3) == t**3


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)), max_size=4),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)), max_size=4))
@settings(max_examples=50)
def test_truncated_ring_multiplication_truncates(ta, tb):
    ring = TruncatedCurveRing(GF(3), 2)
    F3 = GF(3)

    def mk(spec):
        out = ring.zero()
        for e, c in spec:
            out = out + ring.monomial(e, F3.from_int(c))
        return out

    prod = mk(ta) * mk(tb)
    assert all(e < 9 for e in prod.coeffs)


def test_field_spec_parsing():
    assert parse_field_spec("GF(3)").p == 3
    f = parse_field_spec("GF(9)")
    assert (f.p, f.n) == (3, 2)
    f2 = parse_field_spec("GF(3^2; modulus=x^2+2x+2)")
    assert f2.modulus == (2, 2, 1)
    assert parse_modulus("x^2+2x+2") == (2, 2, 1)
    assert parse_field_spec(GF(3, 2).descriptor()) == GF(3, 2)


def test_descriptor_round_trip():
    for f in (GF(2), GF(7, 2), GF(5, 3)):
        assert parse_field_spec(f.descriptor()) == f


def test_equal_elements_of_equal_fields_hash_alike():
    a, b = GF(3).from_int(1), GF(3).from_int(1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    g1, g2 = GF(3, 2).gen(), GF(3, 2).gen()
    assert len({g1, g2, GF(3, 2).one()}) == 2


def product_oracle(f, g):
    """`Polynomial.__mul__` as it was: every term pair multiplied and summed as `FFElement`s."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod = c1 * c2
            s = out.get(e)
            out[e] = prod if s is None else s + prod
    return {e: c for e, c in out.items() if not c.is_zero()}


@st.composite
def polynomial_pairs(draw):
    field = draw(st.sampled_from([GF(2), GF(3), GF(7), GF(2, 2), GF(3, 2), GF(5, 2), GF(3, 3)]))
    ring = PolyRing(field, ("x", "y"))

    def poly():
        out = ring.zero()
        for _ in range(draw(st.integers(0, 6))):
            coeff = field.from_index(draw(st.integers(0, field.order - 1)))
            out = out + ring.constant(coeff) * ring.var("x") ** draw(st.integers(0, 3)) \
                * ring.var("y") ** draw(st.integers(0, 3))
        return out

    return poly(), poly()


@given(polynomial_pairs())
@settings(max_examples=150, deadline=None)
def test_polynomial_product_matches_termwise_oracle(pair):
    f, g = pair
    assert (f * g).terms == product_oracle(f, g)
