from fractions import Fraction

from hypothesis import given, settings, strategies as st

from assoclab.scalars import (Dual, PolyInT, coeff_abs, iterated_word_integral,
                              scalar_from_json, scalar_to_json, s_one_minus_s_power)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=7)
polys = st.lists(rationals, max_size=5).map(PolyInT)


@settings(max_examples=60, derandomize=True)
@given(polys, polys, polys)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p + PolyInT(()) == p
    assert p * PolyInT((Fraction(1),)) == p


@settings(max_examples=40, derandomize=True)
@given(polys, rationals)
def test_dual_chain_rule(p, x):
    val = p(Dual(x, Fraction(1)))
    if isinstance(val, Dual):
        assert val.primal == p(x)
        assert val.tangent == p.derivative()(x)
    else:
        assert p.degree() <= 0


def test_dual_arithmetic():
    a = Dual(Fraction(2), Fraction(3))
    b = Dual(Fraction(5), Fraction(-1))
    prod = a * b
    assert prod.primal == 10 and prod.tangent == 13


def test_definite_integral_examples():
    p = s_one_minus_s_power(2)
    assert p.integral(Fraction(0), Fraction(1, 2)) == Fraction(1, 60)
    assert p.integral(Fraction(0), Fraction(1)) == Fraction(1, 30)
    assert PolyInT(()).integral(Fraction(0), Fraction(1)) == 0


@settings(max_examples=40, derandomize=True)
@given(polys, rationals, rationals, rationals)
def test_integral_additivity(p, a, b, c):
    left = p.integral(a, b) + p.integral(b, c)
    assert left == p.integral(a, c)


def test_nested_integral_product_coefficients():
    outer = s_one_minus_s_power(4)
    inner = s_one_minus_s_power(2)
    half = Fraction(1, 2)
    c_a = half * iterated_word_integral([inner, outer], Fraction(0), half)
    c_b = half * iterated_word_integral([inner, outer], half, Fraction(1))
    assert c_a == Fraction(1199, 309657600)
    assert c_b == Fraction(283, 103219200)
    assert iterated_word_integral([PolyInT(()), PolyInT(())], 0, 1) == 0


def test_iterated_word_integral_matches_nested():
    """Against outer(s1) * int_a^{s1} inner(s2) ds2, integrated over [a, b]."""
    outer = s_one_minus_s_power(4)
    inner = s_one_minus_s_power(2)
    a, b = Fraction(0), Fraction(1, 2)
    got = iterated_word_integral([inner, outer], a, b)
    inner_anti = inner.antiderivative()
    ref = (outer * (inner_anti - PolyInT.constant(inner_anti(a)))).integral(a, b)
    assert got == ref


def test_json_roundtrip():
    for x in (Fraction(-3, 7), 0.25, complex(1.5, -2.0), PolyInT((Fraction(1), Fraction(0), Fraction(2, 3)))):
        back = scalar_from_json(scalar_to_json(x))
        if isinstance(x, PolyInT):
            assert back.coeffs == x.coeffs
        else:
            assert back == x


def test_coeff_abs():
    assert coeff_abs(Fraction(-3, 4)) == 0.75
    assert coeff_abs(Dual(Fraction(1), Fraction(-2))) == 2.0
    assert coeff_abs(PolyInT((0.5, -1.5))) == 1.5
    # a float for every scalar, so residuals are JSON floats
    for x in (0, -3, Fraction(0), 2.5, -1j, PolyInT((0, 2)), Dual(0, -1), Dual(PolyInT(()), 0)):
        assert type(coeff_abs(x)) is float, x
