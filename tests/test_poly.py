"""Exact polynomial arithmetic: ring axioms, division, calculus, printing."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import newtcomm
from newtcomm import (
    BiPoly,
    InvalidInput,
    LaurentBiPoly,
    LaurentPoly,
    NotDivisible,
    RingMismatch,
    UniPoly,
)
from newtcomm.poly import NEG_INF

from strategies import bipolys, rationals, unipolys

x = UniPoly.x()


class TestUniPoly:
    def test_construction_strips_trailing_zeros(self):
        assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
        assert UniPoly([0, 0]).is_zero
        assert UniPoly().is_zero

    def test_degree(self):
        assert UniPoly.zero().degree == NEG_INF
        assert UniPoly.const(5).degree == 0
        assert (x ** 7).degree == 7

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            UniPoly([0.5])

    def test_equality_against_scalars(self):
        assert UniPoly.const(Fraction(3, 2)) == Fraction(3, 2)
        assert UniPoly.zero() == 0
        assert x != 1

    def test_immutable(self):
        p = x + 1
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_pow_negative_rejected(self):
        with pytest.raises(InvalidInput):
            x ** -1

    def test_known_product(self):
        assert (x + 1) * (x - 1) == x ** 2 - 1

    def test_divexact(self):
        p = (x ** 2 + 3 * x + 2) * (2 * x - 5)
        assert p.divexact(2 * x - 5) == x ** 2 + 3 * x + 2
        with pytest.raises(NotDivisible):
            (x ** 2 + 1).divexact(x + 1)
        with pytest.raises(InvalidInput):
            p.divexact(UniPoly.zero())

    def test_derivative_integrate(self):
        p = UniPoly([Fraction(5), Fraction(-1, 2), Fraction(0), Fraction(7)])
        assert p.integrate_dx().derivative() == p
        assert p.integrate_dx().coeff(0) == 0

    def test_call_horner(self):
        p = 2 * x ** 2 - 3 * x + 1
        assert p(Fraction(1, 2)) == 0
        assert p(1) == 0
        assert p(3) == 10

    @given(unipolys(), unipolys(), unipolys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(unipolys(), unipolys())
    def test_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    @given(unipolys(), unipolys())
    def test_multiply_then_divide(self, a, b):
        if b.is_zero:
            return
        assert (a * b).divexact(b) == a

    @given(unipolys(), rationals, rationals)
    def test_evaluation_is_a_homomorphism(self, p, v, w):
        assert (p * p)(v) == p(v) ** 2
        q = UniPoly.const(w)
        assert (p + q)(v) == p(v) + w


class TestBiPoly:
    def test_shape_accessors(self):
        p = BiPoly.monomial(2, 3, Fraction(5))  # 5 x^2 y^3
        assert p.y_degree == 3
        assert p.x_degree == 2
        assert p.total_degree == 5
        assert p.ycoeff(3) == UniPoly.x_pow(2, 5)

    def test_mixed_arithmetic_with_unipoly(self):
        p = BiPoly.y() + x  # promotes UniPoly
        assert p.ycoeff(0) == x
        assert p.ycoeff(1) == UniPoly.one()

    def test_known_product(self):
        h = BiPoly.y_pow(2) - BiPoly.x() * BiPoly.x()
        assert h * h == (BiPoly.y_pow(4)
                         - 2 * BiPoly.monomial(2, 2)
                         + BiPoly.monomial(4, 0))

    def test_divexact_in_y(self):
        p = (BiPoly.y_pow(2) + BiPoly.x()) * (BiPoly.y() - BiPoly.one())
        assert p.divexact(BiPoly.y() - BiPoly.one()) == BiPoly.y_pow(2) + BiPoly.x()
        with pytest.raises(NotDivisible):
            BiPoly.y_pow(2).divexact(BiPoly.y() + BiPoly.x())

    def test_divexact_y(self):
        p = BiPoly.y_pow(3) + BiPoly.x() * BiPoly.y()
        assert p.divexact_y() == BiPoly.y_pow(2) + BiPoly.x()
        with pytest.raises(NotDivisible):
            (BiPoly.y() + BiPoly.one()).divexact_y()

    def test_partial_derivatives_commute(self):
        p = BiPoly.monomial(3, 2) + BiPoly.monomial(1, 4, Fraction(-2, 3))
        assert p.dx().dy() == p.dy().dx()

    def test_evaluate(self):
        p = BiPoly.y_pow(2) - BiPoly.x() * BiPoly.x()
        assert p.evaluate(Fraction(3), Fraction(5)) == 16
        assert p.evaluate(1.0, 2.0) == pytest.approx(3.0)

    @given(bipolys(), bipolys(), bipolys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(bipolys(), bipolys())
    def test_dx_is_a_derivation(self, a, b):
        assert (a * b).dx() == a.dx() * b + a * b.dx()
        assert (a * b).dy() == a.dy() * b + a * b.dy()

    @given(bipolys())
    def test_integrate_dx_section(self, p):
        assert p.integrate_dx().dx() == p


def test_to_text_canonical_order():
    # descending y, then descending x, explicit '*'
    p = (BiPoly.monomial(1, 2, Fraction(3))
         + BiPoly.monomial(0, 2, Fraction(-1))
         + BiPoly.monomial(5, 0, Fraction(1, 2))
         + BiPoly.one())
    assert str(p) == "3*x*y^2 - y^2 + 1/2*x^5 + 1"


def test_to_text_zero_and_constants():
    assert str(BiPoly.zero()) == "0"
    assert str(UniPoly.const(Fraction(-7, 2))) == "-7/2"
    assert str(x) == "x"


def test_public_names_resolve():
    for name in newtcomm.__all__:
        assert getattr(newtcomm, name) is not None, name


# Values that are often equal across types: small coefficients, low degree.
_tiny = st.lists(st.sampled_from((0, 1, 2)), max_size=2)
_ring_values = st.one_of(
    st.sampled_from((0, 1, 2, Fraction(1), Fraction(2))),
    _tiny.map(UniPoly),
    st.lists(_tiny.map(UniPoly), max_size=2).map(BiPoly),
    st.dictionaries(st.integers(-1, 1), st.sampled_from((0, 1, 2)), max_size=2).map(
        lambda d: LaurentPoly(1, d)),
    st.lists(_tiny.map(lambda cs: LaurentPoly(1, dict(enumerate(cs)))), max_size=2).map(
        lambda cs: LaurentBiPoly(1, cs)),
)


@given(_ring_values, _ring_values)
def test_equal_values_hash_equal(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


def test_constants_hash_like_scalars():
    assert 3 in {UniPoly.const(3)}
    assert hash(BiPoly.const(3)) == hash(UniPoly.const(3)) == hash(3)
    assert BiPoly.zero() in {0}


class TestRingsStayDistinct:
    def test_polynomial_quotient_needs_no_negative_power(self):
        with pytest.raises(NotDivisible):
            x.divexact(x ** 2)
        assert LaurentPoly.term(1, 1).divexact(LaurentPoly.term(1, 2)) == LaurentPoly.term(1, -1)

    def test_mixing_qx_with_a_laurent_ring_raises(self):
        with pytest.raises(RingMismatch):
            x + LaurentPoly.term(1, 1)
        with pytest.raises(RingMismatch):
            BiPoly.x() * LaurentBiPoly.y(1)
        assert x != LaurentPoly.term(1, 1)

    def test_polynomial_only_operations(self):
        with pytest.raises(RingMismatch):
            LaurentPoly.term(1, 2).integrate_dx()
        with pytest.raises(RingMismatch):
            LaurentPoly.term(2, 1)(Fraction(4))
        with pytest.raises(InvalidInput):
            UniPoly.x_pow(-1)
