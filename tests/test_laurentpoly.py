"""Laurent polynomials with fractional x-exponents carried as z = x^(1/t)."""

from fractions import Fraction

import pytest
from hypothesis import given

from newtcomm import InvalidInput, LaurentBiPoly, LaurentPoly, RingMismatch, UniPoly
from newtcomm.poly import NEG_INF

from strategies import laurentpolys


def test_construction_and_exponent_bookkeeping():
    p = LaurentPoly.x_power(3, Fraction(-5, 3))
    assert p.terms == {-5: Fraction(1)}
    assert p.x_degree == Fraction(-5, 3)
    with pytest.raises(RingMismatch):
        LaurentPoly.x_power(3, Fraction(1, 2))  # 2 does not divide 3
    with pytest.raises(InvalidInput):
        LaurentPoly(0, {})


def test_t_mismatch_raises():
    a = LaurentPoly.term(2, 1)
    b = LaurentPoly.term(3, 1)
    with pytest.raises(RingMismatch):
        a + b


def test_embedding_agrees_with_unipoly():
    # t=1, nonnegative exponents: arithmetic must match UniPoly exactly
    u = UniPoly([Fraction(2), Fraction(0), Fraction(-1)])
    v = UniPoly([Fraction(1), Fraction(3)])
    lu = LaurentPoly.from_unipoly(u)
    lv = LaurentPoly.from_unipoly(v)
    assert (lu * lv).to_unipoly() == u * v
    assert (lu + lv).to_unipoly() == u + v
    assert lu.derivative().to_unipoly() == u.derivative()


def test_to_unipoly_rejects_negative_exponents():
    with pytest.raises(RingMismatch):
        LaurentPoly.term(1, -1).to_unipoly()


def test_derivative_power_rule():
    # d/dx of x^(-3) at t=1
    p = LaurentPoly.term(1, -3)
    assert p.derivative() == LaurentPoly.term(1, -4, Fraction(-3))
    # d/dx of x^(-5/3) at t=3: exponent -5/3 -> coefficient -5/3, exponent -8/3
    q = LaurentPoly.term(3, -5)
    assert q.derivative() == LaurentPoly.term(3, -8, Fraction(-5, 3))


def test_negative_power_of_monomial():
    m = LaurentPoly.term(2, 3, Fraction(2))
    assert m ** -2 == LaurentPoly.term(2, -6, Fraction(1, 4))
    with pytest.raises(InvalidInput):
        (LaurentPoly.term(2, 1) + LaurentPoly.const(2, 1)) ** -1


def test_divexact_shifts():
    a = LaurentPoly.term(2, -3) + LaurentPoly.term(2, 1)
    b = LaurentPoly.term(2, -1)
    q = (a * b).divexact(b)
    assert q == a


def test_in_ring_and_reduce_t():
    p = LaurentPoly.term(2, 2)  # x^1 expressed with t=2
    q = p.in_ring(6)
    assert q.t == 6 and q.terms == {6: Fraction(1)}
    assert q.reduce_t().t == 1
    with pytest.raises(RingMismatch):
        p.in_ring(3)  # 2 does not divide 3


def test_min_max_degrees():
    p = LaurentPoly(3, {-5: Fraction(1), 4: Fraction(2)})
    assert p.x_degree == Fraction(4, 3)
    assert p.min_x_degree == Fraction(-5, 3)
    assert LaurentPoly.zero(3).x_degree == NEG_INF


def test_text_rendering():
    p = LaurentPoly(3, {-5: Fraction(1)})
    assert p.to_text() == "x^(-5/3)"
    q = LaurentPoly(1, {2: Fraction(1), -1: Fraction(-3)})
    assert q.to_text() == "x^2 - 3*x^(-1)"


@given(laurentpolys(), laurentpolys(), laurentpolys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurentpolys(), laurentpolys())
def test_derivative_is_a_derivation(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(laurentpolys(), laurentpolys())
def test_multiply_then_divide(a, b):
    if b.is_zero:
        return
    assert (a * b).divexact(b) == a


@given(laurentpolys(), laurentpolys())
def test_in_ring_is_a_ring_embedding(a, b):
    t2 = 2 * a.t
    assert (a + b).in_ring(t2) == a.in_ring(t2) + b.in_ring(t2)
    assert (a * b).in_ring(t2) == a.in_ring(t2) * b.in_ring(t2)
    assert a.derivative().in_ring(t2) == a.in_ring(t2).derivative()
    assert a.in_ring(t2).reduce_t() == a.reduce_t()


class TestLaurentBiPoly:
    def test_component_t_sharing(self):
        with pytest.raises(RingMismatch):
            LaurentBiPoly(2, [LaurentPoly.term(3, 1)])

    def test_arithmetic_and_calculus(self):
        t = 3
        r = LaurentBiPoly(t, [LaurentPoly.term(t, -2, Fraction(3)),
                              LaurentPoly.zero(t),
                              LaurentPoly.const(t, 1)])  # y^2 + 3 x^(-2/3)
        assert r.dy() == LaurentBiPoly(t, [LaurentPoly.zero(t),
                                           LaurentPoly.const(t, 2)])
        assert r.dx().ycoeff(0) == LaurentPoly.term(t, -5, Fraction(-2))
        assert (r * r).ycoeff(4) == LaurentPoly.const(t, 1)

    def test_round_trip_with_bipoly(self):
        from newtcomm import BiPoly
        p = BiPoly.y_pow(2) - BiPoly.x() * BiPoly.x()
        lp = LaurentBiPoly.from_bipoly(p)
        assert lp.to_bipoly() == p

    def test_text(self):
        t = 1
        p = LaurentBiPoly(t, [LaurentPoly.term(t, -2, Fraction(3)),
                              LaurentPoly.zero(t),
                              LaurentPoly.const(t, 1)])
        assert p.to_text() == "y^2 + 3*x^(-2)"
