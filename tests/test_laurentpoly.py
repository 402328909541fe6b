"""Laurent polynomials with fractional x-exponents carried as z = x^(1/t)."""

from fractions import Fraction

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtcomm import InvalidInput, LaurentBiPoly, LaurentPoly, RingMismatch, UniPoly
from newtcomm.poly import NEG_INF

from strategies import assert_normal_form, laurentbipolys, laurentpolys, rationals


def test_construction_and_exponent_bookkeeping():
    p = LaurentPoly.x_power(3, Fraction(-5, 3))
    assert p.terms == {-5: Fraction(1)}
    with pytest.raises(RingMismatch):
        LaurentPoly.x_power(3, Fraction(1, 2))  # 2 does not divide 3
    with pytest.raises(InvalidInput):
        LaurentPoly(0, {})


def test_x_power_reads_rational_text():
    """The exponent may be rational text; text that is not a rational number
    is bad input, like a bad coefficient."""
    assert LaurentPoly.x_power(2, " -3/2 ") == LaurentPoly.x_power(2, Fraction(-3, 2))
    for bad in ("1/0", "abc", ""):
        with pytest.raises(InvalidInput, match="not a rational number"):
            LaurentPoly.x_power(2, bad)


def test_t_mismatch_raises():
    a = LaurentPoly.term(2, 1)
    b = LaurentPoly.term(3, 1)
    with pytest.raises(RingMismatch):
        a + b


def test_embedding_agrees_with_unipoly():
    # t=1, nonnegative exponents: arithmetic must match UniPoly exactly
    u = UniPoly([Fraction(2), Fraction(0), Fraction(-1)])
    v = UniPoly([Fraction(1), Fraction(3)])
    lu = LaurentPoly(1, u.terms)
    lv = LaurentPoly(1, v.terms)
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
    with pytest.raises(InvalidInput):  # y has no inverse
        LaurentBiPoly.y(2) ** -1


def test_min_max_degrees():
    p = LaurentPoly(3, {-5: Fraction(1), 4: Fraction(2)})
    assert p.degree == 4
    assert p.shift == -5
    assert LaurentPoly.zero(3).degree == NEG_INF


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


@given(st.sampled_from((1, 3)).flatmap(lambda t: st.tuples(laurentpolys(t), laurentpolys(t))),
       st.integers(0, 3))
def test_results_are_in_normal_form(ab, k):
    a, b = ab
    for p in (a, a + b, a - b, -a, a * b, a ** k, a.derivative(), 3 * a):
        assert_normal_form(p)


@given(st.sampled_from((1, 3)), st.integers(-7, 7), rationals.filter(bool), st.integers(-3, 3))
def test_power_of_a_monomial_is_in_normal_form(t, e, c, k):
    p = LaurentPoly.term(t, e, c) ** k
    assert_normal_form(p)
    assert p == LaurentPoly.term(t, e * k, c ** k)


@given(laurentpolys(3), laurentpolys(3))
def test_sum_matches_fraction_addition(a, b):
    ta, tb = a.terms, b.terms
    expected = {e: ta.get(e, 0) + tb.get(e, 0) for e in ta.keys() | tb.keys()}
    assert (a + b).terms == {e: c for e, c in expected.items() if c}


class TestLaurentBiPoly:
    def test_component_t_sharing(self):
        with pytest.raises(RingMismatch):
            LaurentBiPoly(2, [LaurentPoly.term(3, 1)])

    @pytest.mark.parametrize("cls, build", [
        (LaurentBiPoly, LaurentBiPoly.zero), (LaurentBiPoly, LaurentBiPoly.one),
        (LaurentBiPoly, LaurentBiPoly.x),
        (LaurentBiPoly, lambda: LaurentBiPoly.from_uni(UniPoly.x())),
        (LaurentBiPoly, lambda: LaurentBiPoly.from_uni(LaurentPoly.term(2, 1))),
        (LaurentBiPoly, lambda: LaurentBiPoly.monomial(1, 1)),
        (LaurentPoly, LaurentPoly.one), (LaurentPoly, LaurentPoly.x),
        (LaurentPoly, lambda: LaurentPoly.x_pow(2)),
        (LaurentPoly, lambda: LaurentPoly.from_dict({1: 2})),
    ], ids=["zero", "one", "x", "from_uni", "from_uni-laurent", "monomial",
            "uni-one", "uni-x", "uni-x_pow", "uni-from_dict"])
    def test_inherited_constructors_raise(self, cls, build):
        """The constructors that take no root index build only Q[x] or
        Q[x,y] values, so every Laurent class refuses them, with one text,
        instead of building a value with a malformed t."""
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes a root index t$"):
            build()

    def test_root_index_is_checked(self):
        with pytest.raises(InvalidInput):
            LaurentBiPoly(0)

    def test_arithmetic_and_calculus(self):
        t = 3
        r = LaurentBiPoly(t, [LaurentPoly.term(t, -2, Fraction(3)),
                              LaurentPoly.zero(t),
                              LaurentPoly.const(t, 1)])  # y^2 + 3 x^(-2/3)
        assert r.dy() == LaurentBiPoly(t, [LaurentPoly.zero(t),
                                           LaurentPoly.const(t, 2)])
        assert r.dx().ycoeff(0) == LaurentPoly.term(t, -5, Fraction(-2))
        assert (r * r).ycoeff(4) == LaurentPoly.const(t, 1)

    @given(st.sampled_from((1, 3)).flatmap(
        lambda t: st.tuples(laurentbipolys(t), laurentbipolys(t), laurentpolys(t))),
        st.integers(0, 3), st.integers(-2, 2))
    def test_results_are_in_normal_form(self, abc, k, e):
        a, b, c = abc
        t = a.t
        for p in (a, a + b, a - b, a - a, -a, a * b, a ** k, a.dx(), a.dy(),
                  3 * a, Fraction(-2, 3) * a, a * c, b * LaurentBiPoly.y_pow(t, 2),
                  LaurentBiPoly.from_laurent(LaurentPoly.term(t, e, Fraction(-3, 2))) ** -k):
            assert_normal_form(p)

    @pytest.mark.parametrize("p", [LaurentBiPoly(3, []),
                                   LaurentBiPoly(3, [LaurentPoly.term(3, -2)])],
                             ids=["zero", "nonzero"])
    def test_polynomial_only_operations_refuse_every_value(self, p):
        """integrate_dx and evaluate are operations of Q[x, y]; on a Laurent
        value they raise naming its own ring, whatever the value."""
        message = re.escape("of Q[x, y], not of Q[x^(1/3), x^(-1/3), y]")
        with pytest.raises(RingMismatch, match=message):
            p.integrate_dx()
        with pytest.raises(RingMismatch, match=message):
            p.evaluate(Fraction(1), Fraction(2))

    def test_text(self):
        t = 1
        p = LaurentBiPoly(t, [LaurentPoly.term(t, -2, Fraction(3)),
                              LaurentPoly.zero(t),
                              LaurentPoly.const(t, 1)])
        assert p.to_text() == "y^2 + 3*x^(-2)"
