"""Exact polynomial arithmetic: ring axioms, calculus, printing."""

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
    RingMismatch,
    UniPoly,
)
from newtcomm.derivations import hamiltonian
from newtcomm.poly import NEG_INF

from strategies import assert_normal_form, bipolys, rationals, unipolys

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
        for name in ("_n", "_d"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())

    def test_pow_negative_rejected(self):
        with pytest.raises(InvalidInput):
            x ** -1

    def test_known_product(self):
        assert (x + 1) * (x - 1) == x ** 2 - 1

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

    @given(unipolys(), rationals, rationals)
    def test_evaluation_is_a_homomorphism(self, p, v, w):
        assert (p * p)(v) == p(v) ** 2
        q = UniPoly.const(w)
        assert (p + q)(v) == p(v) + w

    @given(unipolys(), unipolys(), st.integers(0, 3))
    def test_results_are_in_normal_form(self, a, b, k):
        for p in (a, a + b, a - b, -a, a * b, a ** k, a.derivative(), a.integrate_dx(),
                  3 * a, Fraction(-2, 3) * a):
            assert_normal_form(p)

    @given(unipolys(), unipolys())
    def test_sum_matches_fraction_addition(self, a, b):
        ca, cb = a.coeffs, b.coeffs
        width = max(len(ca), len(cb))
        expected = [(ca[i] if i < len(ca) else 0) + (cb[i] if i < len(cb) else 0)
                    for i in range(width)]
        while expected and not expected[-1]:
            expected.pop()
        assert (a + b).coeffs == tuple(expected)


class TestBiPoly:
    def test_shape_accessors(self):
        p = BiPoly.monomial(2, 3, Fraction(5))  # 5 x^2 y^3
        assert p.y_degree == 3
        assert p.ycoeff(3) == UniPoly.from_dict({2: 5})

    def test_mixed_arithmetic_with_unipoly(self):
        p = BiPoly.y() + x  # promotes UniPoly
        assert p.ycoeff(0) == x
        assert p.ycoeff(1) == UniPoly.one()

    def test_const_takes_scalars_only(self):
        """const makes a scalar in either ring; a y-free value is lifted by
        from_uni or from_laurent, the one lift, and const refuses it."""
        assert BiPoly.const("3/4") == Fraction(3, 4)
        assert LaurentBiPoly.const(3, Fraction(-7, 3)) == LaurentPoly.const(3, Fraction(-7, 3))
        with pytest.raises(TypeError):
            BiPoly.const(UniPoly.x())
        with pytest.raises(TypeError):
            BiPoly.const([1, 2])
        with pytest.raises(TypeError):
            LaurentBiPoly.const(3, LaurentPoly.term(3, 1))
        assert BiPoly.from_uni(UniPoly.x()) == BiPoly.x()
        assert LaurentBiPoly.from_laurent(LaurentPoly.term(3, 1)) == LaurentBiPoly(
            3, [LaurentPoly.term(3, 1)])

    def test_known_product(self):
        h = BiPoly.y_pow(2) - BiPoly.x() * BiPoly.x()
        assert h * h == (BiPoly.y_pow(4)
                         - 2 * BiPoly.monomial(2, 2)
                         + BiPoly.monomial(4, 0))

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

    @given(bipolys(), bipolys(), st.integers(0, 3))
    def test_results_are_in_normal_form(self, a, b, k):
        for p in (a, a + b, a - b, a - a, -a, a * b, a ** k, a.dx(), a.dy(), a.integrate_dx(),
                  3 * a, Fraction(-2, 3) * a, a * x, b * BiPoly.y_pow(2)):
            assert_normal_form(p)


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


@pytest.mark.parametrize("c", [0, 3, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_constants_equal_their_scalar(c):
    for p in (UniPoly.const(c), LaurentPoly.const(1, c), LaurentPoly.const(3, c)):
        assert p == c and c == p
        assert hash(p) == hash(c)


def test_bipoly_of_a_unipoly_equals_it():
    values = (UniPoly.zero(), UniPoly.const(Fraction(-7, 3)), x ** 2 - Fraction(1, 2))
    for p in values:
        b = BiPoly.from_uni(p)
        assert b == p and p == b
        assert hash(b) == hash(p)
    table = {Fraction(1, 2): "half", x + 1: "x+1", BiPoly.y(): "y"}
    assert table[UniPoly.const(Fraction(1, 2))] == table[BiPoly.const(Fraction(1, 2))] == "half"
    assert table[BiPoly.from_uni(x + 1)] == table[UniPoly([1, 1])] == "x+1"
    assert table[BiPoly.y_pow(1)] == "y"
    for p in (LaurentPoly.zero(3), LaurentPoly.const(3, Fraction(-7, 3)),
              LaurentPoly(3, {-2: Fraction(5, 7), 4: 1})):
        b = LaurentBiPoly.from_laurent(p)
        assert b == p and p == b
        assert hash(b) == hash(p)
    assert LaurentBiPoly.from_laurent(LaurentPoly.term(1, 1)) != BiPoly.x()


# The ring operators perfbench/tracing.py wraps; it looks them up in each
# class's own __dict__, so one inherited from a base class would not be traced.
TRACED_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                    "__mul__", "__rmul__", "__pow__")


SCALAR_MINUS_CASES = [
    x ** 2 - 3 * x + Fraction(1, 3),
    BiPoly.x() * BiPoly.y() ** 2 - 2,
    LaurentBiPoly.y(2) + LaurentBiPoly.from_laurent(LaurentPoly.term(2, -1)),
]


@pytest.mark.parametrize("p", SCALAR_MINUS_CASES, ids=["UniPoly", "BiPoly", "LaurentBiPoly"])
def test_a_scalar_minus_a_value(p):
    """c - p, by __rsub__, is -(p - c) in p's ring."""
    for c in (1, Fraction(1, 2)):
        got = c - p
        assert type(got) is type(p) and got.t == p.t
        assert got == -(p - c)


@pytest.mark.parametrize("p", SCALAR_MINUS_CASES, ids=["UniPoly", "BiPoly", "LaurentBiPoly"])
def test_a_non_value_is_not_an_operand(p):
    with pytest.raises(TypeError):
        p + object()
    with pytest.raises(TypeError):
        object() - p
    assert (p == "x") is False and p != "x"


@pytest.mark.parametrize("cls", [UniPoly, BiPoly])
def test_traced_ring_operators_stay_in_the_class_namespace(cls):
    assert [name for name in TRACED_OPERATORS if name not in vars(cls)] == []


class TestRingsStayDistinct:
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

    @pytest.mark.parametrize("build", [
        lambda: BiPoly.y_pow(-1),
        lambda: BiPoly.monomial(1, -2),
        lambda: LaurentBiPoly.y_pow(3, -2, LaurentPoly.term(3, 1)),
    ], ids=["BiPoly.y_pow", "BiPoly.monomial", "LaurentBiPoly.y_pow"])
    def test_negative_y_exponent_raises(self, build):
        with pytest.raises(InvalidInput, match="y takes non-negative integer exponents"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: BiPoly.monomial(-1, 0), lambda: BiPoly.monomial(1.5, 0),
        lambda: UniPoly.from_dict({-1: 3}), lambda: UniPoly.from_dict({2: 1, -1: 3}),
        lambda: UniPoly.from_dict({2.5: 1}),
    ], ids=["monomial-negative", "monomial-float",
            "from_dict-negative", "from_dict-negative-beside-positive", "from_dict-float"])
    def test_bad_x_exponent_raises(self, build):
        with pytest.raises(InvalidInput, match="x takes non-negative integer exponents"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: LaurentPoly.term(2, 1.5), lambda: LaurentPoly.term(3, Fraction(-1, 2)),
        lambda: LaurentPoly.term(2, "1"),
        lambda: LaurentPoly(2, {1.5: 1}), lambda: LaurentPoly(2, {"3": 1}),
        lambda: LaurentPoly(2, {0: 1, Fraction(1, 2): 2}),
    ], ids=["term-float", "term-fraction", "term-str",
            "constructor-float", "constructor-str", "constructor-fraction"])
    def test_non_integer_z_exponent_raises(self, build):
        assert str(LaurentPoly.term(2, -3, 5)) == "5*x^(-3/2)"  # any integer is one
        assert LaurentPoly(2, {-3: 5, 1: 1}) == LaurentPoly.term(2, -3, 5) + LaurentPoly.term(2, 1)
        with pytest.raises(InvalidInput, match="z takes integer exponents"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: UniPoly(["1/0"]), lambda: UniPoly([1, "abc"]),
        lambda: LaurentPoly(2, {0: "x"}), lambda: LaurentPoly.term(2, 1, "2/0"),
        lambda: BiPoly.const("1/"), lambda: LaurentBiPoly.const(3, ""),
    ], ids=["UniPoly-zero-denominator", "UniPoly-word", "LaurentPoly-letter",
            "term-zero-denominator", "BiPoly.const-no-denominator", "LaurentBiPoly.const-empty"])
    def test_bad_rational_text_raises(self, build):
        """A str coefficient is read as a rational number; text that is not
        one is bad input, not a ZeroDivisionError or ValueError."""
        assert UniPoly([" 3/4 ", "-2", "1.5", "1e2"]) \
            == UniPoly([Fraction(3, 4), -2, Fraction(3, 2), 100])
        with pytest.raises(InvalidInput, match="not a rational number"):
            build()


class TestOneRowRule:
    """Every ring stores a row from its lowest nonzero z-exponent, so a
    power of x is not stored as a run of leading zeros."""

    def test_stored_rows(self):
        assert UniPoly.from_dict({40: 1})._rows == ((40, (1,)),) and UniPoly.from_dict({40: 1})._d == 1
        assert BiPoly.x()._rows == ((1, (1,)),) == BiPoly([[0, 1]])._rows
        h = hamiltonian(x ** 2 - 1)  # y^2 - 2/3 x^3 + 2 x: row 0 starts at x^1
        assert h._rows[0] == (1, (6, 0, -2)) and h._d == 3

    @given(st.integers(0, 5), st.lists(rationals, max_size=5), rationals)
    def test_shifted_qx_views_match_the_dense_formulas(self, k, cs, v):
        dense = [Fraction(0)] * k + cs
        while dense and not dense[-1]:
            dense.pop()
        p = UniPoly(dense)
        assert p.coeffs == tuple(dense)
        assert p(v) == sum(c * v ** i for i, c in enumerate(dense))
        integral = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(dense)]
        assert p.integrate_dx().coeffs == (tuple(integral) if dense else ())
        b = BiPoly([UniPoly(cs), p])
        assert b.evaluate(v, 3) == UniPoly(cs)(v) + 3 * p(v)
        assert b.integrate_dx().ycoeff(1) == p.integrate_dx()
