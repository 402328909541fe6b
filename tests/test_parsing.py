"""Parsing of polynomial expressions, including fractional-exponent inputs."""

import re
from fractions import Fraction

import pytest
from hypothesis import given

from newtcomm import (
    BiPoly,
    LaurentPoly,
    ParseError,
    RingMismatch,
    UniPoly,
    parse_bipoly,
    parse_laurent,
    parse_laurent_bipoly,
    parse_unipoly,
)

from strategies import bipolys, laurentpolys, unipolys


class TestGrammar:
    def test_basic_forms(self):
        assert parse_unipoly("6*x^2 + 1/2") == UniPoly([Fraction(1, 2), 0, 6])
        assert parse_unipoly("-x^3 - 2") == UniPoly([-2, 0, 0, -1])
        assert parse_unipoly("0") == UniPoly([])
        assert parse_unipoly("x") == UniPoly([0, 1])

    def test_bipoly_forms(self):
        p = parse_bipoly("y^2 - 4*x^3 - 10*x")
        h = BiPoly.y_pow(2) - BiPoly.from_uni(UniPoly([0, 10, 0, 4]))
        assert p == h
        assert parse_bipoly("x*y + y*x") == BiPoly.x() * BiPoly.y() * 2

    def test_whitespace_insensitive(self):
        assert parse_unipoly(" 2*x ^ 2+1 ") == parse_unipoly("2*x^2 + 1")

    def test_parenthesized_subexpressions(self):
        assert parse_bipoly("(x + y)*(x - y)") == (
            BiPoly.x() ** 2 - BiPoly.y_pow(2)
        )

    def test_rational_coefficients(self):
        assert parse_unipoly("-3/4*x") == UniPoly([0, Fraction(-3, 4)])

    def test_power_of_parenthesized(self):
        assert parse_bipoly("(x + 1)^2") == (BiPoly.x() + 1) ** 2


class TestLaurentGrammar:
    def test_fractional_exponent(self):
        p = parse_laurent("x^(-5/3)", 3)
        assert p.terms == {-5: Fraction(1)}

    def test_positive_fractional(self):
        assert parse_laurent("x^(1/2)", 2) == LaurentPoly.term(2, 1)

    def test_denominator_must_divide_t(self):
        with pytest.raises(RingMismatch):
            parse_laurent("x^(1/2)", 3)

    def test_exponent_error_text(self):
        for t, text in ((1, "exponent 1/2 is not an integer"),
                        (3, "exponent 1/2 is not a multiple of 1/3")):
            with pytest.raises(RingMismatch, match=f"^{re.escape(text)}$"):
                parse_laurent("x^(1/2)", t)

    def test_integer_exponents_still_fine(self):
        assert parse_laurent("x^2 - x^(-1)", 1) == LaurentPoly(
            1, {2: Fraction(1), -1: Fraction(-1)}
        )

    def test_fractional_exponent_only_on_x(self):
        with pytest.raises(RingMismatch):
            parse_laurent_bipoly("y^(1/2)", 2)
        with pytest.raises(RingMismatch):
            parse_laurent("(x + 1)^(1/2)", 2)

    def test_error_names_the_ring(self):
        for t, ring in ((1, "Q[x, x^(-1)]"), (3, "Q[x^(1/3), x^(-1/3)]")):
            with pytest.raises(ParseError, match=re.escape(f"not allowed in {ring}")):
                parse_laurent("x + y", t)

    def test_laurent_bipoly(self):
        w = parse_laurent_bipoly("x*y^2 - x^(-1)", 1)
        assert w.ycoeff(2) == LaurentPoly.term(1, 1)
        assert w.ycoeff(0) == LaurentPoly.term(1, -1, -1)


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as e:
            parse_unipoly("2*x + @")
        assert e.value.position == 6

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_unipoly("2x")
        with pytest.raises(ParseError):
            parse_bipoly("x y")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_unipoly("1/0")

    def test_y_rejected_in_univariate_ring(self):
        with pytest.raises(ParseError):
            parse_unipoly("x + y")

    def test_negative_integer_exponent_needs_laurent_ring(self):
        with pytest.raises(RingMismatch):
            parse_unipoly("x^(-1)")

    def test_unbalanced_and_empty(self):
        for bad in ("", "(x + 1", "x +", "^2", "x^^2", "x^(1/)"):
            with pytest.raises(ParseError):
                parse_bipoly(bad)

    def test_deep_nesting_is_a_parse_error(self):
        """Nesting past the interpreter's stack raises ParseError, not
        RecursionError, at a position inside the text."""
        for parse in (parse_unipoly, parse_bipoly, lambda text: parse_laurent(text, 2)):
            for bad in ("(" * 200 + "x" + ")" * 200, "-" * 1000 + "x"):
                with pytest.raises(ParseError) as e:
                    parse(bad)
                assert 0 <= e.value.position < len(bad)
        assert parse_unipoly("(" * 20 + "x" + ")" * 20) == UniPoly.x()
        assert parse_unipoly("-" * 20 + "x") == UniPoly.x()

    def test_trailing_garbage_position(self):
        with pytest.raises(ParseError) as e:
            parse_unipoly("x + 1)")
        assert e.value.position == 5


class TestRoundTrips:
    @given(unipolys())
    def test_unipoly_round_trip(self, p):
        assert parse_unipoly(p.to_text()) == p

    @given(bipolys())
    def test_bipoly_round_trip(self, p):
        assert parse_bipoly(p.to_text()) == p

    @given(laurentpolys())
    def test_laurent_round_trip(self, p):
        assert parse_laurent(p.to_text(), p.t) == p
