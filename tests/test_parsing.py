"""Parsing of polynomial expressions, including fractional-exponent inputs."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newtcomm import (
    BiPoly,
    InvalidInput,
    LaurentBiPoly,
    LaurentPoly,
    ParseError,
    RingMismatch,
    UniPoly,
    parse_bipoly,
    parse_laurent,
    parse_laurent_bipoly,
    parse_unipoly,
)
from newtcomm import parsing as nc_parsing
from newtcomm.parsing import MAX_DEGREE, MAX_DIGITS, MAX_NESTING

import parse_oracle as oracle
from strategies import bipolys, laurentbipolys, laurentpolys, unipolys


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

    @pytest.mark.parametrize("t", [0, -1, True, 2.0, "2", None])
    def test_bad_root_index_refused(self, t):
        """A root index that is not a positive int is refused before the
        text is read, whatever the text holds."""
        for parse in (parse_laurent, parse_laurent_bipoly):
            for text in ("x + 1", "1", "y", ")"):
                with pytest.raises(InvalidInput,
                                   match="^root index t must be a positive integer$"):
                    parse(text, t)


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

    def test_nesting_bound(self):
        """MAX_NESTING parentheses or unary minus signs parse; one more is a
        ParseError at the one that opens the extra level."""
        n = MAX_NESTING
        assert parse_unipoly("(" * n + "x" + ")" * n) == UniPoly.x()
        assert parse_unipoly("-" * n + "x") == UniPoly.x() * (-1) ** n
        half = n // 2
        assert parse_unipoly("-(" * half + "x" + ")" * half) == UniPoly.x() * (-1) ** half
        for bad, at in (("(" * (n + 1) + "x" + ")" * (n + 1), n),
                        ("-" * (n + 1) + "x", n),
                        (" " + "(" * (n - 1) + "x - --" + ")" * (n - 1), n + 5)):
            with pytest.raises(ParseError, match="^expression nested too deeply") as e:
                parse_unipoly(bad)
            assert e.value.position == at


class TestZeroTerms:
    """Terms that are zero or cancel add nothing to the value, however high
    their degree."""

    N = 10**8

    def test_zero_terms_are_dropped(self):
        n = self.N
        for text in (f"0*x^{n} + 1", f"x^{n} - x^{n} + 1", f"1 + 0*x^{n}*y^{n}",
                     f"(0*x^{n} + 1)*(x^{n} - x^{n} + 1)"):
            assert parse_unipoly(text.replace("*y^", "*x^")) == 1
            assert parse_bipoly(text) == 1
            assert parse_laurent(text.replace("*y^", "*x^"), 3) == LaurentPoly.const(3, 1)
            assert parse_laurent_bipoly(text, 2) == LaurentBiPoly.const(2, 1)
        assert parse_bipoly(f"0*y^{n} + x") == BiPoly.x()
        assert parse_laurent_bipoly(f"y - 0*y^{n}*x^(-{n})", 1) == LaurentBiPoly.y(1)


class TestDegreeBudget:
    """A nonzero term of y-degree past MAX_DEGREE, and a power of a parenthesised
    expression past it in y or in x-width (highest power minus lowest), are
    ParseErrors at the exponent."""

    def test_budget_value(self):
        assert (MAX_DEGREE, MAX_DIGITS) == (1000, 4300)

    @pytest.mark.parametrize("text, at, degree", [
        ("y^1001", 2, "1001"),
        ("x + 2*y^2000000", 8, "2000000"),
        ("y^600*x*y^401", 10, "1001"),
        ("(x + 1)^1001", 8, "1001"),
        ("(x^500 + 1)^3", 12, "1500"),
        ("(x*y + 1)^(1001)", 10, "1001"),
        ("-(y)^1001", 5, "1001"),
    ])
    def test_past_the_budget(self, text, at, degree):
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == (f"degree {degree} passes the degree budget 1000 "
                                    f"(at position {at})")
            assert e.value.position == at

    def test_fractional_degree_in_a_laurent_ring(self):
        with pytest.raises(ParseError, match=r"^degree 3001/3 passes the degree budget 1000 "
                                             r"\(at position 14\)$"):
            parse_laurent("(x^(1/3) + 1)^3001", 3)

    def test_at_the_budget(self):
        assert parse_bipoly("y^1000") == BiPoly.y() ** 1000
        assert parse_bipoly("y^600*x*y^400") == BiPoly.x() * BiPoly.y() ** 1000
        assert parse_unipoly("(x^500 + 1)^2") == UniPoly.x() ** 1000 + 2 * UniPoly.x() ** 500 + 1
        assert parse_laurent("(x^(-1/2) + x^(1/2))^2", 2) == parse_laurent("x^(-1) + 2 + x", 2)

    def test_a_monomial_in_x_or_a_zero_term_is_one_term(self):
        """x^N is stored as one term, and a zero term adds nothing, at any degree."""
        assert parse_unipoly("x^100000000") == UniPoly.x_pow(10**8)
        assert parse_unipoly("(x)^100000000") == UniPoly.x_pow(10**8)
        assert parse_bipoly("0*y^100000000 + (x - x)^2000") == 0


class TestSumWidth:
    """A sum that makes a nonzero y-row wider in x than MAX_DEGREE (highest
    power minus lowest) is a ParseError at the sum's first token, before the
    row is laid out; zero terms add nothing."""

    @pytest.mark.parametrize("text, at, width", [
        ("x^1001 + 1", 0, "1001"),
        ("x^10000000 + 1", 0, "10000000"),
        ("1 - 2*x^1000000000000", 0, "1000000000000"),
        ("2*(x^5 + x^2000)", 3, "1995"),
        ("y*x^3000 + y + x", 0, "3000"),
        ("(x^10000000) + 1", 0, "10000000"),
        ("x^10000000 + (1)", 0, "10000000"),
        ("(x^10000000)*(1 + y) + 1", 0, "10000000"),
        ("(y*x^10000000) + y", 0, "10000000"),
        ("x*((x^3000)*(1 + y) - y)", 3, "3000"),
    ])
    def test_past_the_budget(self, text, at, width):
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == (f"x-width {width} passes the degree budget 1000 "
                                    f"(at position {at})")
            assert e.value.position == at

    def test_fractional_width_in_a_laurent_ring(self):
        with pytest.raises(ParseError, match=r"^x-width 2001/2 passes the degree budget 1000 "
                                             r"\(at position 0\)$"):
            parse_laurent("x^(1/2) + x^1001", 2)
        with pytest.raises(ParseError, match=r"^x-width 1001 passes"):
            parse_laurent("x^(-500) + x^501", 1)

    def test_at_the_budget(self):
        x = UniPoly.x()
        assert parse_unipoly("x^1000 + 1") == x ** 1000 + 1
        assert parse_unipoly("x^1000 + (1)") == x ** 1000 + 1
        assert parse_unipoly("(x^3000 + x^2000) - 1*(x^2000)") == x ** 3000
        assert parse_bipoly("y*x^10000000 + x") == BiPoly.y() * BiPoly.x() ** 10**7 + BiPoly.x()
        assert parse_laurent("x^(-500) + x^500", 1) == (parse_laurent("x^(-500)", 1)
                                                        + parse_laurent("x^500", 1))

    @pytest.mark.parametrize("text, want", [
        ("(x^2000) + (1) - (1)", "x^2000"),
        ("(y*x^3000) + y - (y)", "x^3000*y"),
    ])
    def test_parenthesised_parts_are_checked_after_cancellation(self, text, want):
        """As monomials are: every sum of two or more terms is one make."""
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            assert parse(text) == parse(want)

    def test_a_product_may_not_widen_a_row_past_the_budget(self):
        """As a power does not: (x^600 + 1)^2 and (x^600 + 1)*(x^600 + 1) are
        both refused, so no row reaches a sum wider than MAX_DEGREE."""
        for text, at in (("(x^600 + 1)*(x^600 + 1)", 0), ("(x^600 + 1)*(x^600 + 1) + 1", 0),
                         ("1 - (x^600 + 1)*(x^600 + 1)", 4), ("(x^600 + 1)^2", 12)):
            with pytest.raises(ParseError) as e:
                parse_unipoly(text)
            assert str(e.value) == f"degree 1200 passes the degree budget 1000 (at position {at})"


class TestProductBudget:
    """A product of ring values, or of a term's monomial and a ring value, whose
    y-degree or x-width (the sums of its factors') passes MAX_DEGREE is a
    ParseError at the term's first token, before it is computed."""

    @pytest.mark.parametrize("text, at, degree", [
        ("y^600*(y^500 + 1)", 0, "1100"),
        ("(y^500 + 1)*y^600", 0, "1100"),
        ("(y^500 + x)*(y^501 + 1)", 0, "1001"),
        ("x + (y^500 + 1)*(y^501)", 4, "1001"),
        ("(x^600 + 1)*(x^600 + 1)", 0, "1200"),
        ("2*(x^500 + 1)*x*(x^501 + 1)", 0, "1001"),
        ("(1 + -(x + 1)^1000*(x + 1)^1000)", 5, "2000"),
        ("(x + 1)^1000*(x + 1)^1000*(x + 1)^1000*(x + 1)^1000", 0, "2000"),
        ("(y^600 + 1)*(y^600 + 1)*0", 0, "1200"),  # formed before the 0 is read
        ("(y^600 + 1)*(y^600 + 1)*(x - x)", 0, "1200"),
        ("y^2000*(x - x)", 2, "2000"),  # read before the zero factor
    ])
    def test_past_the_budget(self, text, at, degree):
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == (f"degree {degree} passes the degree budget 1000 "
                                    f"(at position {at})")
            assert e.value.position == at

    def test_fractional_degree_in_a_laurent_ring(self):
        with pytest.raises(ParseError, match=r"^degree 2001/2 passes the degree budget 1000 "
                                             r"\(at position 0\)$"):
            parse_laurent("x*(x^(1/2) + 1)*(x^1000 + 1)", 2)
        with pytest.raises(ParseError, match=r"^degree 1001 passes the degree budget 1000 "
                                             r"\(at position 0\)$"):
            parse_laurent_bipoly("(x^(-500) + x^500)*(x^(-1) + 1)", 3)

    def test_at_the_budget(self):
        x, y = BiPoly.x(), BiPoly.y()
        assert parse_bipoly("y^600*(y^400 + 1)") == y ** 1000 + y ** 600
        assert parse_bipoly("(x^500 + 1)*(x^500 - 1)") == x ** 1000 - 1
        assert parse_bipoly("(y^500 + x)*(y^500 + x^999)") == (y ** 500 + x) * (y ** 500 + x ** 999)
        assert parse_laurent("(x^(-1/2) + 1)*(x^(1/2) + x^999)", 2) == parse_laurent(
            "1 + x^(1/2) + x^(1997/2) + x^999", 2)

    def test_a_product_with_zero_is_free(self):
        assert parse_bipoly("(x - x)*(y^600 + 1)*(y^600 + 1)") == 0
        assert parse_bipoly("(y^600 + 1)*(0*x)*(x^2000 + y^999)") == 0
        assert parse_unipoly("(x^5000)*(x^5000)") == UniPoly.x_pow(10000)

    @pytest.mark.parametrize("text", ["0*(y^600 + 1)*(y^600 + 1)",
                                      "(y^600 + 1)*0*(y^600 + 1)",
                                      "(0)*y^2000", "(x - x)*y^2000"])  # a zero factor too
    def test_a_zero_coefficient_makes_the_later_factors_free(self, text):
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            assert parse(text) == 0

    @pytest.mark.parametrize("text, at", [
        ("(1 + -(x + 1)^1000*(x + 1)^1000)", 5),
        ("(x + 1)^1000*(x + 1)^1000*(x + 1)^1000*(x + 1)^1000", 0),
    ])
    def test_a_product_past_the_budget_builds_no_power(self, text, at, monkeypatch):
        """Each factor is sized as it is read, and the term's values are built
        only once every check has passed."""
        powers = []
        for cls in (BiPoly, LaurentBiPoly):
            def counted(self, k, power=cls.__pow__):
                powers.append(k)
                return power(self, k)
            monkeypatch.setattr(cls, "__pow__", counted)
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == f"degree 2000 passes the degree budget 1000 (at position {at})"
        assert powers == []

    @pytest.mark.parametrize("text, at, work", [
        ("(x + y + 1)^100", 12, 1326 ** 2),  # (x + y + 1)^50 has C(52, 2) terms
        ("(x + y + 1)^200", 12, 5151 ** 2),
        ("(x + y + 1)^1000", 12, 125751 ** 2),
        ("((x + 1)*(y + 1))^1000", 18, 251001 ** 2),  # its 500th power: 501^2 cells
        ("(x + y + 1)^44*(x + y + 1)^44", 0, 1035 ** 2),  # the product
    ])
    def test_past_the_work_budget(self, text, at, work):
        """Past (MAX_DEGREE + 1)^2 coefficient products, bounded from term
        counts, a power is a ParseError at its exponent, and a product at the
        term's first token, before it is computed."""
        for parse in (parse_bipoly, lambda text: parse_laurent_bipoly(text, 2)):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == (f"{work} products pass the work budget 1002001 "
                                    f"(at position {at})")
            assert e.value.position == at

    @pytest.mark.parametrize("text, t", [
        ("(x*y + 1)^1000", None), ("(x*y + 1)^1000", 2), ("(x + 1)^1000*(y + 1)^1000", None),
    ])
    def test_at_the_work_budget(self, text, t):
        """The value the ring operators build; (x + 1)^1000*(y + 1)^1000 is
        1001 * 1001 products, the budget."""
        if t is None:
            assert parse_bipoly(text) == oracle.parse_bipoly(text)
        else:
            assert parse_laurent_bipoly(text, t) == oracle.parse_laurent_bipoly(text, t)


class TestDigits:
    """A digit is what int reads: a decimal digit of any script."""

    def test_superscript_digit_is_a_parse_error(self):
        for text, message, at in (("x^²", "expected a number", 2),
                                  ("²*x", "unexpected '²'", 0),
                                  ("x^(1/²)", "expected a number", 5)):
            with pytest.raises(ParseError) as e:
                parse_unipoly(text)
            assert str(e.value) == f"{message} (at position {at})"
            assert e.value.position == at

    def test_decimal_digits_of_any_script_parse(self):
        assert parse_unipoly("٣*x") == UniPoly([0, 3])
        assert parse_unipoly("x^٣ + 1٠/٤") == UniPoly([Fraction(5, 2), 0, 0, 1])
        assert parse_bipoly("２*y") == 2 * BiPoly.y()  # a fullwidth 2


class TestLongNumbers:
    """A number with more digits than int reads (4300, the interpreter's
    default limit) is a ParseError at its token, in every ring."""

    PARSERS = (parse_unipoly, parse_bipoly, lambda text: parse_laurent(text, 3),
               lambda text: parse_laurent_bipoly(text, 3))

    @pytest.mark.parametrize("text, at", [
        ("1" * 5000 + "*x^2", 0),
        ("x + 1/" + "7" * 5000, 6),
        ("x^" + "9" * 5000, 2),
        ("x^(" + "6" * 5000 + "/3) + 1", 3),
    ], ids=["literal", "denominator", "exponent", "parenthesised-exponent"])
    def test_is_a_positioned_parse_error(self, text, at):
        for parse in self.PARSERS:
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == f"number too long: 5000 digits (at position {at})"
            assert e.value.position == at

    def test_the_bound_holds_with_the_interpreter_limit_lifted(self):
        """MAX_DIGITS is the parser's own: the CLI lifts the interpreter's limit
        to print long answers, and a literal past 4300 digits is still refused."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ParseError, match=r"^number too long: 4301 digits"):
                parse_unipoly("1" * 4301 + "*x")
            assert parse_unipoly("1" * 4300 + "*x") == UniPoly([0, int("1" * 4300)])
        finally:
            sys.set_int_max_str_digits(limit)

    def test_4300_digits_still_parse(self):
        n = int("1" * 4300)
        assert parse_unipoly("1" * 4300 + "*x") == UniPoly([0, n])
        assert parse_bipoly("1/" + "1" * 4300 + "*y") == Fraction(1, n) * BiPoly.y()
        assert parse_laurent("x^(" + "1" * 4300 + "/3)", 3) == LaurentPoly.term(3, n)


NINES = "9" * 43  # 10^43 - 1: (10^43)^100 has 4301 digits


class TestPowerDigits:
    """A power of a coefficient past MAX_DIGITS digits is a ParseError at the
    exponent, decided from bit lengths first, so that a huge exponent is not
    computed; a power of 1, as in x^N, is free at any N.  A power of a
    parenthesised value is bounded the same way, with the sum of its absolute
    numerators, which bounds every coefficient of the power, as the coefficient."""

    PARSERS = TestLongNumbers.PARSERS

    @pytest.mark.parametrize("text, at", [
        ("10^4300", 3), ("3^9013", 2), ("2^14285", 2), ("7^5089*x", 2), ("x + 1/10^4300", 9),
        ("3^10000000", 2), ("3^" + "9" * 60, 2), ("(3)^10000000", 4), ("(2*x)^100000", 6),
        ("((2/3))^10000", 8), ("-(3)^9013 + x", 5),
        ("(" + "9" * 400 + "*x + 1)^200", 409), ("(" + NINES + "*x + 1)^100", 52),
        ("(1/" + NINES + "*x + 1)^100", 54), ("x + (" + NINES + "*x^2 + x)^100", 58),
    ])
    def test_past_the_budget(self, text, at):
        for parse in self.PARSERS:
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == (f"power of a coefficient passes the digit budget 4300 "
                                    f"(at position {at})")
            assert e.value.position == at

    def test_at_the_budget(self):
        """Each of these has exactly 4300 digits."""
        for c, k in ((10, 4299), (3, 9012), (2, 14284), (7, 5088)):
            assert parse_unipoly(f"{c}^{k}") == UniPoly.const(c ** k)
            assert parse_unipoly(f"({c}*x)^{k}") == UniPoly.const(c ** k) * UniPoly.x() ** k
            assert parse_bipoly(f"1/{c}^{k}*y") == Fraction(1, c ** k) * BiPoly.y()
        assert parse_unipoly("(-1)^" + "9" * 60 + " + 1^" + "7" * 4300) == 0
        assert parse_unipoly("(2/3)^2 + 0^100000000") == Fraction(4, 9)
        c = 10 ** 43 - 2  # (c + 1)^100 has 4300 digits
        assert parse_unipoly(f"({c}*x + 1)^100") == UniPoly([1, c]) ** 100
        assert parse_unipoly(f"(1/{c}*x + 1)^100") == UniPoly([1, Fraction(1, c)]) ** 100
        assert parse_bipoly(f"({c}*y + {c}*y^2)^50") == (c * BiPoly.y() * (1 + BiPoly.y())) ** 50


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


# -- the oracle: the parser on ring operations --------------------------------

PARSERS = (
    [("parse_bipoly", ()), ("parse_unipoly", ())]
    + [("parse_laurent", (t,)) for t in (1, 2, 3, 6)]
    + [("parse_laurent_bipoly", (t,)) for t in (1, 2, 3)]
)

# The texts of the fixed cases above, each an error in some ring
FIXED_TEXTS = ("2*x + @", "2x", "x y", "1/0", "x + y", "x^(-1)", "", "(x + 1", "x +", "^2",
               "x^^2", "x^(1/)", "x + 1)", "x^(1/2)", "y^(1/2)", "(x + 1)^(1/2)",
               "x^(-5/3)", "x^2 - x^(-1)", "x*y^2 - x^(-1)", "x^\u00b2", "\u00b2*x",
               "\u0663*x", " 2*x ^ 2+1 ", "-3/4*x", "(x + y)*(x - y)", "x^(1/\u00b2)",
               *(text.replace("N", "1" * 5000) for text in (  # more digits than int reads
                   "N*x", "x + 1/N", "x^N", "x^(1/N)", "x^(-N)", "N/", "N/0")))

# Each number ends in a space, so that no two run together into one long
# exponent: (x + y)^1212 would take both parsers minutes to expand
TOKENS = ("x", "y", "0 ", "1 ", "2 ", "12 ", "3/4 ", "1/0 ", "+", "-", "*", "/", "^", "(", ")",
          " ", "\t", "@", "\u00b2", "\u0663 ", "x^(1/2)", "x^(-2/3)", "x^-1 ", "(-1/2)")


# The structured texts are (text, weight) pairs: the weight bounds the degree
# of every value the text builds, and texts of weight above MAX_WEIGHT are
# dropped, so that no tower of powers takes the parsers minutes to expand.
MAX_WEIGHT = 24


def _power_of_x():
    """x^(p/q), x^p and x^-p: valid in a ring of root index t only if q | t."""
    return st.one_of(
        st.builds("x^({}/{})".format, st.integers(-6, 6), st.integers(0, 6)),
        st.builds("x^({})".format, st.integers(-3, 3)),
        st.builds("x^-{}".format, st.integers(0, 3))).map(lambda text: (text, 6))


def _atoms():
    return st.one_of(st.sampled_from((("x", 1), ("y", 1), ("0", 1), ("1", 1), ("2", 1),
                                      ("5/3", 1), ("0/4", 1), ("x^2", 2), ("y^3", 3))),
                     _power_of_x())


def _spaced(parts):
    """The parts joined with stray whitespace, or none, between them."""
    return st.lists(st.sampled_from(("", "", " ", "  ", "\t")), min_size=len(parts),
                    max_size=len(parts)).map(lambda ws: "".join(w + p for w, p in zip(ws, parts)))


def _binary(inner, ops):
    return st.tuples(inner, st.sampled_from(ops), inner).flatmap(
        lambda p: _spaced([p[0][0], p[1], p[2][0]]).map(lambda text: (text, p[0][1] + p[2][1])))


def _grown(inner):
    """Sums, products, unary-minus chains and powers of parenthesised parts."""
    return st.one_of(
        _binary(inner, ("+", "-")),
        _binary(inner, ("*",)),
        st.tuples(st.integers(1, 4), inner).map(lambda p: ("-" * p[0] + p[1][0], p[1][1])),
        st.tuples(inner, st.integers(0, 3)).map(
            lambda p: (f"({p[0][0]})^{p[1]}", p[0][1] * max(p[1], 1))),
        st.tuples(inner, st.sampled_from(("-1", "(1/2)", "(-2/2)"))).map(
            lambda p: (f"({p[0][0]})^{p[1]}", p[0][1])),
        inner.map(lambda p: (f"({p[0]})", p[1])))


def texts():
    return st.one_of(
        unipolys().map(lambda p: p.to_text()),
        bipolys().map(lambda p: p.to_text()),
        st.sampled_from((1, 2, 3)).flatmap(laurentpolys).map(lambda p: p.to_text()),
        laurentbipolys(2, 2, 3).map(lambda p: p.to_text()),
        st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
        st.recursive(_atoms(), _grown, max_leaves=12).filter(
            lambda p: p[1] <= MAX_WEIGHT).map(lambda p: p[0]),
        st.sampled_from(FIXED_TEXTS))


def _outcome(parse, text, args):
    """The value, or the exception's type, text and position."""
    try:
        return parse(text, *args)
    except Exception as e:  # the oracle must raise the same
        return type(e), str(e), getattr(e, "position", None)


class TestMatchesOracle:
    @settings(max_examples=600)
    @given(texts(), st.sampled_from(PARSERS))
    @example("x^(1/2) + y", ("parse_laurent_bipoly", (2,)))
    @example("-(x + y)^2 - -x^(-1/3)*3/4", ("parse_laurent_bipoly", (3,)))
    @example("(x^(1/2))^2", ("parse_laurent", (2,)))
    def test_same_value_or_same_error(self, text, parser):
        name, args = parser
        got = _outcome(getattr(nc_parsing, name), text, args)
        want = _outcome(getattr(oracle, name), text, args)
        assert got == want and type(got) is type(want), (text, name, args)

    def test_fixed_cases(self):
        """Every fixed text in every ring, errors included."""
        for text in FIXED_TEXTS:
            for name, args in PARSERS:
                got = _outcome(getattr(nc_parsing, name), text, args)
                want = _outcome(getattr(oracle, name), text, args)
                assert got == want and type(got) is type(want), (text, name, args)
