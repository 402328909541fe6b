"""The parser on ring operations: the oracle for newtcomm.parsing.

``newtcomm.parsing`` splits the text into tokens once, reads a term of
plain factors as one monomial and builds each sum through one ``_make``.
This oracle is the recursive-descent parser it replaced: one character at
a time, every literal, x and y built as a ring value and joined by ring
+, * and **, each partial result normalised.  Its digits are what ``int``
reads (``str.isdecimal``), as in the package.  The tests require the same
value, or the same exception type, message and position, on every text
nested at most ``parsing.MAX_NESTING`` deep; deeper texts the package
refuses, and this parser reads until the interpreter's stack gives out.
"""

from __future__ import annotations

from fractions import Fraction

from newtcomm.errors import ParseError, RingMismatch
from newtcomm.poly import BiPoly, LaurentBiPoly, LaurentPoly, UniPoly, ring_name


class _Ring:
    """The ring an expression is read in: Q[x] or Q[x,y] (t = None), or a
    Laurent ring with or without y.  Values are built in its y-extension;
    the univariate parsers take the y^0 coefficient at the end."""

    def __init__(self, t: int | None, with_y: bool):
        self.t = t
        self.with_y = with_y
        self.name = ring_name(t, with_y)

    def const(self, q):
        return BiPoly.const(q) if self.t is None else LaurentBiPoly.const(self.t, q)

    def var(self, name, pos):
        if name == "x":
            return BiPoly.x() if self.t is None else self.x_pow(1, pos)
        if not self.with_y:
            raise ParseError(f"variable {name} not allowed in {self.name}", pos)
        return BiPoly.y() if self.t is None else LaurentBiPoly.y(self.t)

    def x_pow(self, q, pos):
        if self.t is None:
            raise RingMismatch(f"exponent {q} needs a Laurent ring, not {self.name}")
        return LaurentBiPoly.from_laurent(LaurentPoly.x_power(self.t, q))


class _Parser:
    def __init__(self, text: str, ring):
        self.text = text
        self.pos = 0
        self.ring = ring

    # -- lexing helpers ----------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            what = f"'{got}'" if got else "end of input"
            raise ParseError(f"expected '{ch}', found {what}", self.pos)
        self.pos += 1

    def read_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int reads
            raise ParseError(f"number too long: {self.pos - start} digits", start) from None

    def read_rational(self) -> Fraction:
        num = self.read_int()
        if self.peek() == "/":
            self.pos += 1
            den = self.read_int()
            if den == 0:
                raise ParseError("zero denominator", self.pos - 1)
            return Fraction(num, den)
        return Fraction(num)

    # -- grammar -----------------------------------------------------

    def parse(self):
        value = self.expr()
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected '{self.text[self.pos]}'", self.pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        return self.power()

    def power(self):
        bare_x = self.peek() == "x"
        value = self.atom()
        if self.peek() != "^":
            return value
        self.pos += 1
        at = self.pos
        exp = self.exponent()
        if exp.denominator == 1 and exp >= 0:
            return value ** int(exp)
        if bare_x:
            return self.ring.x_pow(exp, at)
        raise RingMismatch(f"exponent {exp} is only allowed on x in a Laurent ring")

    def exponent(self) -> Fraction:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                self.pos += 1
                sign = -1
            q = self.read_rational()
            self.expect(")")
            return sign * q
        if ch == "-":
            self.pos += 1
            return Fraction(-self.read_int())
        return Fraction(self.read_int())

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.expect(")")
            return value
        if ch in ("x", "y"):
            at = self.pos
            self.pos += 1
            return self.ring.var(ch, at)
        if ch.isdecimal():
            return self.ring.const(self.read_rational())
        what = f"'{ch}'" if ch else "end of input"
        raise ParseError(f"unexpected {what}", self.pos)


def _run(text: str, ring):
    parser = _Parser(text, ring)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None


def parse_bipoly(text: str) -> BiPoly:
    """Parse an element of Q[x,y]."""
    return _run(text, _Ring(None, with_y=True))


def parse_unipoly(text: str) -> UniPoly:
    """Parse an element of Q[x] (the variable y is rejected)."""
    return _run(text, _Ring(None, with_y=False)).ycoeff(0)


def parse_laurent(text: str, t: int) -> LaurentPoly:
    """Parse an element of Q[x^(1/t), x^(-1/t)]."""
    return _run(text, _Ring(t, with_y=False)).ycoeff(0)


def parse_laurent_bipoly(text: str, t: int) -> LaurentBiPoly:
    """Parse an element of Q[x^(1/t), x^(-1/t), y]."""
    return _run(text, _Ring(t, with_y=True))
