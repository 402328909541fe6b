"""Expression parsing for the polynomial and Laurent rings.

Grammar (whitespace insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | power
    power    := atom ['^' exponent]
    atom     := NUMBER ['/' NUMBER] | 'x' | 'y' | '(' expr ')'
    exponent := NUMBER | '-' NUMBER | '(' ['-'] NUMBER ['/' NUMBER] ')'

NUMBER '/' NUMBER is a rational literal (there is no division operator).
Integer exponents apply to any subexpression; negative or fractional
exponents are only meaningful on the bare variable x in a Laurent ring,
where p/q needs q | t.  Canonical printing is the ``str()`` of each ring
type; ``parse(str(p))`` returns ``p``.  One ring adapter, ``_Ring``,
supplies the constants, variables and fractional powers of x of each ring.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, RingMismatch
from .poly import BiPoly, LaurentBiPoly, LaurentPoly, UniPoly


class _Ring:
    """The ring an expression is read in: Q[x] or Q[x,y] (t = None), or a
    Laurent ring with or without y.  Values are built in its y-extension;
    the univariate parsers take the y^0 coefficient at the end."""

    def __init__(self, t: int | None, with_y: bool):
        self.t = t
        self.with_y = with_y
        x = "x" if t is None else f"x^(1/{t}), x^(-1/{t})"
        self.name = f"Q[{x}, y]" if with_y else f"Q[{x}]"

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

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            what = f"'{got}'" if got else "end of input"
            raise ParseError(f"expected '{ch}', found {what}", self.pos)
        self.pos += 1

    def read_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])

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
        value, _ = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()[0]
            elif ch == "-":
                self.pos += 1
                value = value - self.term()[0]
            else:
                return value

    def term(self):
        value, bare_x = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()[0]
            bare_x = False
        return value, bare_x

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            value, _ = self.factor()
            return -value, False
        return self.power()

    def power(self):
        value, bare_x = self.atom()
        if self.peek() != "^":
            return value, bare_x
        self.pos += 1
        at = self.pos
        exp = self.exponent()
        if exp.denominator == 1 and exp >= 0:
            return value ** int(exp), False
        if bare_x:
            return self.ring.x_pow(exp, at), False
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
            return value, False
        if ch in ("x", "y"):
            at = self.pos
            self.pos += 1
            return self.ring.var(ch, at), ch == "x"
        if ch.isdigit():
            return self.ring.const(self.read_rational()), False
        what = f"'{ch}'" if ch else "end of input"
        raise ParseError(f"unexpected {what}", self.pos)


def _run(text: str, ring):
    return _Parser(text, ring).parse()


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
