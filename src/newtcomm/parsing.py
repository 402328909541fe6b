"""Expression parsing for the polynomial and Laurent rings.

Grammar (whitespace insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | power
    power    := atom ['^' exponent]
    atom     := NUMBER ['/' NUMBER] | 'x' | 'y' | '(' expr ')'
    exponent := NUMBER | '-' NUMBER | '(' ['-'] NUMBER ['/' NUMBER] ')'

NUMBER is a run of decimal digits (``str.isdecimal``, what ``int`` reads),
and a ParseError at its position past MAX_DIGITS digits, the interpreter's
default limit, fixed here so that a program that lifts it reads the same;
NUMBER '/' NUMBER is a rational literal (there is no division operator).
Integer exponents apply to any subexpression; negative or fractional
exponents are only meaningful on the bare variable x in a Laurent ring,
where p/q needs q | t.  Canonical printing is the ``str()`` of each ring
type; ``parse(str(p))`` returns ``p``.

The text is split into tokens once, by one regular expression; a token's
position is worked out only when an error names it.  A term of plain
factors (literals, x, y, their integer powers, and a fractional power of
the bare x) is read as one monomial n/d * y^i * z^e, with no ring
operation.  Every sum of two or more terms is one value, made at once from
the monomials of its terms, those of a parenthesised part included; a sum
of one parenthesised part is that part's value.  Ring * and ** act only on
parenthesised values: a term sizes each power of one as it is read, and
builds its value at its end, once every check has passed.  Parentheses and
unary minus signs nest at most MAX_NESTING deep.  Past MAX_DEGREE, the
y-degree of a nonzero term and the y-degree or x-width (highest power minus
lowest) of a power of a parenthesised value are ParseErrors at the exponent,
and those of a product in a term, the sums of its factors', at the term's
first token; so is the work of either past (MAX_DEGREE + 1)^2 coefficient
products, bounded from term counts.  No y-row of a parenthesised value is
wider than MAX_DEGREE, so a product that only shifts such rows, by a factor
of one term or of a lone parenthesised value at power 1, is not refused for
its x-width: (x^2000*y + 1) parses as x^2000*y + 1 does.  x^N alone is one
term at any N.
Once a term's coefficient is 0, or a factor is, the rest of the term is free
but for a power's own checks.  No row is wider than MAX_DEGREE, and a sum
with a nonzero y-row wider, after cancellation, is one at its first token.
A power c^k past MAX_DIGITS digits is one at the exponent, for c a
coefficient or, for a parenthesised value, the larger of its denominator and
the sum of its absolute numerators, bounded from bit lengths first.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import ParseError, RingMismatch
from .poly import _EMPTY, BiPoly, LaurentBiPoly, LaurentPoly, UniPoly, _root_index, ring_name

MAX_NESTING = 100  # open parentheses plus pending unary minus signs
MAX_DIGITS = 4300  # per number and per power of a coefficient: the default int(str) limit
MAX_DEGREE = 1000  # in y, and in x from the lowest power to the highest
_LIMIT = 10 ** MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits
_LIMIT_BITS = _LIMIT.bit_length()  # 2^_LIMIT_BITS > _LIMIT

# A run of decimal digits, or any one other character that is not whitespace
_TOKEN = re.compile(r"\d+|\S")


class _Parser:
    """Recursive descent over the tokens of one text, with "" at the end, in
    Q[x] or Q[x,y] (t = None) or a Laurent ring with or without y.  Values
    are built in its y-extension; the univariate parsers take the y^0
    coefficient at the end.  A plain factor or term is a monomial tuple
    (n, d, i, e); a parenthesised factor is (sign, base, k), for sign *
    base^k, and any other term a ring value."""

    def __init__(self, text: str, t: int | None, with_y: bool):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]
        self.i = 0
        self.t, self.with_y, self.name = t, with_y, ring_name(t, with_y)
        self.cls = BiPoly if t is None else LaurentBiPoly
        self.root = 1 if t is None else t  # x = z^root
        self.depth = self.exp_at = 0

    def error(self, message: str, i: int, last: bool = False) -> ParseError:
        """ParseError at token i (its last character if last), or at the
        end of the text past the last token."""
        spans = [m.span() for m in _TOKEN.finditer(self.text)]
        return ParseError(message, spans[i][last] - last if i < len(spans) else len(self.text))

    def found(self, i: int) -> str:
        return f"'{self.toks[i][0]}'" if self.toks[i] else "end of input"

    def nest(self, levels: int, first: int) -> None:
        """Open levels of nesting at the tokens from first on."""
        if self.depth + levels > MAX_NESTING:
            raise self.error("expression nested too deeply", first + MAX_NESTING - self.depth)
        self.depth += levels

    def budget(self, degree, at: int) -> None:
        if degree > MAX_DEGREE:
            raise self.error(f"degree {degree} passes the degree budget {MAX_DEGREE}", at)

    def make(self, monos: list, at: int):
        """The sum of n/d * y^i * z^e over the monomials (n, d, i, e), d > 0,
        of the sum from token at.  The rows span the nonzero terms only, so
        0*x^N or x^N - x^N costs nothing however large N is; a row wider in x
        than MAX_DEGREE is a ParseError at token at, before it is laid out."""
        den = lcm(*[d for _, d, _, _ in monos])
        terms: dict[tuple[int, int], int] = {}
        for n, d, i, e in monos:
            terms[i, e] = terms.get((i, e), 0) + n * (den // d)
        rows: dict[int, dict[int, int]] = {}
        for (i, e), c in terms.items():
            if c:
                rows.setdefault(i, {})[e] = c
        out = [_EMPTY] * (max(rows, default=-1) + 1)
        for i, row in rows.items():
            lo, hi = min(row), max(row)
            if hi - lo > MAX_DEGREE * self.root:
                width = Fraction(hi - lo, self.root)
                raise self.error(f"x-width {width} passes the degree budget {MAX_DEGREE}", at)
            out[i] = (lo, [row.get(e, 0) for e in range(lo, hi + 1)])
        return self.cls._make(self.root, out, den)

    def grow(self, size, base, k: int, at: int):
        """The size (y-degree, z-width, most terms, z-step) of a value of that
        size times base^k, for a nonzero ring value base and k >= 0: a ParseError
        at token at past MAX_DEGREE, or past (MAX_DEGREE + 1)^2 coefficient
        products in the product, base^k's last squaring or its last step on an
        odd k (a factor of one term is a free shift).  base^j has at most
        C(j + T - 1, T - 1) terms, T base's, and at most its grid's cells.
        The z-width is unchecked where one factor, of one term, only shifts
        the other's y-rows, each within MAX_DEGREE already."""
        rows, (h, w, n, g) = base._rows, size
        exps = [s + j for s, ns in rows for j, c in enumerate(ns) if c]
        t, lo, bh = len(exps), min(exps), len(rows) - 1
        bw, bg = max(exps) - lo, gcd(*[e - lo for e in exps])
        h, w, g = h + k * bh, w + k * bw, gcd(g, bg)
        shift = t == 1 or n == 1 == k
        self.budget(h if shift else max(h, Fraction(w, self.root)), at)
        half, even, full = [min(comb(j + t - 1, j), (j * bh + 1) * (j * bw // max(bg, 1) + 1))
                            for j in (k // 2, k // 2 * 2, k)]
        work = max(a * b * (a > 1 < b) for a, b in ((n, full), (half, half), (even, k % 2 * t)))
        if work > (MAX_DEGREE + 1) ** 2:
            raise self.error(f"{work} products pass the work budget {(MAX_DEGREE + 1) ** 2}", at)
        return h, w, min(n * full, (h + 1) * (w // max(g, 1) + 1)), g

    def close(self) -> None:
        if self.toks[self.i] != ")":
            raise self.error(f"expected ')', found {self.found(self.i)}", self.i)
        self.i += 1

    # -- grammar -----------------------------------------------------

    def parse(self):
        value = self.expr()
        if self.toks[self.i]:
            raise self.error(f"unexpected {self.found(self.i)}", self.i)
        return value

    def expr(self):
        """The sum of the terms as one ring value, through one make of their
        monomials, those of a ring-valued term included; a lone ring-valued
        term is returned as it is."""
        terms, toks, sign, start = [], self.toks, 1, self.i
        while True:
            terms.append(self.term(sign))
            tok = toks[self.i]
            if tok != "+" and tok != "-":
                break
            sign = 1 if tok == "+" else -1
            self.i += 1
        if len(terms) == 1 and type(terms[0]) is not tuple:
            return terms[0]
        monos = []
        for v in terms:
            if type(v) is tuple:
                monos.append(v)
            else:
                monos += [(c, v._d, i, s + j) for i, (s, ns) in enumerate(v._rows)
                          for j, c in enumerate(ns) if c]
        return self.make(monos, start)

    def term(self, n: int):
        """The product of the factors times n, a monomial or, if a factor is a
        ring power, a ring value built at the end, once grow has sized each
        power as it was read.  Once the coefficient is 0, or a factor is, no
        later ring factor is sized and the term is the zero monomial."""
        d, i, e = 1, 0, 0
        powers, size, toks, start = [], (0, 0, 1, 0), self.toks, self.i
        while True:
            v = self.factor()
            if len(v) == 4:
                n, d, i, e = n * v[0], d * v[1], i + v[2], e + v[3]
                if i > MAX_DEGREE and n:
                    self.budget(i, self.exp_at)
            else:
                sign, base, k = v
                n *= sign if base or not k else 0  # 0^k is 0 for k > 0, and x^0 is 1
                if n and k:
                    size = self.grow(size, base, k, start)
                    powers.append((base, k))
            if toks[self.i] != "*":
                break
            self.i += 1
        if not powers or not n:
            return n, d, i, e
        value = self.make([(n, d, i, e)], start)
        self.grow(size, value, 1, start)
        for base, k in powers:
            value = value * base ** k
        return value

    def factor(self):
        """Unary minus signs, then an atom with its exponent: a monomial, or a
        parenthesised value as (sign, base, k), its power not yet taken."""
        toks, at = self.toks, self.i
        while toks[at] == "-":
            at += 1
        minus = at - self.i
        if minus:
            self.nest(minus, self.i)
        tok = toks[at]
        self.i = at + 1
        if tok == "x":
            v = (1, 1, 0, self.root)
        elif tok == "y":
            if not self.with_y:
                raise self.error(f"variable y not allowed in {self.name}", at)
            v = (1, 1, 1, 0)
        elif tok.isdecimal():
            v = (*self.rational(at), 0, 0)
        elif tok == "(":
            self.nest(1, at)
            v = (1, self.expr(), 1)
            self.close()
            self.depth -= 1
        else:
            raise self.error(f"unexpected {self.found(at)}", at)
        if toks[self.i] == "^":
            self.i = self.exp_at = self.i + 1
            k = self.exponent()
            if type(k) is int and k >= 0:
                if len(v) == 3:  # (1, base, 1): its power is taken by term
                    if v[1]:
                        self.grow((0, 0, 1, 0), v[1], k, self.exp_at)
                    self.digits(max(sum(abs(c) for _, ns in v[1]._rows for c in ns), v[1]._d), k)
                    v = (1, v[1], k)
                elif v[0] == 1 == v[1]:  # a power of x or y: no coefficient to bound
                    v = (1, 1, v[2] * k, v[3] * k)
                else:
                    self.digits(max(abs(v[0]), v[1]), k)
                    v = (v[0] ** k, v[1] ** k, v[2] * k, v[3] * k)
            elif tok == "x":
                if self.t is None:
                    raise RingMismatch(f"exponent {k} needs a Laurent ring, not {self.name}")
                v = (1, 1, 0, LaurentPoly.x_power(self.t, k).shift)
            else:
                raise RingMismatch(f"exponent {k} is only allowed on x in a Laurent ring")
        if minus:
            self.depth -= minus
            if minus % 2:
                v = (-v[0], *v[1:])
        return v

    def digits(self, c: int, k: int) -> None:
        """A ParseError at the exponent if c^k would pass MAX_DIGITS digits, for
        c the larger of a value's denominator and the sum of its absolute
        numerators (|n| of a monomial n/d): c^k bounds every numerator and the
        denominator of the value to the power k >= 0.  With c of b bits, c^k is
        at least 2^((b-1)k), so a power past the budget by that bound is not
        computed, and any other has fewer than twice the budget's bits."""
        if (c.bit_length() - 1) * k >= _LIMIT_BITS or c ** k >= _LIMIT:
            raise self.error(f"power of a coefficient passes the digit budget {MAX_DIGITS}",
                             self.exp_at)

    def number(self, at: int) -> int:
        """The value of the NUMBER token at; one of more than MAX_DIGITS digits
        is a ParseError there, whatever limit the interpreter is set to."""
        if len(self.toks[at]) > MAX_DIGITS:
            raise self.error(f"number too long: {len(self.toks[at])} digits", at)
        return int(self.toks[at])

    def rational(self, at: int) -> tuple[int, int]:
        """(numerator, denominator) of the literal whose first token is at."""
        toks, num = self.toks, self.number(at)
        if toks[at + 1] != "/":
            self.i = at + 1
            return num, 1
        if not toks[at + 2].isdecimal():
            raise self.error("expected a number", at + 2)
        den = self.number(at + 2)
        if not den:
            raise self.error("zero denominator", at + 2, last=True)
        self.i = at + 3
        return num, den

    def exponent(self) -> int | Fraction:
        """The exponent after '^': an int, or a Fraction if not integral."""
        toks, at = self.toks, self.i
        paren = toks[at] == "("
        at += paren
        sign = -1 if toks[at] == "-" else 1
        at += sign == -1
        if not toks[at].isdecimal():
            raise self.error("expected a number", at)
        if not paren:
            self.i = at + 1
            return sign * self.number(at)
        num, den = self.rational(at)
        self.close()
        q = Fraction(sign * num, den)
        return q.numerator if q.denominator == 1 else q


def _run(text: str, t: int | None, with_y: bool):
    parser = _Parser(text, t, with_y)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression nested too deeply", parser.i) from None


def parse_bipoly(text: str) -> BiPoly:
    """Parse an element of Q[x,y]."""
    return _run(text, None, with_y=True)


def parse_unipoly(text: str) -> UniPoly:
    """Parse an element of Q[x] (the variable y is rejected)."""
    return _run(text, None, with_y=False).ycoeff(0)


def parse_laurent(text: str, t: int) -> LaurentPoly:
    """Parse an element of Q[x^(1/t), x^(-1/t)]; t must be a positive int,
    checked before the text is read."""
    return _run(text, _root_index(t), with_y=False).ycoeff(0)


def parse_laurent_bipoly(text: str, t: int) -> LaurentBiPoly:
    """Parse an element of Q[x^(1/t), x^(-1/t), y]; t as in parse_laurent."""
    return _run(text, _root_index(t), with_y=True)
