"""Exact polynomial arithmetic over Q: one kernel for Q[x] and the Laurent rings.

Every value is a polynomial in y over Q[x] (``BiPoly``) or over
Q[x^(1/t), x^(-1/t)] (``LaurentBiPoly``), read in z = x^(1/t); ``UniPoly``
and ``LaurentPoly`` are their y-free rings.  All four share one dense +, -,
* and **, d/dx, the integral in x and printing; the Laurent classes add
only constructors and ``LaurentPoly.to_unipoly``.  The kernel also keeps
d/dy and evaluation.  Mixing rings raises ``RingMismatch``; scalars, and a
y-free value of the coefficient ring, are coerced into the other operand's
ring.  ``const`` takes a scalar only: ``from_uni`` and ``from_laurent``
lift a y-free value.

Storage is one form, FLINT's fmpq_poly laid out in y-rows: _rows is a tuple
of (z-shift, int numerators), row i the coefficient of y^i, all over one
denominator _d > 0 in lowest terms (gcd(_d, every numerator) == 1).  In
every ring a row has no leading and no trailing zero numerator, its shift
is its lowest z-exponent (so a monomial is O(1) in size), and an empty row
is (0, ()).  No row trails empty, and zero is ((), 1).  A univariate
value is the case of at most one row, read through ``shift`` and ``_n``.
The form is canonical, so == and hash are structural, also between a
y-free BiPoly and the univariate value it equals.  ``coeffs``, ``coeff``,
``lc``, ``terms``, ``ycoeffs`` and ``ycoeff`` are views built on access.

A sum is one aligned integer sum per row over lcm(da, db).  Every product,
and every sum of products, is one _dot: it lays the operands out in
row-major (y, z) integer grids, convolves every product into one grid over
the lcm of the da * db (_convolve) and normalises once; a product * is the
sum of one.  Its operands may be raw rows with zeros kept, as d/dx and d/dy
give them (_dx_rows, _dy_rows).  The commutant integrator runs on the same
integers through _convolve, _integrate and _lincomb.  Two rules spare
tiny operands the product grid: an operand that is one term
c*z^e*y^i stored as one numerator (a scalar is one) scales
and shifts the other; and a value with one nonzero term has n-th power
c^n*z^(e*n)*y^(i*n), negative n included for a y-free Laurent monomial.
Every other power is repeated squaring through *.  The scalar and
generator constructors write their rows directly, as the ring operations
do; those that take no root index build only Q[x] and Q[x,y] values, and
a Laurent class refuses them.

Values are immutable after construction and safe to share across threads.
The degree of the zero polynomial is ``NEG_INF``, which compares below
every integer, so degree-bound checks need no special cases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable

from .errors import InvalidInput, RingMismatch, is_int

NEG_INF = float("-inf")

_ZERO = Fraction(0)
_EMPTY = (0, ())  # the normal form of a zero y-row


def _exact(v):
    """v as an exact scalar, an int or a Fraction (a str is parsed)."""
    if isinstance(v, (int, Fraction)):
        return v
    if not isinstance(v, str):
        raise TypeError(f"cannot use {type(v).__name__} as an exact coefficient")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"not a rational number: {v!r}") from None


def _clear(cs: list) -> tuple[list, int]:
    """Exact scalars as integer numerators over the lcm of their denominators."""
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _common(rows) -> tuple[list, int]:
    """Rows (z-shift, numerators, denominator) over the lcm of the denominators."""
    d = lcm(*[dr for _, _, dr in rows])
    return [(s, ns if dr == d else [n * (d // dr) for n in ns]) for s, ns, dr in rows], d


def _root_index(t) -> int:
    if not is_int(t) or t < 1:
        raise InvalidInput("root index t must be a positive integer")
    return t


def _zexponent(e) -> int:
    """e as a power of z in a Laurent ring, where z has every integer power."""
    if not is_int(e):
        raise InvalidInput(f"z takes integer exponents, not {e!r}")
    return e


def _exponent(e, var: str) -> int:
    """e as a power of var in a ring where var has only natural powers."""
    if not is_int(e) or e < 0:
        raise InvalidInput(f"{var} takes non-negative integer exponents, not {e!r}")
    return e


def _join_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Render (coefficient, monomial-text) pairs canonically: explicit '*',
    ' + '/' - ' separators, monomial text "" for a constant term."""
    chunks: list[str] = []
    for coeff, mono in parts:
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        sign = "-" if coeff < 0 else "+" if chunks else ""
        chunks.append(f"{sign} {body}" if chunks else f"{sign}{body}")
    return " ".join(chunks) or "0"


def _exp_text(q, var: str) -> str:
    if q == 0:
        return ""
    if q == 1:
        return var
    if q.denominator == 1 and q > 0:
        return f"{var}^{q}"
    return f"{var}^({q})"


def ring_name(t: int | None, with_y: bool) -> str:
    """Printed name of Q[x] (t None) or of Q[x^(1/t), x^(-1/t)], with y
    adjoined if with_y; the Laurent ring of t = 1 reads Q[x, x^(-1)]."""
    x = "x" if t is None else "x, x^(-1)" if t == 1 else f"x^(1/{t}), x^(-1/{t})"
    return f"Q[{x}, y]" if with_y else f"Q[{x}]"


def _ring_name(p) -> str:
    return ring_name(p.t if p._laurent else None, isinstance(p, BiPoly))


def _aligned_sum(ra, rb) -> tuple[int, list]:
    """The sum of the rows (sa, a) and (sb, b), z^sa * a + z^sb * b for dense
    coefficient sequences a and b, as (lowest exponent, coefficients); only
    overlapping entries are added."""
    (sa, a), (sb, b) = ra, rb
    if sa > sb:
        sa, a, sb, b = sb, b, sa, a
    off = sb - sa
    if off >= len(a):
        return sa, [*a, *[0] * (off - len(a)), *b]
    rest = a[off:]
    tail = rest[len(b):] if len(rest) > len(b) else b[len(rest):]
    return sa, [*a[:off], *map(add, rest, b), *tail]


def _scaled(rows, k: int):
    return rows if k == 1 else [(s, [n * k for n in ns]) for s, ns in rows]


def _span(rows) -> tuple[int, int] | None:
    """Lowest z-exponent and one past the highest over the nonempty y-rows,
    None if every row is empty."""
    live = [(s, s + len(ns)) for s, ns in rows if ns]
    return (min(live)[0], max([hi for _, hi in live])) if live else None


def _grid(rows, lo: int, width: int) -> list:
    """The nonzero numerators of the y-rows (z-shift, numerators), each keyed
    by its place y * width + z - lo in a row-major grid."""
    return [(y * width + s - lo + i, n)
            for y, (s, ns) in enumerate(rows) for i, n in enumerate(ns) if n]


def _convolve(ga, gb: list, acc: list) -> None:
    """acc[i + j] += ca * cb over (i, ca) in ga and (j, cb) in gb, for integer
    entries keyed by place, in place; ga is read once, gb once per entry of ga."""
    for i, ca in ga:
        for j, cb in gb:
            acc[i + j] += ca * cb


def _trim(ns: list) -> list:
    """ns without its trailing zeros, popped in place."""
    while ns and not ns[-1]:
        ns.pop()
    return ns


def _lincomb(terms) -> tuple[list, int]:
    """sum of w * nums / den over (w, nums, den) in terms, w an int or a
    Fraction and nums dense integer numerators, as integer numerators over
    the lcm of the w.denominator * den, trailing zeros trimmed."""
    den = lcm(*[w.denominator * d for w, _, d in terms])
    out = [0] * max((len(nums) for _, nums, _ in terms), default=0)
    for w, nums, d in terms:
        scale = w.numerator * (den // (w.denominator * d))
        for i, n in enumerate(nums):
            out[i] += scale * n
    return _trim(out), den


def _antiderivative(nums, L: int) -> list:
    """L times the antiderivative, constant term 0, of sum nums[i] x^i, for
    L a multiple of lcm(1..len(nums)): coefficient i divides exactly by i+1."""
    return [0, *(n * (L // i) for i, n in enumerate(nums, 1))]


def _integrate(nums: list, den: int) -> tuple[list, int]:
    """The antiderivative, constant term 0, of sum nums[i] x^i / den in lowest
    terms: scaled by L = lcm(1..n), then one gcd normalisation."""
    L = lcm(*range(1, len(nums) + 1))
    out = _antiderivative(nums, L)
    g = gcd(den * L, *out)
    return [n // g for n in out], den * L // g


# -- ring operations -------------------------------------------------
# Every class binds these functions by name rather than inherit them, so
# that each class's own namespace holds its operators (perfbench/tracing.py
# wraps them there).

def _add(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    a, b, d = self._rows, o._rows, self._d
    if d != o._d:  # both over lcm(da, db)
        d = lcm(d, o._d)
        a, b = _scaled(a, d // self._d), _scaled(b, d // o._d)
    if len(a) < len(b):
        a, b = b, a
    rows = list(map(_aligned_sum, a, b))
    if len(a) > len(b):
        rows += a[len(b):]
    return self._make(self.t, rows, d)


def _neg(self):
    return self._make(self.t, [(s, [-n for n in ns]) for s, ns in self._rows], self._d)


def _sub(self, other):
    return self + (-other)


def _rsub(self, other):
    return (-self) + other


def _mul(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    a, b = self._rows, o._rows
    if not a or not b:
        return self._make(self.t, [], 1)
    if len(a[-1][1]) == 1 and (len(a) == 1 or not any([ns for _, ns in a[:-1]])):
        a, b = b, a
    if len(b[-1][1]) == 1 and (len(b) == 1 or not any([ns for _, ns in b[:-1]])):
        s, (c,) = b[-1]  # b is one term c * z^s * y^i: scale a and shift it
        return self._make(self.t, [_EMPTY] * (len(b) - 1)
                          + [(r + s, [c * n for n in ns]) for r, ns in a], self._d * o._d)
    return _dot(self, [(1, a, self._d, b, o._d)])


def _dot(like, products):
    """sum of sign * (a / da) * (b / db) over the products (sign, a, da, b, db),
    y-rows a and b with zero numerators allowed, in like's ring: one integer
    grid over the lcm of the da * db, normalised once; a sum that cancels is
    returned as zero without normalising, its grid read by one any."""
    live = [(sign, a, da * db, b, sa[0], sa[0] + sb[0], sa[1] + sb[1], len(a) + len(b))
            for sign, a, da, b, db in products if (sa := _span(a)) and (sb := _span(b))]
    if not live:
        return like._make(like.t, [], 1)
    _, _, ds, _, _, los, his, heights = zip(*live)
    den, lo = lcm(*ds), min(los)
    width = max(his) - 1 - lo
    acc = [0] * (width * (max(heights) - 1))
    for sign, a, d, b, la, _, _, _ in live:  # b keyed from lo - la: a * b lands at z - lo
        k, ga = sign * (den // d), _grid(a, la, width)
        _convolve(ga if k == 1 else [(i, k * n) for i, n in ga], _grid(b, lo - la, width), acc)
    if not any(acc):
        return like._make(like.t, [], 1)
    return like._make(like.t, [(lo, acc[i:i + width]) for i in range(0, len(acc), width)], den)


def _power(self, n: int):
    if not is_int(n) or (n < 0 and not self._laurent):
        raise InvalidInput("polynomial powers take non-negative integer exponents")
    live = [(i, s + j, c) for i, (s, ns) in enumerate(self._rows) for j, c in enumerate(ns) if c]
    if len(live) == 1:  # one term c * z^e * y^i: its power is c^n * z^(e*n) * y^(i*n)
        (i, e, c), = live
        if n < 0 and i:
            raise InvalidInput("y has no negative powers")
        c, d = (c, self._d) if n >= 0 else (self._d, c)
        if d < 0:
            c, d = -c, -d
        return self._make(self.t, [_EMPTY] * (i * n) + [(e * n, [c ** abs(n)])], d ** abs(n))
    if n < 0:
        raise InvalidInput("negative powers only of monomials")
    result = self if n else self._coerce(1)
    for bit in f"{n:b}"[1:]:  # left to right: square, then multiply on a 1 bit
        result = result * result
        if bit == "1":
            result = result * self
    return result


class _Dense:
    """Immutable value in its ring's normal form (see _set)."""

    __slots__ = ("_rows", "_d")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, t: int, rows: list, den: int = 1):
        p = object.__new__(cls)
        p._set(t, rows, den)
        return p

    @classmethod
    def _of_xy(cls, rows: list, den: int = 1):
        """The value of Q[x] or Q[x,y] with these rows, for the constructors
        that take no root index; a Laurent class refuses them."""
        if cls._laurent:
            raise TypeError(f"{cls.__name__} takes a root index t")
        return cls._make(1, rows, den)

    @classmethod
    def zero(cls):
        return cls._of_xy([])

    @classmethod
    def one(cls):
        return cls._of_xy([(0, [1])])

    @classmethod
    def const(cls, v):
        c = _exact(v)
        return cls._of_xy([(0, [c.numerator])], c.denominator)

    @classmethod
    def x(cls):
        return cls._of_xy([(1, [1])])

    def _set(self, t: int, rows: list, den: int) -> None:
        """Store sum_i y^i * sum_j ns[j] * z^(s+j) / den over the rows
        (s, ns) = rows[i], den > 0, in normal form."""
        out, g = [], den
        for s, ns in rows:
            hi = len(ns)
            while hi and not ns[hi - 1]:
                hi -= 1
            if not hi:
                out.append(_EMPTY)
                continue
            lo = 0
            while not ns[lo]:
                lo += 1
            row = (s + lo, tuple(ns[lo:hi]))
            if g != 1:
                g = gcd(g, *row[1])
            out.append(row)
        while out and not out[-1][1]:
            out.pop()
        if g != 1:  # also when every row is empty: zero is stored over 1
            out, den = [(s, tuple([n // g for n in ns])) for s, ns in out], den // g
        if self._laurent:
            object.__setattr__(self, "t", t)
        _set_rows(self, tuple(out))
        _set_d(self, den)

    def _coerce(self, other):
        """other as a value of this ring, or None if it is no ring value or
        a bivariate one that self must be coerced into instead."""
        if other.__class__ is self.__class__ and other.t == self.t:
            return other
        if isinstance(other, (int, Fraction)):
            return self._make(self.t, [(0, [other.numerator])], other.denominator)
        if not isinstance(other, _Dense) or (isinstance(other, BiPoly)
                                             and not isinstance(self, BiPoly)):
            return None
        if other._laurent == self._laurent and other.t == self.t:  # y-free: lift
            return self._make(self.t, other._rows, other._d)
        raise RingMismatch(f"mixed rings {_ring_name(self)} and {_ring_name(other)}")

    def _polynomial_only(self, op: str) -> None:
        """Refuse op on every value of a Laurent ring, zero included."""
        if self._laurent:
            ring = ring_name(None, isinstance(self, BiPoly))
            raise RingMismatch(f"{op} is an operation of {ring}, not of {_ring_name(self)}")

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def __bool__(self):
        return bool(self._rows)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self._d == other.denominator
                    and self._rows == (((0, (other.numerator,)),) if other else ()))
        if isinstance(other, _Dense):
            return (other._laurent == self._laurent and other.t == self.t
                    and other._rows == self._rows and other._d == self._d)
        return NotImplemented

    def __hash__(self):
        r = self._rows
        if len(r) < 2 and (not r or r[0][0] == 0 and len(r[0][1]) == 1):  # a scalar: hash like it
            return hash(Fraction(r[0][1][0], self._d) if r else 0)
        return hash((self.t, r, self._d))

    # -- calculus and printing ---------------------------------------

    def _dx_rows(self) -> tuple[list, int]:
        """d/dx as (y-rows, denominator), zeros kept: z^e maps to (e/t) z^(e-t)."""
        t = self.t
        return [(s - t, [n * (s + i) for i, n in enumerate(ns)])
                for s, ns in self._rows], self._d * t

    def derivative(self):
        return self._make(self.t, *self._dx_rows())

    dx = derivative

    def integrate_dx(self):
        """Antiderivative in x with zero constant term."""
        self._polynomial_only("integrate_dx")
        L = lcm(*range(1, max([s + len(ns) for s, ns in self._rows], default=0) + 1))
        return self._make(1, [(0, _antiderivative((0,) * s + ns, L)) for s, ns in self._rows],
                          self._d * L)

    def _horner(self, s: int, ns, v):
        """The Q[x] row (s, ns) at v, by Horner over its numerators from x^0."""
        acc = 0 * v  # keeps the caller's numeric type (Fraction or float)
        for n in reversed((0,) * s + ns):
            acc = acc * v + Fraction(n, self._d)
        return acc

    def to_text(self, xvar: str = "x") -> str:
        """The terms from the top y-power down, each row from its top term."""
        t, d, parts = self.t, self._d, []
        for i in range(len(self._rows) - 1, -1, -1):
            (s, ns), ypart = self._rows[i], _exp_text(i, "y")
            parts += [(Fraction(n, d), "*".join(m for m in (_exp_text(Fraction(s + j, t), xvar),
                                                            ypart) if m))
                      for j in range(len(ns) - 1, -1, -1) if (n := ns[j])]
        return _join_terms(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        ring = f"t={self.t}; " if self._laurent else ""
        return f"{type(self).__name__}[{ring}{self.to_text()}]"


# The slots' setters: cheaper than object.__setattr__, and every result passes _set
_set_rows, _set_d = _Dense._rows.__set__, _Dense._d.__set__


class UniPoly(_Dense):
    """Polynomial in x over Q, dense: a value of at most one row."""

    __slots__ = ()
    t = 1
    _laurent = False

    def __init__(self, coeffs: Iterable = ()):
        nums, den = _clear([_exact(c) for c in coeffs])
        self._set(1, [(0, nums)], den)

    @property
    def shift(self) -> int:
        """The lowest z-exponent of a nonzero term (0 for zero)."""
        return self._rows[0][0] if self._rows else 0

    @property
    def _n(self) -> tuple:
        """The numerators over _d, from z^shift up."""
        return self._rows[0][1] if self._rows else ()

    # -- constructors ------------------------------------------------

    @classmethod
    def x_pow(cls, e: int, coeff=1) -> "UniPoly":
        c = _exact(coeff)
        return cls._of_xy([(_exponent(e, "x"), [c.numerator])], c.denominator)

    @classmethod
    def from_dict(cls, d: dict) -> "UniPoly":
        d = {_exponent(e, "x"): _exact(c) for e, c in d.items()}
        nums, den = _clear([d.get(e, 0) for e in range(max(d, default=-1) + 1)])
        return cls._of_xy([(0, nums)], den)

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions (a view): in Q[x] from x^0, in a
        Laurent ring from z^shift."""
        ns = self._n if self._laurent else (0,) * self.shift + self._n
        return tuple(Fraction(n, self._d) for n in ns)

    @property
    def degree(self):
        """Top exponent of z (the x-degree in Q[x]); NEG_INF for zero."""
        r = self._rows
        return r[0][0] + len(r[0][1]) - 1 if r else NEG_INF

    @property
    def terms(self) -> dict[int, Fraction]:
        """{z-exponent: coefficient} over the nonzero terms."""
        return {self.shift + i: Fraction(n, self._d) for i, n in enumerate(self._n) if n}

    def coeff(self, e: int) -> Fraction:
        """Coefficient of z^e (of x^e in Q[x])."""
        i, ns = e - self.shift, self._n
        return Fraction(ns[i], self._d) if 0 <= i < len(ns) else _ZERO

    def lc(self) -> Fraction:
        return Fraction(self._n[-1], self._d) if self._rows else _ZERO

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __pow__ = _power

    def __call__(self, v):
        self._polynomial_only("evaluation")
        return self._horner(self.shift, self._n, v)


class LaurentPoly(UniPoly):
    """Element of Q[x^(1/t), x^(-1/t)], built from {z-exponent: coefficient}
    with z = x^(1/t).  Every operation is UniPoly's."""

    __slots__ = ("t",)
    _laurent = True

    def __init__(self, t: int, terms: dict | Iterable = ()):
        t = _root_index(t)
        d = {_zexponent(ze): _exact(c) for ze, c in dict(terms).items()}
        lo = min(d, default=0)
        nums, den = _clear([d.get(ze, 0) for ze in range(lo, max(d, default=lo - 1) + 1)])
        self._set(t, [(lo, nums)], den)

    @classmethod
    def zero(cls, t: int) -> "LaurentPoly":
        return cls._make(_root_index(t), [])

    @classmethod
    def const(cls, t: int, v) -> "LaurentPoly":
        return cls.term(t, 0, v)

    @classmethod
    def term(cls, t: int, zexp: int, coeff=1) -> "LaurentPoly":
        zexp, c = _zexponent(zexp), _exact(coeff)
        return cls._make(_root_index(t), [(zexp, [c.numerator])], c.denominator)

    @classmethod
    def x_power(cls, t: int, exp, coeff=1) -> "LaurentPoly":
        """x^exp as an element of the ring with root index t."""
        ze = Fraction(_exact(exp)) * t
        if ze.denominator != 1:
            raise RingMismatch(f"exponent {exp} is not "
                               + ("an integer" if t == 1 else f"a multiple of 1/{t}"))
        return cls.term(t, int(ze), coeff)

    def to_unipoly(self) -> UniPoly:
        if any(ze < 0 or ze % self.t for ze in self.terms):
            raise RingMismatch(f"{self} does not lie in the polynomial ring")
        return UniPoly.from_dict({ze // self.t: c for ze, c in self.terms.items()})


def as_unipoly(f) -> UniPoly:
    """f as an element of Q[x], the guard of every input that must lie there:
    scalars become constants; a Laurent value raises RingMismatch unless
    t = 1 and it has no negative power."""
    if not isinstance(f, UniPoly):
        return UniPoly.const(f)
    if f._laurent:
        if f.t > 1:
            raise RingMismatch(f"{f} lies in {_ring_name(f)}, not in Q[x]")
        return f.to_unipoly()
    return f


class BiPoly(_Dense):
    """Polynomial in x and y over Q, one row per power of y.  Its ring, and
    t, are those of its y-coefficients (_coeff)."""

    __slots__ = ()
    t = 1
    _laurent = False
    _coeff = UniPoly

    def __init__(self, ycoeffs: Iterable = ()):
        cs = [as_unipoly(c) if isinstance(c, (UniPoly, int, Fraction, str)) else UniPoly(c)
              for c in ycoeffs]
        self._set(1, *_common([(c.shift, c._n, c._d) for c in cs]))

    @property
    def ycoeffs(self) -> tuple:
        """Coefficients of y^0, y^1, ... (a view)."""
        return tuple(self._coeff._make(self.t, [row], self._d) for row in self._rows)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_uni(cls, u: UniPoly) -> "BiPoly":
        return cls.zero() + as_unipoly(u)  # a Laurent class refuses before u is read

    @classmethod
    def y(cls) -> "BiPoly":
        return cls._of_xy([_EMPTY, (0, [1])])

    @classmethod
    def y_pow(cls, e: int, coeff: UniPoly | int = 1) -> "BiPoly":
        return cls((0,) * _exponent(e, "y") + (coeff,))

    @classmethod
    def monomial(cls, xe: int, ye: int, coeff=1) -> "BiPoly":
        c = _exact(coeff)
        return cls._of_xy([_EMPTY] * _exponent(ye, "y") + [(_exponent(xe, "x"), [c.numerator])],
                          c.denominator)

    # -- structure ---------------------------------------------------

    @property
    def y_degree(self):
        return len(self._rows) - 1 if self._rows else NEG_INF

    def ycoeff(self, i: int) -> UniPoly:
        row = self._rows[i] if 0 <= i < len(self._rows) else _EMPTY
        return self._coeff._make(self.t, [row], self._d)

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __pow__ = _power

    # -- calculus ----------------------------------------------------

    def _dy_rows(self) -> tuple[list, int]:
        """d/dy as (y-rows, denominator), zero numerators kept."""
        return [(s, [i * n for n in ns]) for i, (s, ns) in enumerate(self._rows[1:], 1)], self._d

    def dy(self) -> "BiPoly":
        return self._make(self.t, *self._dy_rows())

    def evaluate(self, xv, yv):
        self._polynomial_only("evaluation")
        acc = 0 * yv
        for s, ns in reversed(self._rows):
            acc = acc * yv + self._horner(s, ns, xv)
        return acc


class LaurentBiPoly(BiPoly):
    """Element of Q[x^(1/t), x^(-1/t), y], with LaurentPoly y-coefficients.
    Every operation is BiPoly's."""

    __slots__ = ("t",)
    _laurent = True
    _coeff = LaurentPoly

    def __init__(self, t: int, ycoeffs: Iterable = ()):
        t = _root_index(t)
        cs = [LaurentPoly.const(t, c) if isinstance(c, (int, Fraction)) else c for c in ycoeffs]
        if not all(isinstance(c, LaurentPoly) and c.t == t for c in cs):
            raise RingMismatch(f"LaurentBiPoly coefficients must be scalars or LaurentPoly with t = {t}")
        self._set(t, *_common([(c.shift, c._n, c._d) for c in cs]))

    @classmethod
    def const(cls, t: int, v) -> "LaurentBiPoly":
        c = _exact(v)
        return cls._make(_root_index(t), [(0, [c.numerator])], c.denominator)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "LaurentBiPoly":
        return cls(p.t, (p,))

    @classmethod
    def y(cls, t: int) -> "LaurentBiPoly":
        return cls._make(_root_index(t), [_EMPTY, (0, [1])])

    @classmethod
    def y_pow(cls, t: int, e: int, coeff: LaurentPoly | int = 1) -> "LaurentBiPoly":
        return cls(t, (0,) * _exponent(e, "y") + (coeff,))
