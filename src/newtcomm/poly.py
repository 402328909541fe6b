"""Exact polynomial arithmetic over Q: one kernel for Q[x] and the Laurent rings.

A univariate value is sum_i (_n[i] / _d) * z^(shift + i) with z = x^(1/t);
its ring is t plus whether negative exponents are allowed.  ``UniPoly`` is
Q[x] (t = 1, shift = 0, so _n[i] / _d is the coefficient of x^i).
``LaurentPoly`` is Q[x^(1/t), x^(-1/t)]; its values start at their lowest
term, so a monomial is O(1) in size.  ``BiPoly`` is a polynomial in y over
one of those rings (recursive dense: computations downstream group terms by
powers of y).  Both levels share one dense +, -, * and **; the Laurent
classes add only constructors and ``LaurentPoly.to_unipoly``.  Beyond the
ring operations the kernel keeps what the computations read: d/dx, d/dy,
the integral in x, exact division by y, evaluation and printing.  Mixing
rings (a different t, or Q[x] with a Laurent ring) raises ``RingMismatch``;
scalars are coerced into the other operand's ring.

Storage is the form of FLINT's fmpq_poly: a tuple _n of int numerators over
one denominator _d > 0, in lowest terms (gcd(_d, *_n) == 1), with no
trailing zero numerator and, in a Laurent ring, no leading one; zero is
((), 1).  The form is canonical, so == and hash are structural.
``coeffs``, ``coeff``, ``lc`` and ``terms`` read it as Fractions, built on
access.  A BiPoly keeps its y-coefficients in _n over _d = 1, so the ring
operations below serve both levels.

A sum is one aligned integer sum over lcm(da, db).  A product reads each
operand as y-rows (z-shift, numerators, denominator): one row for a
univariate value, one per y-coefficient of a BiPoly.  The rows are scaled to
integers over the lcm of their denominators, the two integer grids are
convolved over (y, z) in one pass (_convolve), and each output row is stored
over da * db.  The commutant integrator runs on the same integer form
through _convolve, _lincomb and _integrate.  Two rules spare tiny operands
the lcm set-up: when an operand has one coefficient in its dense variable,
the product is the other operand scaled and shifted (scalars take this path
once coerced); and a value with one nonzero term c*v^e has n-th power
c^n*v^(e*n), negative n included for a Laurent monomial.

Values are immutable after construction and safe to share across threads.
The degree of the zero polynomial is ``NEG_INF``, which compares below
every integer, so degree-bound checks need no special cases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable

from .errors import InvalidInput, NotDivisible, RingMismatch

NEG_INF = float("-inf")

_ZERO = Fraction(0)


def _exact(v):
    """v as an exact scalar, an int or a Fraction (a str is parsed)."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot use {type(v).__name__} as an exact coefficient")


def _clear(cs: list) -> tuple[list, int]:
    """Exact scalars as integer numerators over the lcm of their denominators."""
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _root_index(t) -> int:
    if not isinstance(t, int) or t < 1:
        raise InvalidInput("root index t must be a positive integer")
    return t


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


def _aligned_sum(sa: int, a, sb: int, b) -> tuple[int, list]:
    """v^sa * a + v^sb * b for dense coefficient sequences a and b, as
    (lowest exponent, coefficients); only overlapping entries are added."""
    if sa > sb:
        sa, a, sb, b = sb, b, sa, a
    off = sb - sa
    if off >= len(a):
        return sa, [*a, *[0] * (off - len(a)), *b]
    rest = a[off:]
    tail = rest[len(b):] if len(rest) > len(b) else b[len(rest):]
    return sa, [*a[:off], *map(add, rest, b), *tail]


# -- ring operations -------------------------------------------------
# A UniPoly or BiPoly value is sum _n[i] * v^(shift+i) / _d in its dense
# variable v (z or y).  Both classes bind these functions by name rather
# than inherit them, so that each class's own namespace holds its operators
# (perfbench/tracing.py wraps them there).

def _add(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    a, da, b, db = self._n, self._d, o._n, o._d
    if da != db:  # both over lcm(da, db)
        d = lcm(da, db)
        a, b, da = [n * (d // da) for n in a], [n * (d // db) for n in b], d
    return self._make(self.t, *_aligned_sum(self.shift, a, o.shift, b), da)


def _neg(self):
    return self._make(self.t, self.shift, [-c for c in self._n], self._d)


def _sub(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self + (-o)


def _rsub(self, other):
    return (-self) + other


def _span(rows) -> tuple[int, int]:
    """Lowest z-exponent and one past the highest over the nonzero y-rows."""
    live = [(s, s + len(ns)) for s, ns, _ in rows if ns]
    return min(lo for lo, _ in live), max(hi for _, hi in live)


def _grid(rows, lo: int, width: int) -> tuple[int, list]:
    """The y-rows (shift, numerators, denominator) over one denominator: the
    lcm of the row denominators and the nonzero numerators rescaled to it,
    each keyed by its place y * width + z - lo in a row-major grid."""
    den = lcm(*[d for _, _, d in rows])
    return den, [(y * width + s - lo + i, n * (den // d))
                 for y, (s, ns, d) in enumerate(rows) for i, n in enumerate(ns) if n]


def _convolve(ga, gb: list, size: int) -> list:
    """acc[i + j] = sum of ca * cb over (i, ca) in ga and (j, cb) in gb, for
    integer entries keyed by place; ga is read once, gb once per entry of ga."""
    acc = [0] * size
    for i, ca in ga:
        for j, cb in gb:
            acc[i + j] += ca * cb
    return acc


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
    while out and not out[-1]:
        out.pop()
    return out, den


def _integrate(nums: list, den: int) -> tuple[list, int]:
    """The antiderivative, constant term 0, of sum nums[i] x^i / den in lowest
    terms: scaled by L = lcm(1..n), coefficient i divided exactly by i+1,
    then one gcd normalisation."""
    L = lcm(*range(1, len(nums) + 1))
    out = [0, *(n * (L // i) for i, n in enumerate(nums, 1))]
    g = gcd(den * L, *out)
    return [n // g for n in out], den * L // g


def _mul(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    a, b = self._n, o._n
    if not a or not b:
        return self._make(self.t, 0, [])
    if len(a) == 1 or len(b) == 1:  # one coefficient: scale the other and shift
        cs = [c * b[0] for c in a] if len(b) == 1 else [a[0] * c for c in b]
        return self._make(self.t, self.shift + o.shift, cs, self._d * o._d)
    ra, rb = self._rows(), o._rows()
    (la, ha), (lb, hb) = _span(ra), _span(rb)
    width = ha - la + hb - lb - 1
    (da, ga), (db, gb) = _grid(ra, la, width), _grid(rb, lb, width)
    acc = _convolve(ga, gb, width * (len(ra) + len(rb) - 1))
    return self._from_rows([(la + lb, acc[i:i + width], da * db)
                            for i in range(0, len(acc), width)])


def _power(self, n: int):
    if not isinstance(n, int) or (n < 0 and not self._laurent):
        raise InvalidInput("polynomial powers take non-negative integer exponents")
    live = [i for i, c in enumerate(self._n) if c]
    if len(live) == 1:  # one term c * v^e: its power is c^n * v^(e*n)
        return self._term_power(live[0], n)
    if n < 0:
        raise InvalidInput("negative powers only of monomials")
    result, base = self._coerce(1), self
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class _Dense:
    """Immutable value in its ring's normal form (see _set)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, t: int, shift: int, nums: list, den: int = 1):
        p = object.__new__(cls)
        p._set(t, shift, nums, den)
        return p

    @property
    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self):
        return bool(self._n)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        ring = f"t={self.t}; " if self._laurent else ""
        return f"{type(self).__name__}[{ring}{self.to_text()}]"


class UniPoly(_Dense):
    """Polynomial in x over Q, dense: the univariate kernel of every ring."""

    __slots__ = ("_n", "_d")
    t = 1
    shift = 0
    _laurent = False
    _scalars = (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        self._set(1, 0, *_clear([_exact(c) for c in coeffs]))

    def _set(self, t: int, shift: int, nums: list, den: int) -> None:
        """Store sum nums[i] * z^(shift+i) / den, den > 0, in normal form."""
        lo, hi = 0, len(nums)
        while hi and not nums[hi - 1]:
            hi -= 1
        if self._laurent:
            while lo < hi and not nums[lo]:
                lo += 1
            object.__setattr__(self, "t", t)
            object.__setattr__(self, "shift", shift + lo if hi else 0)
            nums = nums[lo:hi]
        elif shift < 0:  # only from derivative, where nums[0] = 0
            nums = nums[-shift:hi]
        else:
            nums = [0] * shift + nums[:hi] if shift and hi else nums[:hi]
        if den != 1 and (g := gcd(den, *nums)) != 1:
            nums, den = [n // g for n in nums], den // g
        object.__setattr__(self, "_n", tuple(nums))
        object.__setattr__(self, "_d", den)

    def _rows(self) -> tuple:
        """The value as y-rows (z-shift, numerators, denominator): one row."""
        return ((self.shift, self._n, self._d),)

    def _from_rows(self, rows: list):
        return self._make(self.t, *rows[0])

    def _term_power(self, i: int, n: int):
        """(_n[i] / _d * z^(shift+i))^n; a negative n inverts the term."""
        c, d = (self._n[i], self._d) if n >= 0 else (self._d, self._n[i])
        if d < 0:
            c, d = -c, -d
        return self._make(self.t, (self.shift + i) * n, [c ** abs(n)], d ** abs(n))

    def _coerce(self, other):
        """other as a value of this ring, or None if it is no ring value."""
        if other.__class__ is self.__class__ and other.t == self.t:
            return other
        if isinstance(other, self._scalars):
            return self._make(self.t, 0, [other.numerator], other.denominator)
        if isinstance(other, UniPoly):
            raise RingMismatch(f"mixed rings {_ring_name(self)} and {_ring_name(other)}")
        return None

    def _polynomial_only(self, op: str) -> None:
        if self._laurent:
            raise RingMismatch(f"{op} is an operation of Q[x], not of {_ring_name(self)}")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls._make(1, 0, [])

    @classmethod
    def one(cls) -> "UniPoly":
        return cls._make(1, 0, [1])

    @classmethod
    def const(cls, v) -> "UniPoly":
        return cls.x_pow(0, v)

    @classmethod
    def x(cls) -> "UniPoly":
        return cls._make(1, 1, [1])

    @classmethod
    def x_pow(cls, e: int, coeff=1) -> "UniPoly":
        if e < 0:
            raise InvalidInput("negative exponent in a polynomial ring")
        c = _exact(coeff)
        return cls._make(1, e, [c.numerator], c.denominator)

    @classmethod
    def from_dict(cls, d: dict) -> "UniPoly":
        return cls([d.get(e, 0) for e in range(max(d, default=-1) + 1)])

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest z-exponent first (a view)."""
        return tuple(Fraction(n, self._d) for n in self._n)

    @property
    def degree(self):
        """Top exponent of z (the x-degree in Q[x]); NEG_INF for zero."""
        return self.shift + len(self._n) - 1 if self._n else NEG_INF

    @property
    def terms(self) -> dict[int, Fraction]:
        """{z-exponent: coefficient} over the nonzero terms."""
        return {self.shift + i: Fraction(n, self._d) for i, n in enumerate(self._n) if n}

    def coeff(self, e: int) -> Fraction:
        """Coefficient of z^e (of x^e in Q[x])."""
        i = e - self.shift
        return Fraction(self._n[i], self._d) if 0 <= i < len(self._n) else _ZERO

    def lc(self) -> Fraction:
        return Fraction(self._n[-1], self._d) if self._n else _ZERO

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return (other.__class__ is self.__class__ and other.t == self.t
                    and other.shift == self.shift and other._n == self._n and other._d == self._d)
        if isinstance(other, self._scalars):
            return (self.shift == 0 and self._d == other.denominator
                    and self._n == ((other.numerator,) if other else ()))
        return NotImplemented

    def __hash__(self):
        if self.shift == 0 and len(self._n) < 2:  # equals a scalar: hash like it
            return hash(Fraction(self._n[0], self._d) if self._n else 0)
        return hash((self.t, self.shift, self._n, self._d))

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __pow__ = _power

    # -- calculus and printing ---------------------------------------

    def derivative(self) -> "UniPoly":
        """d/dx: z^e maps to (e/t) z^(e-t)."""
        t, s = self.t, self.shift
        return self._make(t, s - t, [n * (s + i) for i, n in enumerate(self._n)], self._d * t)

    def integrate_dx(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        self._polynomial_only("integrate_dx")
        return self._make(1, 0, *_integrate(self._n, self._d))

    def __call__(self, v):
        self._polynomial_only("evaluation")
        acc = 0 * v  # keeps the caller's numeric type (Fraction or float)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def _parts(self, var: str, ypart: str = "") -> list[tuple[Fraction, str]]:
        """(coefficient, monomial) from the top term down, ypart appended."""
        t, s, cs = self.t, self.shift, self.coeffs
        return [(c, "*".join(m for m in (_exp_text(Fraction(s + i, t), var), ypart) if m))
                for i in range(len(cs) - 1, -1, -1) if (c := cs[i])]

    def to_text(self, var: str = "x") -> str:
        return _join_terms(self._parts(var))


class LaurentPoly(UniPoly):
    """Element of Q[x^(1/t), x^(-1/t)], built from {z-exponent: coefficient}
    with z = x^(1/t).  Every operation is UniPoly's."""

    __slots__ = ("t", "shift")
    _laurent = True

    def __init__(self, t: int, terms: dict | Iterable = ()):
        t = _root_index(t)
        d = {int(ze): _exact(c) for ze, c in dict(terms).items()}
        lo = min(d, default=0)
        self._set(t, lo, *_clear([d.get(ze, 0) for ze in range(lo, max(d, default=lo - 1) + 1)]))

    @classmethod
    def zero(cls, t: int) -> "LaurentPoly":
        return cls(t, {})

    @classmethod
    def const(cls, t: int, v) -> "LaurentPoly":
        return cls.term(t, 0, v)

    @classmethod
    def term(cls, t: int, zexp: int, coeff=1) -> "LaurentPoly":
        c = _exact(coeff)
        return cls._make(_root_index(t), zexp, [c.numerator], c.denominator)

    @classmethod
    def x_power(cls, t: int, exp, coeff=1) -> "LaurentPoly":
        """x^exp as an element of the ring with root index t."""
        ze = Fraction(exp) * t
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
    """Polynomial in x and y over Q: a tuple of UniPoly y-coefficients.
    Its ring, and t, are those of the coefficients."""

    __slots__ = ("_n",)
    t = 1
    shift = 0
    _d = 1
    _laurent = False
    _coeff = UniPoly
    _scalars = (int, Fraction, UniPoly)

    def __init__(self, ycoeffs: Iterable = ()):
        self._set(1, 0, [as_unipoly(c) if isinstance(c, (UniPoly, int, Fraction, str))
                         else UniPoly(c) for c in ycoeffs])

    def _set(self, t: int, shift: int, cs: list, den: int = 1) -> None:
        """Store sum cs[i] * y^(shift+i) (den is always 1); cs is consumed."""
        if self._laurent:
            object.__setattr__(self, "t", t)
        while cs and not cs[-1]:
            cs.pop()
        if shift and cs:
            if shift < 0:
                raise InvalidInput("y has no negative powers")
            cs = [self._zero_coeff()] * shift + cs
        object.__setattr__(self, "_n", tuple(cs))

    def _zero_coeff(self) -> UniPoly:
        return self._coeff._make(self.t, 0, [])

    def _rows(self) -> list:
        """The value as y-rows (z-shift, numerators, denominator): one per
        y-coefficient."""
        return [(c.shift, c._n, c._d) for c in self._n]

    def _from_rows(self, rows: list):
        """The value whose y^i coefficient has the row (z-shift, numerators,
        denominator) rows[i]."""
        return self._make(self.t, 0, [self._coeff._make(self.t, *row) for row in rows])

    def _term_power(self, i: int, n: int):
        """(_n[i] * y^i)^n."""
        return self._make(self.t, i * n, [self._n[i] ** n])

    def _coerce(self, other):
        """other as a value of this ring, or None if it is no ring value."""
        if other.__class__ is self.__class__ and other.t == self.t:
            return other
        if isinstance(other, self._scalars):
            return self._make(self.t, 0, [self._zero_coeff()._coerce(other)])
        if isinstance(other, BiPoly):
            raise RingMismatch(f"mixed rings {_ring_name(self)} and {_ring_name(other)}")
        return None

    @property
    def ycoeffs(self) -> tuple:
        """Coefficients of y^0, y^1, ..."""
        return self._n

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls((1,))

    @classmethod
    def const(cls, v) -> "BiPoly":
        return cls((v,))

    @classmethod
    def from_uni(cls, u: UniPoly) -> "BiPoly":
        return cls((u,))

    @classmethod
    def x(cls) -> "BiPoly":
        return cls((UniPoly.x(),))

    @classmethod
    def y(cls) -> "BiPoly":
        return cls((0, 1))

    @classmethod
    def y_pow(cls, e: int, coeff: UniPoly | int = 1) -> "BiPoly":
        return cls((0,) * e + (coeff,))

    @classmethod
    def monomial(cls, xe: int, ye: int, coeff=1) -> "BiPoly":
        return cls.y_pow(ye, UniPoly.x_pow(xe, coeff))

    # -- structure ---------------------------------------------------

    @property
    def y_degree(self):
        return len(self._n) - 1 if self._n else NEG_INF

    def ycoeff(self, i: int) -> UniPoly:
        return self._n[i] if 0 <= i < len(self._n) else self._zero_coeff()

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return (other.__class__ is self.__class__ and other.t == self.t
                    and other._n == self._n)
        if isinstance(other, UniPoly) and (other.__class__ is not self._coeff
                                           or other.t != self.t):
            return False
        if isinstance(other, self._scalars):
            return self._n == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        if len(self._n) < 2:  # equals its y^0 coefficient: hash like it
            return hash(self._n[0]) if self._n else 0
        return hash((self.t, self._n))

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __pow__ = _power

    def divexact_y(self) -> "BiPoly":
        """Exact quotient by the variable y."""
        if self._n and self._n[0]:
            raise NotDivisible(f"{self} is not divisible by y")
        return self._make(self.t, 0, list(self._n[1:]))

    # -- calculus and printing ---------------------------------------

    def dx(self) -> "BiPoly":
        return self._make(self.t, 0, [c.derivative() for c in self._n])

    def dy(self) -> "BiPoly":
        return self._make(self.t, 0, [i * c for i, c in enumerate(self._n[1:], 1)])

    def integrate_dx(self) -> "BiPoly":
        return self._make(self.t, 0, [c.integrate_dx() for c in self._n])

    def evaluate(self, xv, yv):
        acc = 0 * yv
        for c in reversed(self._n):
            acc = acc * yv + c(xv)
        return acc

    def to_text(self, xvar: str = "x", yvar: str = "y") -> str:
        parts: list[tuple[Fraction, str]] = []
        for i in range(len(self._n) - 1, -1, -1):
            parts += self._n[i]._parts(xvar, _exp_text(i, yvar))
        return _join_terms(parts)


class LaurentBiPoly(BiPoly):
    """Element of Q[x^(1/t), x^(-1/t), y]: a tuple of LaurentPoly
    y-coefficients.  Every operation is BiPoly's."""

    __slots__ = ("t",)
    _laurent = True
    _coeff = LaurentPoly

    def __init__(self, t: int, ycoeffs: Iterable = ()):
        t = _root_index(t)
        cs = [LaurentPoly.const(t, c) if isinstance(c, (int, Fraction)) else c for c in ycoeffs]
        if not all(isinstance(c, LaurentPoly) and c.t == t for c in cs):
            raise RingMismatch(f"LaurentBiPoly coefficients must be scalars or LaurentPoly with t = {t}")
        self._set(t, 0, cs)

    @classmethod
    def const(cls, t: int, v) -> "LaurentBiPoly":
        return cls(t, (LaurentPoly.const(t, v),))

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "LaurentBiPoly":
        return cls(p.t, (p,))

    @classmethod
    def y(cls, t: int) -> "LaurentBiPoly":
        return cls(t, (0, 1))

    @classmethod
    def y_pow(cls, t: int, e: int, coeff: LaurentPoly | int = 1) -> "LaurentBiPoly":
        return cls(t, (0,) * e + (coeff,))
