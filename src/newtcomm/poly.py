"""Exact polynomial arithmetic over Q: one kernel for Q[x] and the Laurent rings.

A univariate value is sum_i coeffs[i] * z^(shift + i) with z = x^(1/t) and
``fractions.Fraction`` coefficients; its ring is t plus whether negative
exponents are allowed.  ``UniPoly`` is Q[x] (t = 1, shift = 0, so coeffs[i]
is the coefficient of x^i).  ``LaurentPoly`` is Q[x^(1/t), x^(-1/t)]; its
values start at their lowest term, so a monomial is O(1) in size.
``BiPoly`` is a polynomial in y over one of those rings (recursive dense:
computations downstream group terms by powers of y).  Both levels share one
dense +, -, *, ** and divexact; the Laurent classes add only constructors
and conversions.  Mixing rings (a different t, or Q[x] with a Laurent ring)
raises ``RingMismatch``; scalars are coerced into the other operand's ring.

Values are immutable after construction and safe to share across threads.
The degree of the zero polynomial is ``NEG_INF``, which compares below
every integer, so degree-bound checks need no special cases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, truediv
from typing import Iterable

from .errors import InvalidInput, NotDivisible, RingMismatch

NEG_INF = float("-inf")

_ZERO = Fraction(0)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"cannot use {type(v).__name__} as an exact coefficient")


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


def _ring_name(p) -> str:
    x = f"x^(1/{p.t}), x^(-1/{p.t})" if p._laurent else "x"
    return f"Q[{x}, y]" if isinstance(p, BiPoly) else f"Q[{x}]"


def _aligned_sum(sa: int, a, sb: int, b) -> tuple[int, list]:
    """v^sa * a + v^sb * b for dense coefficient sequences a and b, as
    (lowest exponent, coefficients); only overlapping entries are added."""
    if sa > sb:
        sa, a, sb, b = sb, b, sa, a
    off = sb - sa
    if off >= len(a):
        return sa, [*a, *[_ZERO] * (off - len(a)), *b]
    rest = a[off:]
    tail = rest[len(b):] if len(rest) > len(b) else b[len(rest):]
    return sa, [*a[:off], *map(add, rest, b), *tail]


# -- ring operations -------------------------------------------------
# A UniPoly or BiPoly value is sum coeffs[i] * v^(shift+i) in its dense
# variable v (z or y).  Both classes bind these functions by name rather
# than inherit them, so that each class's own namespace holds its operators
# (perfbench/tracing.py wraps them there).

def _add(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self._make(self.t, *_aligned_sum(self.shift, self.coeffs, o.shift, o.coeffs))


def _neg(self):
    return self._make(self.t, self.shift, [-c for c in self.coeffs])


def _sub(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self + (-o)


def _rsub(self, other):
    return (-self) + other


def _mul(self, other):
    if isinstance(other, self._scalars):
        return self._make(self.t, self.shift, [c * other for c in self.coeffs])
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    a, b = self.coeffs, o.coeffs
    if not a or not b:
        return self._make(self.t, 0, [])
    out = [self._zero_coeff()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] += ca * cb
    return self._make(self.t, self.shift + o.shift, out)


def _power(self, n: int):
    if not isinstance(n, int) or (n < 0 and not self._laurent):
        raise InvalidInput("polynomial powers take non-negative integer exponents")
    base = self
    if n < 0:
        if len(self.coeffs) != 1:
            raise InvalidInput("negative powers only of monomials")
        base = self._make(self.t, -self.shift, [self.coeffs[0] ** -1])
    result = self._coerce(1)
    n = abs(n)
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _divexact(self, other):
    """Exact quotient self / other; NotDivisible when a remainder is left."""
    o = self._coerce(other)
    if o is None:
        raise TypeError("divexact needs a polynomial divisor")
    if not o.coeffs:
        raise InvalidInput("division by the zero polynomial")
    rem, b = list(self.coeffs), o.coeffs
    db, lead = len(b) - 1, b[-1]
    quot = [self._zero_coeff()] * max(len(rem) - db, 0)
    for top in range(len(rem) - 1, db - 1, -1):
        if rem[top]:
            q = quot[top - db] = self._div_coeff(rem[top], lead)
            for j, cb in enumerate(b, top - db):
                rem[j] -= q * cb
    if any(rem):
        raise NotDivisible(f"{self} is not divisible by {o}")
    return self._make(self.t, self.shift - o.shift, quot)


class _Dense:
    """Immutable value in its ring's normal form (see _set)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, t: int, shift: int, cs: list):
        p = object.__new__(cls)
        p._set(t, shift, cs)
        return p

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        ring = f"t={self.t}; " if self._laurent else ""
        return f"{type(self).__name__}[{ring}{self.to_text()}]"


class UniPoly(_Dense):
    """Polynomial in x over Q, dense: the univariate kernel of every ring."""

    __slots__ = ("coeffs",)
    t = 1
    shift = 0
    _laurent = False
    _scalars = (int, Fraction)
    _div_coeff = staticmethod(truediv)

    def __init__(self, coeffs: Iterable = ()):
        self._set(1, 0, [_as_fraction(c) for c in coeffs])

    def _set(self, t: int, shift: int, cs: list) -> None:
        """Store sum cs[i] * z^(shift+i); cs is consumed."""
        while cs and not cs[-1]:
            cs.pop()
        if self._laurent:
            lo = 0
            while lo < len(cs) and not cs[lo]:
                lo += 1
            del cs[:lo]
            object.__setattr__(self, "t", t)
            object.__setattr__(self, "shift", shift + lo if cs else 0)
        elif shift and cs:  # a negative shift only comes from derivative: cs[0] = 0*c
            cs = [_ZERO] * shift + cs if shift > 0 else cs[-shift:]
        object.__setattr__(self, "coeffs", tuple(cs))

    def _zero_coeff(self) -> Fraction:
        return _ZERO

    def _coerce(self, other):
        """other as a value of this ring, or None if it is no ring value."""
        if other.__class__ is self.__class__ and other.t == self.t:
            return other
        if isinstance(other, self._scalars):
            return self._make(self.t, 0, [_as_fraction(other)])
        if isinstance(other, UniPoly):
            raise RingMismatch(f"mixed rings {_ring_name(self)} and {_ring_name(other)}")
        return None

    def _polynomial_only(self, op: str) -> None:
        if self._laurent:
            raise RingMismatch(f"{op} is an operation of Q[x], not of {_ring_name(self)}")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def const(cls, v) -> "UniPoly":
        return cls((_as_fraction(v),))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def x_pow(cls, e: int, coeff=1) -> "UniPoly":
        if e < 0:
            raise InvalidInput("negative exponent in a polynomial ring")
        return cls((0,) * e + (_as_fraction(coeff),))

    @classmethod
    def from_dict(cls, d: dict) -> "UniPoly":
        return cls([d.get(e, 0) for e in range(max(d, default=-1) + 1)])

    # -- structure ---------------------------------------------------

    @property
    def degree(self):
        """Top exponent of z (the x-degree in Q[x]); NEG_INF for zero."""
        return self.shift + len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def x_degree(self):
        """Top exponent of x as a Fraction (may be negative or fractional)."""
        return Fraction(self.degree, self.t) if self.coeffs else NEG_INF

    @property
    def min_x_degree(self):
        return Fraction(min(self.terms), self.t) if self.coeffs else NEG_INF

    @property
    def terms(self) -> dict[int, Fraction]:
        """{z-exponent: coefficient} over the nonzero terms."""
        return {self.shift + i: c for i, c in enumerate(self.coeffs) if c}

    def coeff(self, e: int) -> Fraction:
        """Coefficient of z^e (of x^e in Q[x])."""
        i = e - self.shift
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return (other.__class__ is self.__class__ and other.t == self.t
                    and other.shift == self.shift and other.coeffs == self.coeffs)
        if isinstance(other, self._scalars):
            return self.shift == 0 and self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        if self.shift == 0 and len(self.coeffs) < 2:  # equals a scalar: hash like it
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.t, self.shift, self.coeffs))

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __pow__ = _power
    divexact = _divexact

    # -- calculus and printing ---------------------------------------

    def derivative(self) -> "UniPoly":
        """d/dx: z^e maps to (e/t) z^(e-t)."""
        t, s, cs = self.t, self.shift, self.coeffs
        if t == 1:
            out = [c * (s + i) for i, c in enumerate(cs)]
        else:
            out = [c * Fraction(s + i, t) for i, c in enumerate(cs)]
        return self._make(t, s - t, out)

    def integrate_dx(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        self._polynomial_only("integrate_dx")
        return self._make(1, 1, [c / (i + 1) for i, c in enumerate(self.coeffs)])

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
        if not isinstance(t, int) or t < 1:
            raise InvalidInput("root index t must be a positive integer")
        d = {int(ze): _as_fraction(c) for ze, c in dict(terms).items()}
        lo = min(d, default=0)
        self._set(t, lo, [d.get(ze, _ZERO) for ze in range(lo, max(d, default=lo - 1) + 1)])

    @classmethod
    def zero(cls, t: int) -> "LaurentPoly":
        return cls(t, {})

    @classmethod
    def const(cls, t: int, v) -> "LaurentPoly":
        return cls(t, {0: v})

    @classmethod
    def term(cls, t: int, zexp: int, coeff=1) -> "LaurentPoly":
        return cls(t, {zexp: coeff})

    @classmethod
    def x_power(cls, t: int, exp, coeff=1) -> "LaurentPoly":
        """x^exp as an element of the ring with root index t."""
        ze = Fraction(exp) * t
        if ze.denominator != 1:
            raise RingMismatch(f"exponent {exp} is not a multiple of 1/{t}")
        return cls.term(t, int(ze), coeff)

    @classmethod
    def from_unipoly(cls, u: UniPoly, t: int = 1) -> "LaurentPoly":
        return cls(t, {e * t: c for e, c in u.terms.items()})

    def to_unipoly(self) -> UniPoly:
        if any(ze < 0 or ze % self.t for ze in self.terms):
            raise RingMismatch(f"{self} does not lie in the polynomial ring")
        return UniPoly.from_dict({ze // self.t: c for ze, c in self.terms.items()})

    def in_ring(self, t2: int) -> "LaurentPoly":
        """Re-express over root index t2 (t must divide t2)."""
        if t2 % self.t:
            raise RingMismatch(f"cannot embed root index {self.t} into {t2}")
        return LaurentPoly(t2, {ze * (t2 // self.t): c for ze, c in self.terms.items()})

    def reduce_t(self) -> "LaurentPoly":
        """Smallest root index representation of the same value."""
        g = gcd(self.t, *self.terms) if self.coeffs else self.t
        return LaurentPoly(self.t // g, {ze // g: c for ze, c in self.terms.items()})


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

    __slots__ = ("coeffs",)
    t = 1
    shift = 0
    _laurent = False
    _coeff = UniPoly
    _scalars = (int, Fraction, UniPoly)
    _div_coeff = staticmethod(_divexact)

    def __init__(self, ycoeffs: Iterable = ()):
        self._set(1, 0, [as_unipoly(c) if isinstance(c, (UniPoly, int, Fraction, str))
                         else UniPoly(c) for c in ycoeffs])

    def _set(self, t: int, shift: int, cs: list) -> None:
        """Store sum cs[i] * y^i (shift is always 0); cs is consumed."""
        while cs and not cs[-1]:
            cs.pop()
        if self._laurent:
            object.__setattr__(self, "t", t)
        object.__setattr__(self, "coeffs", tuple(cs))

    def _zero_coeff(self) -> UniPoly:
        return self._coeff._make(self.t, 0, [])

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
        """Coefficients of y^0, y^1, ... (the same tuple as coeffs)."""
        return self.coeffs

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
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def x_degree(self):
        """Top z-exponent of the coefficients (the x-degree in Q[x,y])."""
        return max((c.degree for c in self.coeffs), default=NEG_INF)

    @property
    def total_degree(self):
        return max((i + c.degree for i, c in enumerate(self.coeffs) if c), default=NEG_INF)

    def ycoeff(self, i: int) -> UniPoly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._zero_coeff()

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return (other.__class__ is self.__class__ and other.t == self.t
                    and other.coeffs == self.coeffs)
        if isinstance(other, UniPoly) and (other.__class__ is not self._coeff
                                           or other.t != self.t):
            return False
        if isinstance(other, self._scalars):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) < 2:  # equals its y^0 coefficient: hash like it
            return hash(self.coeffs[0]) if self.coeffs else 0
        return hash((self.t, self.coeffs))

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __pow__ = _power
    divexact = _divexact

    def divexact_y(self) -> "BiPoly":
        """Exact quotient by the variable y."""
        if self.coeffs and self.coeffs[0]:
            raise NotDivisible(f"{self} is not divisible by y")
        return self._make(self.t, 0, list(self.coeffs[1:]))

    # -- calculus and printing ---------------------------------------

    def dx(self) -> "BiPoly":
        return self._make(self.t, 0, [c.derivative() for c in self.coeffs])

    def dy(self) -> "BiPoly":
        return self._make(self.t, 0, [i * c for i, c in enumerate(self.coeffs)][1:])

    def integrate_dx(self) -> "BiPoly":
        return self._make(self.t, 0, [c.integrate_dx() for c in self.coeffs])

    def evaluate(self, xv, yv):
        acc = 0 * yv
        for c in reversed(self.coeffs):
            acc = acc * yv + c(xv)
        return acc

    def to_text(self, xvar: str = "x", yvar: str = "y") -> str:
        parts: list[tuple[Fraction, str]] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            parts += self.coeffs[i]._parts(xvar, _exp_text(i, yvar))
        return _join_terms(parts)


class LaurentBiPoly(BiPoly):
    """Element of Q[x^(1/t), x^(-1/t), y]: a tuple of LaurentPoly
    y-coefficients.  Every operation is BiPoly's."""

    __slots__ = ("t",)
    _laurent = True
    _coeff = LaurentPoly

    def __init__(self, t: int, ycoeffs: Iterable = ()):
        cs = [LaurentPoly.const(t, c) if isinstance(c, (int, Fraction)) else c for c in ycoeffs]
        if not all(isinstance(c, LaurentPoly) and c.t == t for c in cs):
            raise RingMismatch(f"LaurentBiPoly coefficients must be scalars or LaurentPoly with t = {t}")
        self._set(t, 0, cs)

    @classmethod
    def zero(cls, t: int) -> "LaurentBiPoly":
        return cls(t, ())

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

    @classmethod
    def from_bipoly(cls, p: BiPoly, t: int = 1) -> "LaurentBiPoly":
        return cls(t, tuple(LaurentPoly.from_unipoly(c, t) for c in p.coeffs))

    def to_bipoly(self) -> BiPoly:
        return BiPoly([c.to_unipoly() for c in self.coeffs])
