"""Derivations of Q[x,y] and of the Laurent rings Q[x^(1/t), x^(-1/t), y].

A derivation is determined by its values on the generators x and y; it
extends to the whole ring by additivity and the Leibniz rule.  ``apply``
realizes that extension as dp/dx * act_x + dp/dy * act_y, ``bracket`` is
the commutator through its values on the generators, and ``det`` is
act_x * e(y) - act_y * e(x).  Each value they return is one sum of
products (``poly._dot``), normalised once; a sum that cancels is returned
as zero without normalising.  One class serves every ring:
a derivation's ring is the one ring of act_x and act_y, so == and hash
compare ring and values.  ``LaurentDerivation`` is a constructor that also
checks the declared root index.  A derivation is an immutable slotted
object, like the ring values; it is no tuple, since it has operators of its
own (``2 * d`` is no repetition).
"""

from __future__ import annotations

from .errors import RingMismatch
from .poly import BiPoly, UniPoly, _Dense, _dot, _ring_name, ring_name


def _ring(p) -> str:
    return _ring_name(p) if isinstance(p, _Dense) else type(p).__name__


def _same_ring(p, q, what: str) -> None:
    """Raise RingMismatch unless p and q are BiPoly values of one ring."""
    if not (isinstance(p, BiPoly) and isinstance(q, BiPoly)
            and p._laurent == q._laurent and p.t == q.t):
        raise RingMismatch(f"{what} in {_ring(p)} and {_ring(q)}: "
                           f"they must lie in one ring of BiPoly values")


class PlanarDerivation:
    """Derivation with act_x = D(x), act_y = D(y), of the ring both values
    lie in (Q[x,y] unless both lie in a Laurent ring)."""

    __slots__ = ("act_x", "act_y")

    def __init__(self, act_x: BiPoly, act_y: BiPoly):
        _same_ring(act_x, act_y, "derivation values")
        _set_x(self, act_x)
        _set_y(self, act_y)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.act_x == other.act_x and self.act_y == other.act_y

    def __hash__(self):
        return hash((self.act_x, self.act_y))

    def __repr__(self):
        return f"{type(self).__qualname__}(act_x={self.act_x!r}, act_y={self.act_y!r})"

    @property
    def t(self) -> int:
        return self.act_x.t

    def _element(self, p) -> BiPoly:
        q = self.act_x._coerce(p)
        if q is None:
            raise RingMismatch(f"{type(p).__name__} is not an element of the derivation's ring")
        return q

    def _other(self, other) -> "PlanarDerivation":
        if not isinstance(other, PlanarDerivation):
            raise RingMismatch(f"{type(other).__name__} is not a derivation")
        _same_ring(self.act_x, other.act_x, "derivations")
        return other

    def _products(self, p: BiPoly, sign: int) -> list:
        """The two products of sign * apply(p), for p in the ring (_dot)."""
        X, Y = self.act_x, self.act_y
        return [(sign, *p._dx_rows(), X._rows, X._d), (sign, *p._dy_rows(), Y._rows, Y._d)]

    def apply(self, p) -> BiPoly:
        return _dot(self.act_x, self._products(self._element(p), 1))

    def bracket(self, other: "PlanarDerivation") -> "PlanarDerivation":
        """[self, other]: self(other(v)) - other(self(v)) at v = x and v = y."""
        other = self._other(other)
        return PlanarDerivation(*(_dot(self.act_x, self._products(b, 1) + other._products(a, -1))
                                  for a, b in ((self.act_x, other.act_x),
                                               (self.act_y, other.act_y))))

    def det(self, other: "PlanarDerivation") -> BiPoly:
        """act_x * other.act_y - act_y * other.act_x."""
        other = self._other(other)
        X, Y, oX, oY = self.act_x, self.act_y, other.act_x, other.act_y
        return _dot(X, [(1, X._rows, X._d, oY._rows, oY._d), (-1, Y._rows, Y._d, oX._rows, oX._d)])

    def divergence(self) -> BiPoly:
        return self.act_x.dx() + self.act_y.dy()

    def scale(self, g) -> "PlanarDerivation":
        """Multiply by a ring element (module structure over the ring)."""
        g = self._element(g)
        return PlanarDerivation(g * self.act_x, g * self.act_y)

    def __add__(self, other):
        if not isinstance(other, PlanarDerivation):
            return NotImplemented
        return PlanarDerivation(self.act_x + other.act_x, self.act_y + other.act_y)

    def __sub__(self, other):
        if not isinstance(other, PlanarDerivation):
            return NotImplemented
        return PlanarDerivation(self.act_x - other.act_x, self.act_y - other.act_y)

    def __neg__(self):
        return PlanarDerivation(-self.act_x, -self.act_y)

    @property
    def is_zero(self) -> bool:
        return self.act_x.is_zero and self.act_y.is_zero

    @property
    def y_degree(self):
        return max(self.act_x.y_degree, self.act_y.y_degree)

    def to_json_dict(self) -> dict:
        return {"ring": {"t": self.t}, "dx": str(self.act_x), "dy": str(self.act_y)}

    def __str__(self):
        return f"(x -> {self.act_x}, y -> {self.act_y})"


# The slots' setters: __setattr__ refuses every assignment after __init__
_set_x, _set_y = PlanarDerivation.act_x.__set__, PlanarDerivation.act_y.__set__


def LaurentDerivation(t: int, act_x: BiPoly, act_y: BiPoly) -> PlanarDerivation:
    """The derivation of Q[x^(1/t), x^(-1/t), y] with these values, computed
    in z = x^(1/t)."""
    if not (isinstance(act_x, BiPoly) and act_x._laurent and act_x.t == t):
        raise RingMismatch(f"derivation value in {_ring(act_x)}, not in {ring_name(t, True)}")
    return PlanarDerivation(act_x, act_y)


def newton_derivation(f: UniPoly) -> PlanarDerivation:
    """The derivation of the second-order system x'' = f(x): (y, f)."""
    return PlanarDerivation(BiPoly.y(), BiPoly.from_uni(f))


def hamiltonian(f: UniPoly) -> BiPoly:
    """Energy integral y^2 - 2*INT(f)dx; killed by newton_derivation(f)."""
    return BiPoly.y_pow(2) - 2 * BiPoly.from_uni(f.integrate_dx())
