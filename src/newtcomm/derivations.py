"""Derivations of Q[x,y] and of the Laurent rings Q[x^(1/t), x^(-1/t), y].

A derivation is determined by its values on the generators x and y; it
extends to the whole ring by additivity and the Leibniz rule.  ``apply``
realizes that extension as dp/dx * act_x + dp/dy * act_y, and ``bracket``
is the commutator, again returned as a derivation through its values on
the generators.  One class serves every ring, the ring of act_x and act_y;
``LaurentDerivation`` only adds a constructor that declares the root index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RingMismatch
from .poly import BiPoly, UniPoly


@dataclass(frozen=True)
class PlanarDerivation:
    """Derivation with act_x = D(x), act_y = D(y) (Q[x,y] unless both lie
    in a Laurent ring)."""

    act_x: BiPoly
    act_y: BiPoly

    @property
    def t(self) -> int:
        return self.act_x.t

    def _like(self, act_x: BiPoly, act_y: BiPoly) -> "PlanarDerivation":
        """A derivation of the same class as self."""
        d = object.__new__(type(self))
        PlanarDerivation.__init__(d, act_x, act_y)
        return d

    def _element(self, p) -> BiPoly:
        q = self.act_x._coerce(p)
        if q is None:
            raise RingMismatch(f"{type(p).__name__} is not an element of the derivation's ring")
        return q

    def apply(self, p) -> BiPoly:
        p = self._element(p)
        return p.dx() * self.act_x + p.dy() * self.act_y

    def bracket(self, other: "PlanarDerivation") -> "PlanarDerivation":
        if not isinstance(other, PlanarDerivation):
            raise RingMismatch("bracket needs two derivations on the same ring")
        return self._like(
            self.apply(other.act_x) - other.apply(self.act_x),
            self.apply(other.act_y) - other.apply(self.act_y),
        )

    def divergence(self) -> BiPoly:
        return self.act_x.dx() + self.act_y.dy()

    def scale(self, g) -> "PlanarDerivation":
        """Multiply by a ring element (module structure over the ring)."""
        g = self._element(g)
        return self._like(g * self.act_x, g * self.act_y)

    def __add__(self, other):
        if not isinstance(other, PlanarDerivation):
            return NotImplemented
        return self._like(self.act_x + other.act_x, self.act_y + other.act_y)

    def __sub__(self, other):
        if not isinstance(other, PlanarDerivation):
            return NotImplemented
        return self._like(self.act_x - other.act_x, self.act_y - other.act_y)

    def __neg__(self):
        return self._like(-self.act_x, -self.act_y)

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


class LaurentDerivation(PlanarDerivation):
    """Derivation on Q[x^(1/t), x^(-1/t), y], computed in z = x^(1/t)."""

    def __init__(self, t: int, act_x: BiPoly, act_y: BiPoly):
        if act_x.t != t or act_y.t != t:
            raise RingMismatch("derivation values must share the declared root index")
        super().__init__(act_x, act_y)


def newton_derivation(f: UniPoly) -> PlanarDerivation:
    """The derivation of the second-order system x'' = f(x): (y, f)."""
    return PlanarDerivation(BiPoly.y(), BiPoly.from_uni(f))


def hamiltonian(f: UniPoly) -> BiPoly:
    """Energy integral y^2 - 2*INT(f)dx; killed by newton_derivation(f)."""
    return BiPoly.y_pow(2) - 2 * BiPoly.from_uni(f.integrate_dx())


def divergence(d: PlanarDerivation) -> BiPoly:
    return d.divergence()
