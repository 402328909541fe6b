"""Commuting pairs on rings with fractional x-powers, and slope-root witnesses.

For each k >= 1 the pair lives on K[x^(1/(2k-1)), x^(-1/(2k-1)), y]:

    alpha = (y, x^(-rho)),   rho = (2k+1)/(2k-1),
    beta(x) = sum_l a_{2(k-l)} * x^(1+(1-rho)l) * y^(2(k-l)),   l = 0..k,
    beta(y) = sum_l a_{2(k-l)+1} * x^((1-rho)l) * y^(2(k-l)+1),

with the a_i fixed by a two-step downward recurrence from a_{2k+1} = a_{2k}.
The pair commutes exactly, alpha annihilates r = y^2 + (2k-1)x^(-2/(2k-1)),
and r^s * beta supplies, for each odd m >= 2k+1, a symmetry of y-degree m
whose slope is -rho — certifying -rho as a root of the level-m obstruction
polynomial.  The slope-1 witnesses use the polynomial pair (y, x), (x, y)
with r = y^2 - x^2 instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derivations import LaurentDerivation, PlanarDerivation
from .errors import DegenerateRecurrence, InvalidInput
from .poly import BiPoly, LaurentBiPoly, LaurentPoly


@dataclass(frozen=True)
class LaurentFamily:
    k: int
    t: int
    a: tuple[Fraction, ...]  # a_0 .. a_{2k+1}
    alpha: LaurentDerivation
    beta: LaurentDerivation

    @property
    def rho(self) -> Fraction:
        return Fraction(2 * self.k + 1, 2 * self.k - 1)

    def ratio_identity_holds(self) -> bool:
        """rho * a_{2(k-l)} = (2(k-l)+1)/(2(k-l)-1) * a_{2(k-l)+1} for l < k,
        and a_1 = -rho * a_0 at l = k."""
        k, a, rho = self.k, self.a, self.rho
        for l in range(k):
            i = 2 * (k - l)
            if rho * a[i] != Fraction(i + 1, i - 1) * a[i + 1]:
                return False
        return a[1] == -rho * a[0]


def _coefficients(k: int, a_top: Fraction) -> tuple[Fraction, ...]:
    rho = Fraction(2 * k + 1, 2 * k - 1)
    a: dict[int, Fraction] = {2 * k + 1: a_top, 2 * k: a_top}
    for l in range(1, k + 1):
        i = 2 * (k - l)
        den_odd = (1 - rho) * l
        if den_odd == 0:
            raise DegenerateRecurrence(f"zero divisor (1-rho)*l at l={l}")
        a[i + 1] = (-rho * a[i + 2] - (i + 3) * a[i + 3]) / den_odd
        den_even = den_odd + 1
        if den_even == 0:
            raise DegenerateRecurrence(f"zero divisor (1-rho)*l + 1 at l={l}")
        a[i] = (a[i + 1] - (i + 2) * a[i + 2]) / den_even
    return tuple(a[i] for i in range(2 * k + 2))


def build_family(k: int, a_top: Fraction | int | str = 1) -> LaurentFamily:
    """Construct the commuting pair for k; a_top scales the whole family."""
    if not isinstance(k, int) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    a_top = Fraction(a_top)
    if a_top == 0:
        raise InvalidInput("a_top must be nonzero")
    t = 2 * k - 1
    a = _coefficients(k, a_top)

    alpha = LaurentDerivation(
        t,
        LaurentBiPoly.y(t),
        LaurentBiPoly.from_laurent(LaurentPoly.term(t, -(2 * k + 1))),
    )
    # z-exponents: x^(1+(1-rho)l) = z^(t-2l), x^((1-rho)l) = z^(-2l)
    bx = [LaurentPoly.zero(t) for _ in range(2 * k + 1)]
    by = [LaurentPoly.zero(t) for _ in range(2 * k + 2)]
    for l in range(k + 1):
        i = 2 * (k - l)
        bx[i] = LaurentPoly.term(t, t - 2 * l, a[i])
        by[i + 1] = LaurentPoly.term(t, -2 * l, a[i + 1])
    beta = LaurentDerivation(t, LaurentBiPoly(t, bx), LaurentBiPoly(t, by))

    family = LaurentFamily(k=k, t=t, a=a, alpha=alpha, beta=beta)
    if not alpha.bracket(beta).is_zero:
        raise DegenerateRecurrence("constructed pair does not commute")
    return family


def first_integral(k: int) -> LaurentBiPoly:
    """r = y^2 + (2k-1) x^(-2/(2k-1)); alpha annihilates it."""
    if not isinstance(k, int) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    t = 2 * k - 1
    return LaurentBiPoly(t, [
        LaurentPoly.term(t, -2, Fraction(2 * k - 1)),
        LaurentPoly.zero(t),
        LaurentPoly.const(t, 1),
    ])


def pm_witness(m: int, k: int, a_top: Fraction | int | str = 1) -> LaurentDerivation:
    """r^((m-(2k+1))/2) * beta: y-degree m, commutes with alpha, d_m != 0."""
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    if not isinstance(k, int) or not 1 <= k <= (m - 1) // 2:
        raise InvalidInput("k must satisfy 1 <= k <= (m-1)/2")
    family = build_family(k, a_top)
    s = (m - (2 * k + 1)) // 2
    scale = first_integral(k) ** s
    return family.beta.scale(scale)


def linear_pair() -> tuple[PlanarDerivation, PlanarDerivation, BiPoly]:
    """The slope-1 companions (y, x), (x, y) and their first integral y^2 - x^2."""
    d1 = PlanarDerivation(BiPoly.y(), BiPoly.x())
    d2 = PlanarDerivation(BiPoly.x(), BiPoly.y())
    r = BiPoly.y_pow(2) - BiPoly.x() * BiPoly.x()
    return d1, d2, r


def pm_witness_linear(m: int) -> PlanarDerivation:
    """(y^2 - x^2)^((m-1)/2) * (x, y): the witness that 1 is a slope root."""
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    _, d2, r = linear_pair()
    return d2.scale(r ** ((m - 1) // 2))
