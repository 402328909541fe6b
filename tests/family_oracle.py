"""Per-term reference construction of the Laurent families and witnesses.

This is the construction ``newtcomm.family`` used before it built its values
from integer rows: one ``LaurentPoly`` per term, zero ``LaurentPoly`` values
in the empty y-rows, and ``LaurentBiPoly`` over those.  A witness is
r^s * beta, the power of the first integral taken as the repeated product,
and the slope-1 witness is (y^2 - x^2)^s * (x, y) from ``linear_pair``; the
package reads both off the null vector of the ansatz system instead, so the
tests compare two constructions.  The a_i come from the two-step downward
recurrence the package used before it read them off the ansatz system of
``obstruction``, so a wrong row there shows as a wrong a_i here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from newtcomm.derivations import LaurentDerivation, PlanarDerivation
from newtcomm.family import LaurentFamily
from newtcomm.poly import BiPoly, LaurentBiPoly, LaurentPoly


def _coefficients(k: int, a_top: Fraction) -> tuple[Fraction, ...]:
    """a_0 .. a_{2k+1} by the downward recurrence from a_{2k+1} = a_{2k} = a_top.

    For an integer k >= 1 neither divisor is zero: (1 - rho) * l = -2l/(2k-1)
    for l >= 1, and (1 - rho) * l + 1 = 0 would need 2l = 2k - 1, which
    parity rules out."""
    rho = Fraction(2 * k + 1, 2 * k - 1)
    a: dict[int, Fraction] = {2 * k + 1: a_top, 2 * k: a_top}
    for l in range(1, k + 1):
        i = 2 * (k - l)
        den = (1 - rho) * l
        a[i + 1] = (-rho * a[i + 2] - (i + 3) * a[i + 3]) / den
        a[i] = (a[i + 1] - (i + 2) * a[i + 2]) / (den + 1)
    return tuple(a[i] for i in range(2 * k + 2))


def build_family(k: int, a_top: Fraction | int | str = 1) -> LaurentFamily:
    a_top = Fraction(a_top)
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
    return LaurentFamily(k=k, t=t, a=a, alpha=alpha, beta=beta)


def first_integral(k: int) -> LaurentBiPoly:
    t = 2 * k - 1
    return LaurentBiPoly(t, [
        LaurentPoly.term(t, -2, Fraction(2 * k - 1)),
        LaurentPoly.zero(t),
        LaurentPoly.const(t, 1),
    ])


def pm_witness(m: int, k: int, a_top: Fraction | int | str = 1) -> LaurentDerivation:
    family = build_family(k, a_top)
    s = (m - (2 * k + 1)) // 2
    r = first_integral(k)
    scale = reduce(mul, [r] * s, LaurentBiPoly(r.t, [1]))
    return family.beta.scale(scale)


def linear_pair() -> tuple[PlanarDerivation, PlanarDerivation, BiPoly]:
    """The slope-1 companions (y, x), (x, y) and their first integral y^2 - x^2."""
    d1 = PlanarDerivation(BiPoly.y(), BiPoly.x())
    d2 = PlanarDerivation(BiPoly.x(), BiPoly.y())
    r = BiPoly.y_pow(2) - BiPoly.x() * BiPoly.x()
    return d1, d2, r
