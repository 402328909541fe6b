"""Per-term reference construction of the Laurent families and witnesses.

This is the construction ``newtcomm.family`` used before it built its values
from integer rows: one ``LaurentPoly`` per term, zero ``LaurentPoly`` values
in the empty y-rows, and ``LaurentBiPoly`` over those.  The power of the
first integral is the repeated product, so it shares neither the row
construction nor the binomial rule of ``**`` with the package; the tests
compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from newtcomm.derivations import LaurentDerivation
from newtcomm.family import LaurentFamily, _coefficients
from newtcomm.poly import LaurentBiPoly, LaurentPoly


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
