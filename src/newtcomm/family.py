"""Commuting pairs on rings with fractional x-powers, and slope-root witnesses.

For each k >= 1 the pair lives on K[x^(1/(2k-1)), x^(-1/(2k-1)), y]:

    alpha = (y, x^(-rho)),   rho = (2k+1)/(2k-1),
    beta(x) = sum_l a_{2(k-l)} * x^(1+(1-rho)l) * y^(2(k-l)),   l = 0..k,
    beta(y) = sum_l a_{2(k-l)+1} * x^((1-rho)l) * y^(2(k-l)+1),

with a_{2k+1}, ..., a_0 the null vector of ``obstruction.ansatz_rows`` at X = -rho.
The pair commutes exactly, alpha annihilates r = y^2 + (2k-1)x^(-2/(2k-1)),
and r^s * beta supplies, for each odd m >= 2k+1, a symmetry of y-degree m
whose slope is -rho — certifying -rho as a root of the level-m obstruction
polynomial.  The slope-1 witnesses use the polynomial pair (y, x), (x, y)
with r = y^2 - x^2 instead.

Every value is written directly in the kernel's storage form (``poly``):
alpha, r and each y-row of beta are one term, and beta(x), beta(y) are
integer rows over the lcm of the denominators of the a_i.  r^s, a value
with two terms, is expanded by the binomial theorem inside ``**``.  The
bracket [alpha, beta] is still computed and checked on every build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

from .derivations import LaurentDerivation, PlanarDerivation
from .errors import DegenerateRecurrence, InvalidInput
from .obstruction import ansatz_rows
from .poly import _EMPTY, BiPoly, LaurentBiPoly, _clear, _exact


@dataclass(frozen=True)
class LaurentFamily:
    k: int
    t: int
    a: tuple[Fraction, ...]  # a_0 .. a_{2k+1}
    alpha: PlanarDerivation
    beta: PlanarDerivation

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
    """a_0 .. a_{2k+1} = u_m .. u_0, the null vector of ansatz_rows(m = 2k+1) at X = -m/t,
    from u_0 = a_top: row i fixes u_{i+1}.  Times t, an entry (e0, e1) is e0 t - e1 m, and
    no super entry used is 0: t - 2l is odd in the x rows, and -2l has l >= 1 in the y rows."""
    t, m = 2 * k - 1, 2 * k + 1
    u = [0, a_top]  # u_{-1}, u_0
    for (s0, s1), (d0, d1), (p0, p1) in ansatz_rows(m)[:-1]:
        u.append(-((s0 * t - s1 * m) * u[-2] + (d0 * t - d1 * m) * u[-1]) / (p0 * t - p1 * m))
    return tuple(reversed(u[1:]))


def build_family(k: int, a_top: Fraction | int | str = 1) -> LaurentFamily:
    """Construct the commuting pair for k; a_top scales the whole family."""
    if not isinstance(k, int) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    if isinstance(a_top, float) and not isfinite(a_top):
        raise InvalidInput(f"a_top must be finite, not {a_top}")
    a_top = Fraction(_exact(a_top) if isinstance(a_top, str) else a_top)
    if a_top == 0:
        raise InvalidInput("a_top must be nonzero")
    t = 2 * k - 1
    a = _coefficients(k, a_top)

    alpha = LaurentDerivation(t, LaurentBiPoly.y(t),
                              LaurentBiPoly._make(t, [(-(2 * k + 1), [1])]))
    # beta over the lcm of the a_i, one term per y-row: a_i * x^(1+(1-rho)l)
    # = a_i * z^(t-2l) = a_i * z^(i-1) at even i = 2(k-l) in beta(x), and
    # a_i * x^((1-rho)l) = a_i * z^(-2l) = a_i * z^(i-t-2) at odd i in beta(y)
    nums, den = _clear(list(a))
    bx = [_EMPTY if i % 2 else (i - 1, [n]) for i, n in enumerate(nums[:-1])]
    by = [(i - t - 2, [n]) if i % 2 else _EMPTY for i, n in enumerate(nums)]
    beta = LaurentDerivation(t, LaurentBiPoly._make(t, bx, den), LaurentBiPoly._make(t, by, den))

    family = LaurentFamily(k=k, t=t, a=a, alpha=alpha, beta=beta)
    if not alpha.bracket(beta).is_zero:
        raise DegenerateRecurrence("constructed pair does not commute")
    return family


def first_integral(k: int) -> LaurentBiPoly:
    """r = y^2 + (2k-1) x^(-2/(2k-1)); alpha annihilates it."""
    if not isinstance(k, int) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    t = 2 * k - 1
    return LaurentBiPoly._make(t, [(-2, [t]), _EMPTY, (0, [1])])


def pm_witness(m: int, k: int, a_top: Fraction | int | str = 1) -> PlanarDerivation:
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
