"""Commuting pairs on rings with fractional x-powers, and slope-root witnesses.

For each k >= 1 the pair lives on K[x^(1/(2k-1)), x^(-1/(2k-1)), y]:

    alpha = (y, x^(-rho)),   rho = (2k+1)/(2k-1),
    beta(x) = sum_l a_{2(k-l)} * x^(1+(1-rho)l) * y^(2(k-l)),   l = 0..k,
    beta(y) = sum_l a_{2(k-l)+1} * x^((1-rho)l) * y^(2(k-l)+1).

The pair commutes exactly, and alpha annihilates r = y^2 + (2k-1)x^(-2/(2k-1)).

Every witness is the null vector of the weight piece at a = 1 (its rows in
the ``obstruction`` docstring) at a root X of P_m, its top unknown a_top,
read into the ansatz of y-degree m (``_witness``): beta at m = 2k+1 and
X = -rho, ``pm_witness(m, k)`` at X = -rho for odd m >= 2k+1, and
``pm_witness_linear(m)`` at X = 1 in Q[x, y].
``obstruction.substitute`` finds it, row i fixing u_{i+1}.  At X = -rho_k
the super entries are (2k-1-2l)/(2k-1) in the x rows and -2(l+1)/(2k-1) in
the y rows; at X = 1 they are 1+2l and 2(l+1).  None is 0, so u_0 fixes
the rest and the null space has dimension at most 1; an X that zeroes one
is refused.  r^((m-2k-1)/2) * beta, like (y^2-x^2)^((m-1)/2) * (x, y),
commutes with the same field, lies in that ansatz and has the same top
coefficient, so it is that null vector; no power of r is formed.

Values are written in the kernel's storage form (``poly``): each y-row of
a witness is one term, all over one denominator, scaled on integers.  The
bracket [alpha, beta] is checked on every build of the family.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, isfinite, lcm
from operator import mul
from typing import NamedTuple

from .derivations import LaurentDerivation, PlanarDerivation
from .errors import DegenerateRecurrence, InvalidInput, is_int
from .obstruction import substitute
from .poly import _EMPTY, BiPoly, LaurentBiPoly, _exact


class LaurentFamily(NamedTuple):
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


def _a_top(a_top) -> Fraction:
    """a_top as a nonzero Fraction; rational text is parsed, a float must be finite."""
    if isinstance(a_top, float) and not isfinite(a_top):
        raise InvalidInput(f"a_top must be finite, not {a_top}")
    a_top = Fraction(_exact(a_top) if isinstance(a_top, str) else a_top)
    if a_top == 0:
        raise InvalidInput("a_top must be nonzero")
    return a_top


def _witness(m: int, X: Fraction, a_top: Fraction, cls) -> PlanarDerivation:
    """The symmetry of (y, x^X) in the ansatz of y-degree m with u_0 = a_top, over cls
    with t = den(X): u_i = a_top v_i / (super_0 ... super_{i-1}) of substitute, or
    DegenerateRecurrence.  u_i is one term of y-row m - i, of gamma(x) at odd i and
    of gamma(y) at even i, at z^(t (i mod 2) + (t+p) floor(i/2)).  Each u_i is reduced
    by one gcd, over the lcm of those denominators, as Fraction and _clear give it;
    den // d moves the sign of a negative d (a product of super entries at X = -rho)."""
    p, t = X.numerator, X.denominator
    if (solved := substitute(m, 1, p, t)) is None:
        raise DegenerateRecurrence(f"the ansatz of y-degree {m} has a zero super entry at X = {X}")
    v, sups = solved
    if v.pop():
        raise DegenerateRecurrence(f"X = {X} is not a root: the ansatz of y-degree {m} "
                                   "does not close")
    a, b, lowest = a_top.numerator, a_top.denominator, []
    for vi, pi in zip(v, accumulate(sups, mul, initial=1)):
        n, d = a * vi, b * pi
        g = gcd(n, d)
        lowest.append((n // g, d // g))
    den = lcm(*[d for _, d in lowest])
    nums = [n * (den // d) for n, d in lowest]
    gx, gy = [_EMPTY] * m, [_EMPTY] * (m + 1)
    for i, n in enumerate(nums):
        (gx if i % 2 else gy)[m - i] = (t * (i % 2) + (t + p) * (i // 2), [n])
    return PlanarDerivation(cls._make(t, gx, den), cls._make(t, gy, den))


def build_family(k: int, a_top: Fraction | int | str = 1) -> LaurentFamily:
    """Construct the commuting pair for k; a_top scales the whole family."""
    if not is_int(k) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    t = 2 * k - 1
    beta = _witness(2 * k + 1, Fraction(-(2 * k + 1), t), _a_top(a_top), LaurentBiPoly)
    a = tuple((beta.act_y if i % 2 else beta.act_x).ycoeff(i).lc() for i in range(2 * k + 2))
    alpha = LaurentDerivation(t, LaurentBiPoly.y(t),
                              LaurentBiPoly._make(t, [(-(2 * k + 1), [1])]))
    if not alpha.bracket(beta).is_zero:
        raise DegenerateRecurrence("constructed pair does not commute")
    return LaurentFamily(k=k, t=t, a=a, alpha=alpha, beta=beta)


def first_integral(k: int) -> LaurentBiPoly:
    """r = y^2 + (2k-1) x^(-2/(2k-1)); alpha annihilates it."""
    if not is_int(k) or k < 1:
        raise InvalidInput("k must be an integer >= 1")
    t = 2 * k - 1
    return LaurentBiPoly._make(t, [(-2, [t]), _EMPTY, (0, [1])])


def pm_witness(m: int, k: int, a_top: Fraction | int | str = 1) -> PlanarDerivation:
    """r^((m-(2k+1))/2) * beta: y-degree m, commutes with alpha, d_m != 0."""
    if not is_int(m) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    if not is_int(k) or not 1 <= k <= (m - 1) // 2:
        raise InvalidInput("k must satisfy 1 <= k <= (m-1)/2")
    return _witness(m, Fraction(-(2 * k + 1), 2 * k - 1), _a_top(a_top), LaurentBiPoly)


def pm_witness_linear(m: int) -> PlanarDerivation:
    """(y^2 - x^2)^((m-1)/2) * (x, y): the witness that 1 is a slope root."""
    if not is_int(m) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    return _witness(m, Fraction(1), Fraction(1), BiPoly)
