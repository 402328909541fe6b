"""Divisor-candidate reference for exact rational root finding.

Denominators are cleared and powers of x stripped (contributing the root
0).  By the rational root theorem every other rational root is +-num/den
with num dividing the constant term and den dividing the leading
coefficient, so the oracle trial-divides both up to their square roots
and checks every candidate by the exact integer form
sum a_i * num^i * den^(n-i) == 0 over the cleared coefficients a_i.  It
shares no logic with the package's p-adic lifting, so the tests compare
the two.  Its cost grows with the square root of the constant term: keep
inputs small.
"""

from __future__ import annotations

import math
from fractions import Fraction

from newtcomm.poly import UniPoly


def divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def vanishes_at(ints: list[int], num: int, den: int) -> bool:
    """Whether sum ints[i] * num^i * den^(n-i) is 0 (n = len(ints) - 1),
    i.e. whether the polynomial with coefficients ints vanishes at num/den."""
    acc, scale = 0, 1
    for a in reversed(ints):
        acc = acc * num + a * scale
        scale *= den
    return acc == 0


def divisor_oracle(p: UniPoly) -> frozenset[Fraction]:
    """All rational roots of the nonzero polynomial p."""
    coeffs = list(p.coeffs)
    roots = set()
    v = 0
    while coeffs[v] == 0:
        v += 1
    if v:
        roots.add(Fraction(0))
        coeffs = coeffs[v:]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    for num in divisors(ints[0]):
        for d in divisors(ints[-1]):
            if math.gcd(num, d) != 1:
                continue  # not in lowest terms: same fraction seen already
            for n in (num, -num):
                if vanishes_at(ints, n, d):
                    roots.add(Fraction(n, d))
    return frozenset(roots)
