"""Schoolbook product reference for the ring kernel.

A value of any ring is read as a dict {(y-exponent, z-exponent): coefficient}
of its nonzero terms (z = x^(1/t); the y-exponent is 0 for a univariate
value), and two dicts are multiplied term by term with ``Fraction``
arithmetic.  It shares no logic with the package's integer product kernel,
so the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from newtcomm.poly import BiPoly


def terms(p) -> dict[tuple[int, int], Fraction]:
    """The nonzero terms of a UniPoly or BiPoly value (Laurent ones too)."""
    rows = p.ycoeffs if isinstance(p, BiPoly) else (p,)
    return {(y, z): c for y, row in enumerate(rows) for z, c in row.terms.items()}


def product(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int], Fraction] = {}
    for (ya, za), ca in a.items():
        for (yb, zb), cb in b.items():
            key = (ya + yb, za + zb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def power(a: dict, n: int) -> dict:
    """The n-fold product of a (n >= 0), or of the inverse of the single
    term of a when n < 0."""
    if n < 0:
        ((y, z), c), = a.items()
        assert y == 0, "only y-free monomials have inverses"
        a, n = {(0, -z): 1 / c}, -n
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = product(out, a)
    return out
