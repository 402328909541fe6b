"""Hypothesis strategies, and the storage invariant of the ring kernel,
shared across the suite."""

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from newtcomm import (BiPoly, LaurentBiPoly, LaurentDerivation, LaurentPoly, PlanarDerivation,
                      UniPoly)

# The 33 values of st.fractions(-4, 4, max_denominator=3), which builds
# each example far more slowly.  sampled_from shrinks toward the front of
# its list, so the list is ordered by |q|, then q: shrinking heads to 0.
RATIONAL_VALUES = tuple(map(Fraction, """
    0 -1/3 1/3 -1/2 1/2 -2/3 2/3 -1 1 -4/3 4/3 -3/2 3/2 -5/3 5/3 -2 2
    -7/3 7/3 -5/2 5/2 -8/3 8/3 -3 3 -10/3 10/3 -7/2 7/2 -11/3 11/3 -4 4
""".split()))
rationals = st.sampled_from(RATIONAL_VALUES)

# The 13 values of st.fractions(-3, 3, max_denominator=2), the entries of
# the linsolve matrices, in the same (|q|, q) order.
HALF_VALUES = tuple(map(Fraction, "0 -1/2 1/2 -1 1 -3/2 3/2 -2 2 -5/2 5/2 -3 3".split()))


def unipolys(max_deg: int = 4):
    return st.lists(rationals, min_size=0, max_size=max_deg + 1).map(UniPoly)


def bipolys(max_ydeg: int = 3, max_xdeg: int = 3):
    return st.lists(unipolys(max_xdeg), min_size=0,
                    max_size=max_ydeg + 1).map(BiPoly)


def laurentpolys(t: int = 2, span: int = 5):
    return st.dictionaries(st.integers(-span, span), rationals,
                           max_size=4).map(lambda d: LaurentPoly(t, d))


def derivations(max_ydeg: int = 2, max_xdeg: int = 2):
    return st.builds(PlanarDerivation, bipolys(max_ydeg, max_xdeg),
                     bipolys(max_ydeg, max_xdeg))


def laurentbipolys(t: int = 2, max_ydeg: int = 3, span: int = 5):
    return st.lists(laurentpolys(t, span), max_size=max_ydeg + 1).map(
        lambda cs: LaurentBiPoly(t, cs))


def laurentderivations(t: int = 2, max_ydeg: int = 2, span: int = 3):
    """Derivations of Q[x^(1/t), x^(-1/t), y], z-exponents down to -span."""
    return st.builds(lambda ax, ay: LaurentDerivation(t, ax, ay),
                     laurentbipolys(t, max_ydeg, span), laurentbipolys(t, max_ydeg, span))


def assert_normal_form(p) -> None:
    """p is stored in its ring's canonical normal form: y-rows (z-shift,
    int numerators) over one denominator d > 0, in lowest terms across all
    rows; in every ring each row trimmed (no leading and no trailing zero
    numerator, so its shift is its lowest z-exponent, never negative in
    Q[x]; an empty row as (0, ())), no trailing empty row, at most one row
    for a y-free value, and zero as ((), 1).  Rebuilding p from its Fraction view (a bivariate value from
    its ycoeffs, each in normal form itself) gives an equal value."""
    rows, d = p._rows, p._d
    nums = [n for _, ns in rows for n in ns]
    assert type(rows) is tuple and type(d) is int and d > 0, p
    assert all(type(v) is int for v in nums), p
    assert gcd(d, *nums) == 1, p
    assert not rows or rows[-1][1], p
    if not rows:
        assert d == 1, p
    for s, ns in rows:
        assert type(s) is int and type(ns) is tuple, p
        if not ns:
            assert s == 0, p
        else:
            assert ns[0] != 0 and ns[-1] != 0, p
            assert p._laurent or s >= 0, p
    if isinstance(p, BiPoly):
        for c in p.ycoeffs:
            assert_normal_form(c)
        rebuilt = LaurentBiPoly(p.t, p.ycoeffs) if p._laurent else BiPoly(p.ycoeffs)
    else:
        assert len(rows) <= 1, p
        rebuilt = (LaurentPoly(p.t, {p.shift + i: c for i, c in enumerate(p.coeffs)})
                   if p._laurent else UniPoly(p.coeffs))
    assert rebuilt == p, p
