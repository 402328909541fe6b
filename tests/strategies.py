"""Hypothesis strategies, and the storage invariant of the ring kernel,
shared across the suite."""

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from newtcomm import BiPoly, LaurentPoly, PlanarDerivation, UniPoly

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                         max_denominator=3)


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


def assert_normal_form(p) -> None:
    """p (a UniPoly or LaurentPoly) is stored in its canonical normal form:
    int numerators over one denominator d > 0 in lowest terms, no trailing
    zero (for a Laurent value no leading one either), zero as ((), 1), and
    rebuilding it from its Fraction view gives an equal value."""
    n, d = p._n, p._d
    assert type(d) is int and d > 0, p
    assert all(type(v) is int for v in n), p
    assert gcd(d, *n) == 1, p
    if not n:
        assert d == 1 and p.shift == 0, p
    else:
        assert n[-1] != 0, p
        assert not p._laurent or n[0] != 0, p
    if p._laurent:
        assert LaurentPoly(p.t, {p.shift + i: c for i, c in enumerate(p.coeffs)}) == p
    else:
        assert UniPoly(p.coeffs) == p
