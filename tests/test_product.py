"""The ring product against a schoolbook reference, in every ring.

The ring-axiom tests compare `*` only with itself; these compare it, and
`**`, with `product_oracle`, over Q[x], Q[x,y] and the Laurent rings with
t = 2 and 3: zero y-rows, negative shifts, one-coefficient operands and
coefficients with large coprime denominators included.  Values of one
nonzero term, which `**` raises by its own rule, and of two, get their
own strategies.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtcomm import BiPoly, InvalidInput, LaurentBiPoly, LaurentPoly, UniPoly

from product_oracle import power, product, terms
from strategies import assert_normal_form, rationals

HUGE = (Fraction(10**40, 7), Fraction(-7, 10**40 + 1), Fraction(3**50, 2**61 - 1))
coefficients = rationals | st.sampled_from(HUGE)

# (name, t, with_y, lowest z-exponent)
RINGS = [("Q[x]", 1, False, 0), ("Q[x,y]", 1, True, 0)] + [
    (f"{name}, t={t}", t, with_y, -5)
    for t in (2, 3) for name, with_y in (("Laurent", False), ("Laurent y", True))]


def build(ring, d: dict):
    """The value of the ring with the terms {(y, z): c}."""
    _, t, with_y, zlo = ring
    rows = [{z: c for (y, z), c in d.items() if y == i}
            for i in range(max((y for y, _ in d), default=-1) + 1)]
    if zlo == 0:
        uni = [UniPoly.from_dict(r) for r in rows]
        return BiPoly(uni) if with_y else (uni[0] if uni else UniPoly())
    uni = [LaurentPoly(t, r) for r in rows]
    return LaurentBiPoly(t, uni) if with_y else (uni[0] if uni else LaurentPoly.zero(t))


@st.composite
def values(draw, ring, max_size: int = 6):
    """A value of the ring: zero, dense, with gaps (zero y-rows), one term,
    or one y-row (one coefficient in y)."""
    _, _, with_y, zlo = ring
    ys = st.integers(0, 3 if with_y else 0)
    zs = st.integers(zlo, 5)
    shape = draw(st.sampled_from(("any", "one term", "one row")))
    if shape == "one row":
        ys = st.just(0)
    size = 1 if shape == "one term" else max_size
    d = draw(st.dictionaries(st.tuples(ys, zs), coefficients, max_size=size))
    return build(ring, d)


@st.composite
def binomials(draw, ring):
    """A value of the ring with exactly two nonzero terms, both in one y-row
    or (with y) in two y-rows."""
    _, _, with_y, zlo = ring
    ys, zs = st.integers(0, 3 if with_y else 0), st.integers(zlo, 5)
    if with_y and draw(st.booleans()):
        keys = [(y, draw(zs)) for y in draw(st.lists(ys, min_size=2, max_size=2, unique=True))]
    else:
        y = draw(ys)
        keys = [(y, z) for z in draw(st.lists(zs, min_size=2, max_size=2, unique=True))]
    return build(ring, {key: draw(coefficients.filter(bool)) for key in keys})


def ring_pairs():
    return st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), values(ring), values(ring)))


@given(ring_pairs())
def test_product_matches_schoolbook(case):
    ring, a, b = case
    ab = a * b
    assert type(ab) is type(a) and ab.t == ring[1]
    assert terms(ab) == product(terms(a), terms(b))
    assert ab == build(ring, product(terms(a), terms(b)))


@given(st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(values(ring, max_size=4), st.integers(0, 4))))
def test_power_is_the_repeated_product(case):
    p, n = case
    assert terms(p ** n) == power(terms(p), n)
    assert p ** n == reduce(mul, [p] * n, p ** 0)


@given(st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(values(ring, max_size=1), st.integers(0, 9))))
def test_power_of_one_term(case):
    p, n = case
    pn, repeated = p ** n, reduce(mul, [p] * n, p ** 0)
    assert terms(pn) == power(terms(p), n)
    assert pn == repeated and pn._rows == repeated._rows and pn._d == repeated._d


@given(st.sampled_from([r for r in RINGS if r[3] < 0]).flatmap(
    lambda ring: st.tuples(st.just(ring), st.integers(-5, 5),
                           coefficients.filter(bool), st.integers(1, 5))))
def test_negative_power_of_laurent_monomial(case):
    ring, z, c, n = case
    p = build(ring, {(0, z): c})
    assert terms(p ** -n) == power(terms(p), -n)
    assert p ** -n * p ** n == build(ring, {(0, 0): Fraction(1)})


@given(st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(st.just(ring), binomials(ring), st.integers(0, 12))))
def test_power_of_two_terms(case):
    ring, p, n = case
    assert len(terms(p)) == 2
    pn = p ** n
    assert_normal_form(pn)
    assert type(pn) is type(p) and pn.t == ring[1]
    assert terms(pn) == power(terms(p), n)
    repeated = reduce(mul, [p] * n, p ** 0)
    assert pn == repeated and pn._rows == repeated._rows and pn._d == repeated._d


@given(st.sampled_from([r for r in RINGS if r[3] < 0]).flatmap(
    lambda ring: st.tuples(binomials(ring), st.integers(-5, -1))))
def test_negative_power_of_two_terms_raises(case):
    p, n = case
    with pytest.raises(InvalidInput, match="negative powers only of monomials"):
        p ** n


def test_power_rules_keep_their_values():
    """Pinned results of the one-term rule and of two-term values, which
    take the general path of repeated squaring."""
    m = LaurentBiPoly(3, [0, 0, LaurentPoly.term(3, -1, Fraction(3, 2))])  # 3/2 z^-1 y^2
    assert (m ** 3)._rows == ((0, ()),) * 6 + ((-3, (27,)),) and (m ** 3)._d == 8
    assert LaurentPoly.term(2, 3, Fraction(-2, 5)) ** -2 == LaurentPoly.term(2, -6, Fraction(25, 4))
    r = LaurentBiPoly(3, [LaurentPoly.term(3, -2, 3), 0, 1])  # y^2 + 3 z^-2
    assert str(r ** 3) == "y^6 + 9*x^(-2/3)*y^4 + 27*x^(-4/3)*y^2 + 27*x^(-2)"
    assert str(UniPoly([1, Fraction(1, 2)]) ** 4) == "1/16*x^4 + 1/2*x^3 + 3/2*x^2 + 2*x + 1"
    assert str((BiPoly.y_pow(2) - BiPoly.monomial(2, 0)) ** 2) == "y^4 - 2*x^2*y^2 + x^4"


@pytest.mark.parametrize("n, products", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (13, 5)])
def test_power_makes_one_product_per_step(monkeypatch, n, products):
    """Left-to-right binary powering: one squaring per bit below the top
    one and one product per 1 bit, nothing for an unused next square.  A
    value of two terms takes the same path as one of three."""
    hs = (BiPoly.y_pow(2) - BiPoly.monomial(4, 0, Fraction(1, 2)) - BiPoly.monomial(2, 0, 2),
          BiPoly.y_pow(2) - BiPoly.monomial(2, 0))
    expected = [reduce(mul, [h] * n) for h in hs]
    calls = []
    real = BiPoly.__mul__

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counting)
    for h, want in zip(hs, expected):
        calls.clear()
        assert h ** n == want
        assert len(calls) == products, str(h)
