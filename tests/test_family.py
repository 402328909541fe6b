"""Fractional-power commuting pairs and the odd-degree witnesses."""

from fractions import Fraction

import pytest

from newtcomm import (
    DegenerateRecurrence,
    InvalidInput,
    LaurentPoly,
    build_family,
    first_integral,
    linear_pair,
    parse_bipoly,
    pm_witness,
    pm_witness_linear,
)

# a_0 .. a_{2k+1} produced by the downward two-term recurrence, frozen
# after an independent hand computation for k = 1 and spot checks of the
# ratio identity for the rest.
FROZEN_A = {
    1: (-1, 3, 1, 1),
    2: (-27, 45, 18, 10, 1, 1),
    3: (-625, 875, 375, 175, 25, 21, 1, 1),
    4: (
        -16807,
        21609,
        9604,
        4116,
        686,
        Fraction(2646, 5),
        Fraction(196, 5),
        36,
        1,
        1,
    ),
    5: (
        -531441,
        649539,
        295245,
        120285,
        21870,
        16038,
        1458,
        Fraction(8910, 7),
        Fraction(405, 7),
        55,
        1,
        1,
    ),
}


class TestBuildFamily:
    def test_frozen_coefficient_vectors(self):
        for k, want in FROZEN_A.items():
            fam = build_family(k)
            assert fam.a == tuple(Fraction(v) for v in want), k
            assert fam.t == 2 * k - 1
            assert fam.rho == Fraction(2 * k + 1, 2 * k - 1)

    def test_a_top_scales_linearly(self):
        base = build_family(2).a
        scaled = build_family(2, Fraction(7, 3)).a
        assert scaled == tuple(Fraction(7, 3) * v for v in base)
        assert scaled[0] == Fraction(-63)

    def test_alpha_shape(self):
        fam = build_family(2)
        t = fam.t
        assert fam.alpha.act_x.ycoeff(1) == LaurentPoly.const(t, 1)
        # alpha(y) = x^(-rho) carried as z^(-(2k+1))
        assert fam.alpha.act_y.ycoeff(0) == LaurentPoly.term(t, -(2 * 2 + 1))

    def test_bracket_vanishes(self):
        for k in (1, 2, 3, 4, 5):
            fam = build_family(k)
            assert fam.alpha.commutes_with(fam.beta), k

    def test_alpha_annihilates_first_integral(self):
        for k in (1, 2, 3):
            fam = build_family(k)
            assert fam.alpha.apply(first_integral(k)).is_zero

    def test_ratio_identity(self):
        for k in (1, 2, 3, 4, 5):
            assert build_family(k).ratio_identity_holds()

    def test_k1_worked_example(self):
        fam = build_family(1)
        assert fam.beta.act_x.to_text() == "x*y^2 - x^(-1)"
        assert fam.beta.act_y.to_text() == "y^3 + 3*x^(-2)*y"

    def test_beta_y_parities(self):
        # beta(x) holds only even powers of y, beta(y) only odd powers
        fam = build_family(3)
        for i, c in enumerate(fam.beta.act_x.ycoeffs):
            assert c.is_zero or i % 2 == 0
        for i, c in enumerate(fam.beta.act_y.ycoeffs):
            assert c.is_zero or i % 2 == 1

    def test_guards(self):
        with pytest.raises(InvalidInput):
            build_family(0)
        with pytest.raises(InvalidInput):
            build_family(-2)
        with pytest.raises(InvalidInput):
            build_family(1, 0)


class TestFirstIntegral:
    def test_value(self):
        r = first_integral(2)
        t = 3
        assert r.ycoeff(2) == LaurentPoly.const(t, 1)
        assert r.ycoeff(0) == LaurentPoly.term(t, -2, 3)

    def test_beta_moves_along_the_levels_of_r(self):
        # alpha annihilates r; beta sends r to 2 r^2, so the pair preserves
        # the level-set foliation of the first integral.
        fam = build_family(1)
        r = first_integral(1)
        assert fam.alpha.apply(r).is_zero
        assert fam.beta.apply(r) == r * r * 2


class TestWitnesses:
    def test_w33_is_beta(self):
        fam = build_family(1)
        w = pm_witness(3, 1)
        assert w.act_x == fam.beta.act_x
        assert w.act_y == fam.beta.act_y

    def test_witness_commutes_and_has_full_y_degree(self):
        for m in (3, 5, 7, 9, 11):
            for k in range(1, (m - 1) // 2 + 1):
                w = pm_witness(m, k)
                fam = build_family(k)
                assert fam.alpha.commutes_with(w), (m, k)
                assert w.act_y.y_degree == m
                assert not w.act_y.ycoeff(m).is_zero

    def test_witness_guards(self):
        with pytest.raises(InvalidInput):
            pm_witness(4, 1)  # even m
        with pytest.raises(InvalidInput):
            pm_witness(3, 2)  # k too large
        with pytest.raises(InvalidInput):
            pm_witness(1, 1)  # m too small

    def test_linear_pair(self):
        d1, d2, r = linear_pair()
        assert d1.act_x == parse_bipoly("y") and d1.act_y == parse_bipoly("x")
        assert d2.act_x == parse_bipoly("x") and d2.act_y == parse_bipoly("y")
        assert r == parse_bipoly("y^2 - x^2")
        assert d1.commutes_with(d2)
        assert d1.apply(r).is_zero

    def test_linear_witness(self):
        d1, _, _ = linear_pair()
        for m in (3, 5, 7):
            w = pm_witness_linear(m)
            assert d1.commutes_with(w)
            assert w.act_y.y_degree == m
            assert not w.act_y.ycoeff(m).is_zero
        with pytest.raises(InvalidInput):
            pm_witness_linear(2)

    def test_linear_witness_text(self):
        assert str(pm_witness_linear(7)) == (
            "(x -> x*y^6 - 3*x^3*y^4 + 3*x^5*y^2 - x^7, "
            "y -> y^7 - 3*x^2*y^5 + 3*x^4*y^3 - x^6*y)")
