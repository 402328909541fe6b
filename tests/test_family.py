"""Fractional-power commuting pairs and the odd-degree witnesses."""

from fractions import Fraction

import pytest

from newtcomm import (
    DegenerateRecurrence,
    InvalidInput,
    LaurentBiPoly,
    LaurentDerivation,
    LaurentPoly,
    build_family,
    first_integral,
    parse_bipoly,
    pm_witness,
    pm_witness_linear,
)

import family_oracle

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
            assert fam.alpha.bracket(fam.beta).is_zero, k

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

    def test_bracket_is_checked(self, monkeypatch):
        """A null vector that goes wrong is caught by the bracket, not built."""
        from newtcomm import family
        good = family._witness

        def plus_y_beta(m, X, a_top, cls):
            beta = good(m, X, a_top, cls)
            return beta + beta.scale(LaurentBiPoly.y(beta.t))
        monkeypatch.setattr(family, "_witness", plus_y_beta)
        with pytest.raises(DegenerateRecurrence, match="does not commute"):
            build_family(2)

    def test_guards(self):
        with pytest.raises(InvalidInput):
            build_family(0)
        with pytest.raises(InvalidInput):
            build_family(-2)
        with pytest.raises(InvalidInput):
            build_family(1, 0)

    def test_bad_a_top_text_is_invalid_input(self):
        """a_top may be rational text; text that is not a rational number is
        bad input.  A value Fraction reads, such as a float, still scales."""
        assert build_family(2, " 7/3 ").a == build_family(2, Fraction(7, 3)).a
        assert build_family(1, 1.5).a == build_family(1, Fraction(3, 2)).a
        for bad in ("1/0", "abc", ""):
            with pytest.raises(InvalidInput, match="not a rational number"):
                build_family(1, bad)
        with pytest.raises(InvalidInput, match="not a rational number"):
            pm_witness(3, 1, "abc")

    def test_non_finite_float_a_top_is_invalid_input(self):
        """A float a_top scales only if it is finite; nan and inf are bad input."""
        assert build_family(1, -0.25).a == build_family(1, Fraction(-1, 4)).a
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidInput, match="a_top must be finite"):
                build_family(1, bad)
        with pytest.raises(InvalidInput, match="a_top must be finite"):
            pm_witness(3, 1, float("nan"))


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
                assert fam.alpha.bracket(w).is_zero, (m, k)
                assert w.act_y.y_degree == m
                assert not w.act_y.ycoeff(m).is_zero

    def test_witness_guards(self):
        with pytest.raises(InvalidInput):
            pm_witness(4, 1)  # even m
        with pytest.raises(InvalidInput):
            pm_witness(3, 2)  # k too large
        with pytest.raises(InvalidInput):
            pm_witness(1, 1)  # m too small

    @pytest.mark.parametrize("m, X", [(3, Fraction(-5)), (5, Fraction(-7, 5))],
                             ids=["m3-X=-5", "m5-X=-7/5"])
    def test_a_wrong_root_is_refused(self, monkeypatch, m, X):
        """-5 is no root of P_3, and -(j+2)/j = -7/5 at j = 5 is no root of P_5
        (it is -rho_3, a root from m = 7 on): the ansatz does not close.  With
        its closing row zeroed, the substitution builds a field at X, and that
        field does not commute with (y, x^X); at the root -3 it is still the
        oracle's witness."""
        from newtcomm import family
        with pytest.raises(DegenerateRecurrence, match="not a root"):
            family._witness(m, X, Fraction(1), LaurentBiPoly)
        real = family.substitute

        def closed(m, a, p, t=1):  # the closing row zeroed: its value and super entry are 0
            v, sups = real(m, a, p, t)
            return v[:-1] + [0], sups[:-1] + [0]

        monkeypatch.setattr(family, "substitute", closed)
        assert (family._witness(m, Fraction(-3), Fraction(1), LaurentBiPoly)
                == family_oracle.pm_witness(m, 1))
        t = X.denominator
        d = LaurentDerivation(t, LaurentBiPoly.y(t),
                              LaurentBiPoly.from_laurent(LaurentPoly.term(t, X.numerator)))
        assert not d.bracket(family._witness(m, X, Fraction(1), LaurentBiPoly)).is_zero

    def test_a_zero_super_entry_is_refused(self):
        """-2 = -(j+1)/j at j = 1 zeroes the super entry of row x_1 of the
        ansatz of y-degree 4: substitution cannot fix u_3, and _witness names
        that instead of dividing by the zero product of super entries."""
        from newtcomm import family
        with pytest.raises(DegenerateRecurrence, match=r"^the ansatz of y-degree 4 has a "
                                                       r"zero super entry at X = -2$"):
            family._witness(4, Fraction(-2), Fraction(1), LaurentBiPoly)

    def test_linear_pair(self):
        d1, d2, r = family_oracle.linear_pair()
        assert d1.act_x == parse_bipoly("y") and d1.act_y == parse_bipoly("x")
        assert d2.act_x == parse_bipoly("x") and d2.act_y == parse_bipoly("y")
        assert r == parse_bipoly("y^2 - x^2")
        assert d1.bracket(d2).is_zero
        assert d1.apply(r).is_zero

    def test_linear_witness(self):
        d1, _, _ = family_oracle.linear_pair()
        for m in (3, 5, 7):
            w = pm_witness_linear(m)
            assert d1.bracket(w).is_zero
            assert w.act_y.y_degree == m
            assert not w.act_y.ycoeff(m).is_zero
        with pytest.raises(InvalidInput):
            pm_witness_linear(2)

    def test_linear_witness_text(self):
        assert str(pm_witness_linear(7)) == (
            "(x -> x*y^6 - 3*x^3*y^4 + 3*x^5*y^2 - x^7, "
            "y -> y^7 - 3*x^2*y^5 + 3*x^4*y^3 - x^6*y)")


A_TOPS = (1, -2, Fraction(7, 3), Fraction(-9, 8))


def assert_same_value(p, q):
    """Equal in every observable way: class, ring, stored form, text, hash."""
    assert type(p) is type(q) and p.t == q.t
    assert p == q and p._rows == q._rows and p._d == q._d
    assert str(p) == str(q) and hash(p) == hash(q)


def assert_same_derivation(d, e):
    assert type(d) is type(e)
    assert_same_value(d.act_x, e.act_x)
    assert_same_value(d.act_y, e.act_y)


class TestAgainstPerTermOracle:
    """The row-built values against the per-term construction (family_oracle)."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_family_and_first_integral(self, k):
        assert_same_value(first_integral(k), family_oracle.first_integral(k))
        for a_top in A_TOPS:
            fam, ref = build_family(k, a_top), family_oracle.build_family(k, a_top)
            assert fam.a == ref.a and fam.t == ref.t
            assert_same_derivation(fam.alpha, ref.alpha)
            assert_same_derivation(fam.beta, ref.beta)

    @pytest.mark.parametrize("m", range(3, 42, 2))
    def test_witnesses(self, m):
        for k in range(1, (m - 1) // 2 + 1):
            for a_top in A_TOPS:
                assert_same_derivation(pm_witness(m, k, a_top),
                                       family_oracle.pm_witness(m, k, a_top))

    @pytest.mark.parametrize("a_top", [Fraction(-45, 14), "1001/1024", -3])
    @pytest.mark.parametrize("m", [3, 5, 9, 15, 21])
    def test_witnesses_with_an_a_top_that_cancels(self, m, a_top):
        """Each u_i = a_top v_i / (super_0 ... super_{i-1}) in lowest terms,
        for a_top with the factors 2, 3, 5, 7, 11 and 13 of the super entries
        (2k-1-2l and -2(l+1), times 2k-1), whose products alternate in sign."""
        for k in range(1, (m - 1) // 2 + 1):
            assert_same_derivation(pm_witness(m, k, a_top), family_oracle.pm_witness(m, k, a_top))

    def test_a_large_witness(self):
        assert_same_derivation(pm_witness(201, 50, Fraction(-45, 14)),
                               family_oracle.pm_witness(201, 50, Fraction(-45, 14)))

    def test_a_large_linear_witness(self):
        _, d2, r = family_oracle.linear_pair()
        assert_same_derivation(pm_witness_linear(201), d2.scale(r ** 100))

    @pytest.mark.parametrize("m", range(3, 32, 2))
    def test_linear_witness_is_the_repeated_product(self, m):
        _, d2, r = family_oracle.linear_pair()
        rs = r ** 0
        for _ in range((m - 1) // 2):
            rs = rs * r
        assert_same_derivation(pm_witness_linear(m), d2.scale(rs))
