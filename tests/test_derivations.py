"""Derivations of Q[x,y]: Leibniz, brackets, and the Newton vector field."""

from fractions import Fraction

import pytest
from hypothesis import given

from newtcomm import (
    BiPoly,
    LaurentBiPoly,
    LaurentDerivation,
    LaurentPoly,
    PlanarDerivation,
    RingMismatch,
    UniPoly,
    divergence,
    hamiltonian,
    newton_derivation,
    parse_bipoly,
    parse_unipoly,
)

from strategies import bipolys, derivations


class TestPlanarDerivation:
    @given(derivations(), bipolys(), bipolys())
    def test_leibniz(self, d, p, q):
        assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)

    @given(derivations(), derivations())
    def test_bracket_antisymmetry(self, d, e):
        assert d.bracket(e) == -(e.bracket(d))

    @given(derivations(), derivations(), derivations())
    def test_jacobi(self, d, e, g):
        total = (
            d.bracket(e.bracket(g))
            + e.bracket(g.bracket(d))
            + g.bracket(d.bracket(e))
        )
        assert total.is_zero

    @given(derivations(), derivations(), bipolys())
    def test_bracket_is_commutator(self, d, e, p):
        lhs = d.bracket(e).apply(p)
        rhs = d.apply(e.apply(p)) - e.apply(d.apply(p))
        assert lhs == rhs

    def test_apply_on_coordinates(self):
        d = PlanarDerivation(parse_bipoly("y"), parse_bipoly("x^2"))
        assert d.apply(BiPoly.x()) == parse_bipoly("y")
        assert d.apply(BiPoly.y()) == parse_bipoly("x^2")
        assert d.apply(BiPoly.const(5)).is_zero

    def test_scale_add_sub(self):
        d = PlanarDerivation(parse_bipoly("y"), parse_bipoly("x"))
        h = parse_bipoly("y^2 - x^2")
        s = d.scale(h)
        assert s.act_x == parse_bipoly("y^3 - x^2*y")
        assert (s - d.scale(h)).is_zero
        assert (d + (-d)).is_zero

    def test_to_json_dict(self):
        d = newton_derivation(parse_unipoly("x^2"))
        assert d.to_json_dict() == {"ring": {"t": 1}, "dx": "y", "dy": "x^2"}


class TestNewton:
    def test_newton_components(self):
        f = parse_unipoly("6*x^2 + 5")
        d = newton_derivation(f)
        assert d.act_x == BiPoly.y()
        assert d.act_y == BiPoly.from_uni(f)

    def test_hamiltonian_values(self):
        # H = y^2 - 2*I(f), I the antiderivative with zero constant term
        cases = [
            ("6*x^2 + 5", "y^2 - 4*x^3 - 10*x"),
            ("x^2", "y^2 - 2/3*x^3"),
            ("x^3 - x", "y^2 - 1/2*x^4 + x^2"),
            ("x^5 + 2*x^2 - 1", "y^2 - 1/3*x^6 - 4/3*x^3 + 2*x"),
        ]
        for f_text, h_text in cases:
            assert hamiltonian(parse_unipoly(f_text)) == parse_bipoly(h_text)

    def test_newton_annihilates_hamiltonian_and_is_divergence_free(self):
        for f_text in ("6*x^2 + 5", "x^2", "x^3 - x", "x^5 + 2*x^2 - 1", "0"):
            f = parse_unipoly(f_text)
            d = newton_derivation(f)
            assert d.apply(hamiltonian(f)).is_zero
            assert divergence(d).is_zero

    def test_multiples_of_newton_commute(self):
        f = parse_unipoly("x^3 - x")
        d = newton_derivation(f)
        h = hamiltonian(f)
        assert d.bracket(d.scale(h)).is_zero
        assert d.bracket(d.scale(h * h + 3)).is_zero


class TestLaurentDerivation:
    def test_t_mismatch(self):
        t3 = LaurentBiPoly.y(3)
        with pytest.raises(RingMismatch):
            LaurentDerivation(2, t3, t3)

    def test_bracket_on_fractional_powers(self):
        # alpha = (y, x^(-3)) in the t=1 ring commutes with itself trivially
        t = 1
        a = LaurentDerivation(
            t,
            LaurentBiPoly.y(t),
            LaurentBiPoly.from_laurent(LaurentPoly.term(t, -3)),
        )
        assert a.bracket(a).is_zero
        assert a.bracket(a.scale(LaurentPoly.const(t, Fraction(7, 2)))).is_zero

    def test_apply_leibniz_spot(self):
        t = 2
        a = LaurentDerivation(
            t,
            LaurentBiPoly.y(t),
            LaurentBiPoly.from_laurent(LaurentPoly.term(t, -1)),
        )
        p = LaurentBiPoly.y_pow(t, 1, LaurentPoly.term(t, 1))  # x^(1/2) * y
        q = LaurentBiPoly.from_laurent(LaurentPoly.term(t, 2))  # x
        assert a.apply(p * q) == a.apply(p) * q + p * a.apply(q)
