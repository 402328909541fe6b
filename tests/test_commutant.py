"""Commutant computation and the rank-one certificate."""

from fractions import Fraction

import pytest

from newtcomm import (
    HypothesisViolation,
    NotAMultiple,
    PlanarDerivation,
    RingMismatch,
    UniPoly,
    certify_rank_one,
    check_lemma_suite,
    decompose_in_H,
    hamiltonian,
    newton_derivation,
    parse_bipoly,
    parse_laurent,
    parse_unipoly,
    rational_roots,
    solve_commutant,
)
from newtcomm.parity import KINDS, build_system, solve_system

from matching_oracle import default_xcap, matching_commutant, matching_system

FORCES = ("6*x^2 + 5", "x^2", "x^3 - x", "x^5 + 2*x^2 - 1")
DEGENERATE_FORCES = ("0", "2", "x", "2*x + 1")


class TestSolveCommutant:
    def test_dimension_table(self):
        # For deg f >= 2 the commutant in y-degree <= M has dimension
        # floor((M-1)/2) + 1 (and 0 when M = 0).
        for f_text in FORCES:
            f = parse_unipoly(f_text)
            for M, want in ((0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)):
                assert solve_commutant(f, M).dimension == want, (f_text, M)

    def test_canonical_basis_is_H_powers_times_newton(self):
        f = parse_unipoly("x^2")
        d = newton_derivation(f)
        H = hamiltonian(f)
        got = solve_commutant(f, 3).basis
        assert list(got) == [d.scale(H), d]
        assert list(solve_commutant(f, 5).basis) == [
            d.scale(H * H),
            d.scale(H),
            d,
        ]

    def test_every_basis_element_commutes(self):
        f = parse_unipoly("x^3 - x")
        d = newton_derivation(f)
        for g in solve_commutant(f, 5).basis:
            assert d.commutes_with(g)

    def test_linear_f_has_extra_element(self):
        # f = x: the commutant is NOT spanned by multiples of (y, x).
        res = solve_commutant(parse_unipoly("x"), 1)
        assert res.dimension == 2
        assert list(res.basis) == [
            PlanarDerivation(parse_bipoly("y"), parse_bipoly("x")),
            PlanarDerivation(parse_bipoly("x"), parse_bipoly("y")),
        ]

    def test_dimension_stable_under_larger_cap(self):
        # the uncapped integrator agrees with coefficient matching at the
        # default cap and at twice that cap
        for f_text in ("x^2", "x^3 - x"):
            f = parse_unipoly(f_text)
            for M in (1, 3, 5):
                cap = default_xcap(f, M)
                got = list(solve_commutant(f, M).basis)
                assert matching_commutant(f, M, cap) == got
                assert matching_commutant(f, M, 2 * cap) == got

    def test_zero_f_allowed(self):
        res = solve_commutant(UniPoly([]), 1)
        assert all(
            newton_derivation(UniPoly([])).commutes_with(g) for g in res.basis
        )

    def test_default_xcap_formula(self):
        # the cap of the coefficient-matching oracle
        f = parse_unipoly("x^3 - x")
        assert default_xcap(f, 3) == ((3 + 2) // 2) * (3 + 1) + 1


@pytest.mark.parametrize("f_text", DEGENERATE_FORCES + FORCES)
def test_matches_matching_oracle(f_text):
    """Byte-equal output to coefficient matching: commutant bases for
    M = 0..11 and every parity system for m = 2..10."""
    f = parse_unipoly(f_text)
    for M in range(12):
        got = [str(g) for g in solve_commutant(f, M).basis]
        assert got == [str(g) for g in matching_commutant(f, M)], M
    for kind in KINDS:
        for m in range(2, 11):
            system = build_system(kind, m, f)
            got, want = solve_system(system), matching_system(system)
            assert got.dimension == want.dimension, (kind, m)
            assert [{k: str(p) for k, p in b.items()} for b in got.basis] == [
                {k: str(p) for k, p in b.items()} for b in want.basis
            ], (kind, m)
            assert got.forced == want.forced, (kind, m)


class TestDecomposeInH:
    def test_recovers_coefficients(self):
        f = parse_unipoly("6*x^2 + 5")
        d = newton_derivation(f)
        H = hamiltonian(f)
        q = H * H - Fraction(3, 2) * H + 7
        dec = decompose_in_H(f, d.scale(q))
        assert dec.q_coeffs == (Fraction(7), Fraction(-3, 2), Fraction(1))
        assert dec.reconstruct(f) == d.scale(q)

    def test_zero_gamma(self):
        f = parse_unipoly("x^2")
        dec = decompose_in_H(f, newton_derivation(f).scale(0))
        assert dec.q_coeffs == ()

    def test_rejects_non_multiples(self):
        f = parse_unipoly("x^2")
        with pytest.raises(NotAMultiple):
            # gamma(x) not divisible by y
            decompose_in_H(f, PlanarDerivation(parse_bipoly("x"), parse_bipoly("y")))
        with pytest.raises(NotAMultiple):
            # right shape in x but wrong y-component
            decompose_in_H(f, PlanarDerivation(parse_bipoly("y"), parse_bipoly("x^2 + 1")))
        with pytest.raises(NotAMultiple):
            # quotient y^2 - x^3 is not a polynomial in H = y^2 - 2/3 x^3
            decompose_in_H(
                f,
                newton_derivation(f).scale(parse_bipoly("y^2 - x^3")),
            )


class TestCertifyRankOne:
    def test_passes_for_acceptance_forces(self):
        for f_text in FORCES:
            f = parse_unipoly(f_text)
            for M in (1, 3):
                cert = certify_rank_one(f, M)
                assert cert.passed, (f_text, M, cert.reason)
                assert cert.expected_dimension == (M - 1) // 2 + 1
                assert cert.commutant.dimension == cert.expected_dimension
                assert cert.failing_index is None

    def test_rejects_low_degree(self):
        with pytest.raises(HypothesisViolation):
            certify_rank_one(parse_unipoly("x"), 1)
        with pytest.raises(HypothesisViolation):
            certify_rank_one(parse_unipoly("3"), 1)

    def test_decompositions_reconstruct(self):
        f = parse_unipoly("x^5 + 2*x^2 - 1")
        cert = certify_rank_one(f, 5)
        for g, dec in zip(cert.commutant.basis, cert.decompositions):
            assert dec is not None
            assert dec.reconstruct(f) == g


@pytest.mark.parametrize("text, t", [("x^(1/3)", 3), ("x^(-1)", 1)])
def test_inputs_outside_qx_raise_ring_mismatch(text, t):
    f = parse_laurent(text, t)
    for call in (lambda: solve_commutant(f, 3), lambda: certify_rank_one(f, 3),
                 lambda: build_system("Io", 3, f), lambda: check_lemma_suite(f, 3),
                 lambda: rational_roots(f)):
        with pytest.raises(RingMismatch):
            call()


def test_laurent_input_inside_qx_is_accepted():
    f = parse_laurent("x^3 - x", 1)
    assert solve_commutant(f, 5).basis == solve_commutant(parse_unipoly("x^3 - x"), 5).basis
    assert rational_roots(f) == {-1, 0, 1}
