"""Acceptance gate: the seven self-test criteria, run end to end.

Each criterion is exercised through ``newtcomm.selftest`` (the same code
path the ``newtcomm selftest`` subcommand uses) and must both pass and
finish inside its time budget.  A handful of independent spot checks
guard against the self-test itself going soft, and a mutation control
verifies that a deliberately corrupted kernel is caught.
"""

from fractions import Fraction

import pytest

from newtcomm import (
    LaurentBiPoly,
    NotAMultiple,
    PlanarDerivation,
    UniPoly,
    build_obstruction,
    decompose_in_H,
    example_fixture,
    parse_bipoly,
    parse_unipoly,
    rectification_defect,
    solve_commutant,
)
from newtcomm import commutant, family, flows, obstruction, parity, selftest

from conftest import ACCEPTANCE_LINES


def _check(result, budget_seconds):
    line = (
        f"{'PASS' if result.passed else 'FAIL'}  {result.name}  "
        f"({result.seconds:.2f}s)  {result.detail}"
    )
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert result.passed, line
    assert result.seconds < budget_seconds, (
        f"{result.name} exceeded its {budget_seconds}s budget: {result.seconds:.2f}s"
    )


class TestAcceptanceCriteria:
    def test_criterion_1_rank_one_certificate(self):
        _check(selftest.run_criterion_1(), 10)

    def test_criterion_1_certifies_each_force_once(self, monkeypatch):
        """Per force, one solve and one certificate at M = 31: every smaller M
        is read off the solve, and the certificate does not solve."""
        calls = []
        for name in ("solve_commutant", "certify_rank_one"):
            real = getattr(commutant, name)
            monkeypatch.setattr(commutant, name, lambda f, M, name=name, real=real:
                                calls.append((name, f, M)) or real(f, M))
        assert selftest.run_criterion_1().passed
        assert calls == [(name, f, 31) for f in selftest.ACCEPTANCE_FORCES
                         for name in ("solve_commutant", "certify_rank_one")]

    def test_criterion_1_builds_each_energy_basis_once(self, monkeypatch):
        """Each read of the certificate's commutant builds the energy basis:
        criterion 1 reads it once per force, not once per M."""
        calls = []
        real = commutant.energy_basis
        monkeypatch.setattr(commutant, "energy_basis",
                            lambda f, M: calls.append(str(f)) or real(f, M))
        assert selftest.run_criterion_1().passed
        assert len(calls) == len(set(calls)) <= len(selftest.ACCEPTANCE_FORCES), calls

    def test_criterion_2_negative_controls(self):
        _check(selftest.run_criterion_2(), 30)

    def test_criterion_3_parity_lemma_suite(self):
        _check(selftest.run_criterion_3(), 10)

    def test_criterion_4_obstruction_roots(self):
        _check(selftest.run_criterion_4(), 5)

    def test_criterion_5_fractional_family(self):
        _check(selftest.run_criterion_5(), 30)

    def test_criterion_6_flow_rectification(self):
        _check(selftest.run_criterion_6(), 10)

    def test_criterion_7_calculus_kernel(self):
        _check(selftest.run_criterion_7(), 10)


class TestIndependentSpotChecks:
    """Direct assertions that do not route through the self-test module."""

    def test_dimension_formula_directly(self):
        f = parse_unipoly("x^5 + 2*x^2 - 1")
        assert solve_commutant(f, 3).dimension == (3 - 1) // 2 + 1

    def test_p3_value_directly(self):
        assert build_obstruction(3).P == parse_unipoly("2*x^2 + 4*x - 6")

    def test_rectification_defect_directly(self):
        d, delta, _ = example_fixture()
        report = rectification_defect(d, delta, 0, 1, 1.0, 10_000)
        assert report.max_defect < 1e-6

    def test_linear_force_control_directly(self):
        res = solve_commutant(parse_unipoly("x"), 1)
        assert res.dimension == 2
        rogue = [g for g in res.basis if g.act_x == parse_bipoly("x")]
        assert rogue, "expected the (x, y) element in the basis"
        with pytest.raises(NotAMultiple):
            decompose_in_H(parse_unipoly("x"), rogue[0])


class TestMutationControl:
    def test_corrupted_obstruction_is_caught(self, monkeypatch):
        """Perturbing one frozen recurrence output must flip criterion 4."""
        real = obstruction.build_obstruction

        def corrupted(m):
            ob = real(m)
            return obstruction.ObstructionPoly(m=ob.m, P=ob.P + UniPoly.const(Fraction(1)))

        monkeypatch.setattr(obstruction, "build_obstruction", corrupted)
        result = selftest.run_criterion_4()
        assert not result.passed

    def test_dropped_root_is_caught(self, monkeypatch):
        """Losing the largest rational root must flip criterion 4."""
        real = obstruction.rational_roots

        def dropped(p):
            roots = real(p)
            return roots - {max(roots)} if roots else roots

        monkeypatch.setattr(obstruction, "rational_roots", dropped)
        result = selftest.run_criterion_4()
        assert not result.passed

    def test_corrupted_hamiltonian_is_caught(self, monkeypatch):
        from newtcomm import commutant as commutant_module

        real = commutant_module.hamiltonian

        def corrupted(f):
            return real(f) + parse_bipoly("x")

        monkeypatch.setattr(commutant_module, "hamiltonian", corrupted)
        result = selftest.run_criterion_1()
        assert not result.passed

    def test_perturbed_base_derivation_is_caught_at_M_1(self, monkeypatch):
        """Adding (x, y) to delta_f, the last basis element, corrupts every
        smaller y-degree read off the one solve, M = 1 first."""
        real = commutant.solve_commutant

        def perturbed(f, M):
            com = real(f, M)
            rogue = com.basis[-1] + PlanarDerivation(parse_bipoly("x"), parse_bipoly("y"))
            return com._replace(basis=com.basis[:-1] + (rogue,))

        monkeypatch.setattr(commutant, "solve_commutant", perturbed)
        result = selftest.run_criterion_1()
        assert not result.passed
        first = result.detail.split("; first failure: ")[1]
        assert first.startswith(f"f={selftest.ACCEPTANCE_FORCES[0]}, M=1: "), first

    def test_failing_certificate_is_caught(self, monkeypatch):
        """A certificate that fails flips criterion 1 even where the solve
        agrees with the energy basis."""
        reason = commutant._graded_reason
        monkeypatch.setattr(commutant, "_graded_reason", lambda X, M, lower: reason(1, M, lower))
        result = selftest.run_criterion_1()
        assert not result.passed
        assert result.detail.startswith("64/64 (f, M) pairs")
        first = result.detail.split("; first failure: ")[1]
        assert first == (f"f={selftest.ACCEPTANCE_FORCES[0]}, M=31: certificate fails: "
                         "piece (m, a) = (1, 1) at X = 1 has nullity 1, not 0")

    def test_nan_defect_is_caught(self, monkeypatch):
        """A quadrature that returns NaN must flip criterion 6, not pass it."""
        monkeypatch.setattr(flows, "adaptive_simpson", lambda *args: float("nan"))
        result = selftest.run_criterion_6()
        assert not result.passed
        assert "rectification defect nan" in result.detail

    def test_dropped_solution_is_caught(self, monkeypatch):
        """Losing the last basis element of each half's one solve must flip
        criterion 3."""
        real = parity.solve_system

        def dropped(sys):
            space = real(sys)
            return space._replace(basis=space.basis[:-1])

        monkeypatch.setattr(parity, "solve_system", dropped)
        result = selftest.run_criterion_3()
        assert not result.passed

    def test_dropped_energy_multiple_is_caught(self, monkeypatch):
        """An energy basis that loses delta_f, its last element, must flip
        criterion 3 through its m = 20 solves, which it compares with the
        energy basis; the suite itself builds no basis under a certificate."""
        real = commutant.energy_basis
        monkeypatch.setattr(commutant, "energy_basis", lambda f, M: real(f, M)[:-1])
        result = selftest.run_criterion_3()
        assert not result.passed
        assert ("f=x^2, Ie_20: the solve (dimension 10) differs from the certificate "
                "(dimension 9)") in result.detail, result.detail

    def test_dropped_energy_multiple_flips_criterion_1(self, monkeypatch):
        """An energy basis that loses delta_f must flip criterion 1 through
        its comparison with the integrator, while every certificate, which
        builds no basis, still passes."""
        real = commutant.energy_basis
        monkeypatch.setattr(commutant, "energy_basis", lambda f, M: real(f, M)[:-1])
        result = selftest.run_criterion_1()
        assert not result.passed
        assert "not the energy basis" in result.detail, result.detail
        assert all(commutant.certify_rank_one(f, 31).passed for f in selftest.ACCEPTANCE_FORCES)

    def test_non_transversal_companion_is_caught(self, monkeypatch):
        """A companion delta = d commutes with d but is parallel to it: it
        must flip criterion 2 as not transversal."""
        real = flows.companion_for_linear
        monkeypatch.setattr(flows, "companion_for_linear", lambda d: real(d)._replace(delta=d))
        result = selftest.run_criterion_2()
        assert not result.passed
        assert result.detail.endswith(": companion not transversal"), result.detail

    def test_first_integral_plus_y_is_caught(self, monkeypatch):
        """r + y is no first integral of alpha = (y, x^(-rho)), as alpha(y) != 0,
        so it must flip criterion 5 (r plus a constant would not)."""
        real = family.first_integral
        monkeypatch.setattr(family, "first_integral",
                            lambda k: real(k) + LaurentBiPoly.y(2 * k - 1))
        result = selftest.run_criterion_5()
        assert not result.passed
        assert "alpha(r) != 0" in result.detail, result.detail

    def test_bracket_sign_flip_is_caught(self, monkeypatch):
        """-[D, E] satisfies Jacobi as [D, E] does; the commutator check of
        criterion 7 must see the flip."""
        real = PlanarDerivation.bracket
        monkeypatch.setattr(PlanarDerivation, "bracket", lambda d, e: -real(d, e))
        result = selftest.run_criterion_7()
        assert not result.passed
        assert "[D, D2](p) != D(D2(p)) - D2(D(p))" in result.detail, result.detail
