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
    NotAMultiple,
    UniPoly,
    build_obstruction,
    decompose_in_H,
    example_fixture,
    parse_bipoly,
    parse_unipoly,
    rectification_defect,
    solve_commutant,
)
from newtcomm import obstruction, selftest

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
        _check(selftest.run_criterion_1(), 60)

    def test_criterion_2_negative_controls(self):
        _check(selftest.run_criterion_2(), 30)

    def test_criterion_3_parity_lemma_suite(self):
        _check(selftest.run_criterion_3(), 120)

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
            return obstruction.ObstructionPoly(
                m=ob.m, T=ob.T, P=ob.P + UniPoly.const(Fraction(1))
            )

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
