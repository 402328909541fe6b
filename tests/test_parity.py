"""The four parity-restricted triangular systems and the lemma suite."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtcomm import (
    HypothesisViolation,
    InvalidInput,
    build_system,
    check_lemma_suite,
    newton_derivation,
    parse_unipoly,
    solve_commutant,
    solve_system,
)
from newtcomm import certify_rank_one, parity
from newtcomm.commutant import energy_basis, solve_halves
from newtcomm.parity import KINDS

import lemma_oracle
from matching_oracle import default_xcap, full_rows, matching_system, system_rows
from strategies import unipolys

DEGREE_9_F = "1/3*x^9 - 2/7*x^4 + 3/5*x^2 + x - 5/11"
CERTIFIED_FORCES = ("6*x^2 + 5", "x^2", "x^3 - x", "x^5 + 2*x^2 - 1", DEGREE_9_F)


class TestBuildSystem:
    def test_io3_equations(self):
        s = build_system("Io", 3, parse_unipoly("x^2"))
        assert [e.label for e in s.equations] == ["e_4", "e_3", "e_2", "e_1", "e_0"]
        assert [e.text for e in s.equations] == [
            "c_3' = 0",
            "d_2' = f'*c_3",
            "c_1' + 3*f*c_3 = d_2",
            "d_0' + 2*f*d_2 = f'*c_1",
            "f*c_1 = d_0",
        ]
        assert s.unknowns == ("c_3", "d_2", "c_1", "d_0")

    def test_ie2_equations(self):
        s = build_system("Ie", 2, parse_unipoly("x^2"))
        assert [e.text for e in s.equations] == [
            "d_2' = 0",
            "c_1' = d_2",
            "d_0' + 2*f*d_2 = f'*c_1",
            "f*c_1 = d_0",
        ]

    def test_iie2_equations(self):
        s = build_system("IIe", 2, parse_unipoly("x^2"))
        assert [e.text for e in s.equations] == [
            "c_2' = 0",
            "d_1' = f'*c_2",
            "c_0' + 2*f*c_2 = d_1",
            "f*d_1 = f'*c_0",
        ]

    def test_equation_count(self):
        f = parse_unipoly("x^3")
        for kind in KINDS:
            for m in (2, 3, 4, 5, 6, 7):
                if kind in ("Io", "IIo") and m % 2 == 0:
                    continue
                if kind in ("Ie", "IIe") and m % 2:
                    continue
                assert len(build_system(kind, m, f).equations) == m + 2

    def test_bad_inputs(self):
        f = parse_unipoly("x^2")
        with pytest.raises(InvalidInput):
            build_system("Xo", 3, f)
        with pytest.raises(InvalidInput):
            build_system("Io", 1, f)
        # off-parity m is allowed for experimentation
        assert len(build_system("Io", 4, f).equations) == 6


class TestSolveSystem:
    def test_io_dimensions(self):
        for f_text in ("x^2", "x^3"):
            f = parse_unipoly(f_text)
            for m in (3, 5, 7):
                space = solve_system(build_system("Io", m, f))
                assert space.dimension == (m + 1) // 2

    def test_ie_top_unknown_forced(self):
        for f_text in ("x^2", "x^3"):
            f = parse_unipoly(f_text)
            for m in (2, 4, 6, 8):
                space = solve_system(build_system("Ie", m, f))
                assert f"d_{m}" in space.forced

    def test_iie_top_unknown_forced(self):
        for f_text in ("x^2", "x^3"):
            f = parse_unipoly(f_text)
            for m in (2, 4, 6):
                space = solve_system(build_system("IIe", m, f))
                assert f"c_{m}" in space.forced

    def test_iio_trivial_for_nonlinear_f(self):
        for f_text in ("x^2", "x^3"):
            f = parse_unipoly(f_text)
            for m in (3, 5, 7):
                space = solve_system(build_system("IIo", m, f))
                assert space.dimension == 0
                assert space.forced == frozenset(
                    build_system("IIo", m, f).unknowns
                )

    def test_linear_f_negative_control(self):
        # f = x: (IIo)_3 has solutions and d_3 is NOT forced
        space = solve_system(build_system("IIo", 3, parse_unipoly("x")))
        assert space.dimension == 2
        assert "d_3" not in space.forced

    def test_io_solutions_commute_when_assembled(self):
        f = parse_unipoly("x^2")
        m = 5
        space = solve_system(build_system("Io", m, f))
        d = newton_derivation(f)
        for gamma in space.basis:
            assert d.bracket(gamma).is_zero

    def test_backsub_matches_linalg(self):
        # top-down integration equals coefficient matching for all four kinds
        for f_text in ("x^2", "x^3 - x"):
            f = parse_unipoly(f_text)
            for kind in KINDS:
                for m in (3, 4, 5, 6, 7):
                    s = build_system(kind, m, f)
                    a = matching_system(s)
                    b = solve_system(s)
                    assert a.dimension == b.dimension
                    assert a.basis == b.basis
                    assert a.forced == b.forced

    def test_two_systems_partition_full_problem(self):
        """Io+IIo (odd M) rows, suitably mapped, equal the full matching system."""
        f = parse_unipoly("x^3 - x")
        M = 5
        xcap = default_xcap(f, M)
        full, full_index, _ = full_rows(f, M, xcap)

        merged = set()
        for kind in ("Io", "IIo"):
            s = build_system(kind, M, f)
            rows, index, _ = system_rows(s, xcap)
            back = {v: k for k, v in index.items()}
            for row in rows:
                mapped = tuple(sorted(
                    (full_index[back[col]], coeff) for col, coeff in row.items()
                ))
                if mapped:
                    merged.add(mapped)
        assert merged == {tuple(sorted(row.items())) for row in full}


class TestLemmaSuite:
    def test_all_pass_for_quadratic(self):
        report = check_lemma_suite(parse_unipoly("x^2"), 8)
        assert report.passed
        names = {c.name for c in report.checks}
        assert any("Io" in n for n in names)
        assert len(report.checks) == sum(
            1 for m in range(2, 9) for kind in KINDS
            if (m % 2 == 1) == (kind in ("Io", "IIo"))
        )

    def test_linear_f_rejected_by_default(self):
        with pytest.raises(HypothesisViolation):
            check_lemma_suite(parse_unipoly("x"), 4)

    def test_linear_f_fails_when_allowed(self):
        report = check_lemma_suite(parse_unipoly("x"), 4, allow_low_degree=True)
        assert not report.passed
        bad = [c for c in report.checks if not c.passed]
        assert any(c.kind == "IIo" and c.m == 3 for c in bad)

    def test_io_dimension_recorded(self):
        report = check_lemma_suite(parse_unipoly("x^2"), 5)
        by_name = {c.name: c for c in report.checks}
        assert by_name["Io_5"].dimension == 3
        assert by_name["Io_3"].dimension == 2


LOW_DEGREE_FORCES = ("0", "1", "x", "2*x + 1")


@pytest.mark.parametrize("f_text, m_max", [
    *((f_text, m_max) for f_text in ("x^2", "x^3 - x", DEGREE_9_F) for m_max in (2, 3, 9, 16)),
    *((f_text, m_max) for f_text in LOW_DEGREE_FORCES for m_max in range(2, 17)),
])
def test_lemma_suite_matches_per_system_oracle(f_text, m_max):
    """The suite, read off the certificate or built from one solve per check,
    equals the per-system oracle, report for report."""
    f = parse_unipoly(f_text)
    got = check_lemma_suite(f, m_max, allow_low_degree=f.degree < 2)
    assert got == lemma_oracle.lemma_suite(f, m_max)


@pytest.mark.parametrize("m_max", [2, 3, 12])
def test_lemma_suite_reads_certified_halves_without_solving(monkeypatch, m_max):
    """deg f >= 2 with a passing certificate: both halves come off it, no solve."""
    calls = []
    solve = parity.solve_system
    monkeypatch.setattr(parity, "solve_system", lambda sys: calls.append(sys.kind) or solve(sys))
    built = []
    build = parity.build_system
    monkeypatch.setattr(parity, "build_system",
                        lambda kind, m, f: built.append(kind) or build(kind, m, f))
    f = parse_unipoly("x^3")
    assert check_lemma_suite(f, m_max) == lemma_oracle.lemma_suite(f, m_max)
    assert calls == []
    assert built == []


@pytest.mark.parametrize("m_max", [2, 3, 12, 24])
@pytest.mark.parametrize("f_text", CERTIFIED_FORCES)
def test_certified_suite_builds_no_basis(monkeypatch, f_text, m_max):
    """Under a passing certificate every check comes from (kind, m) alone:
    with energy_basis, solve_halves and solve_system raising, the report still
    equals the per-system oracle."""
    f = parse_unipoly(f_text)
    want = lemma_oracle.lemma_suite(f, m_max)

    def refuse(*args):
        raise AssertionError("the certified suite reads no basis")

    for name in ("energy_basis", "solve_halves", "solve_system"):
        monkeypatch.setattr(parity, name, refuse)
    assert check_lemma_suite(f, m_max) == want


def _mutant(old: str, new: str):
    """parity._certified with the source text old replaced by new."""
    src = inspect.getsource(parity._certified)
    assert src.count(old) == 1
    namespace = dict(vars(parity))
    exec(src.replace(old, new), namespace)
    return namespace["_certified"]


@pytest.mark.parametrize("old, new", [
    ('{f"d_{m}"}', '{f"c_{m}"}'),  # Ie forces c_m in place of d_m
    ("(m + 1) // 2, frozenset(", "m // 2, frozenset("),  # Io of dimension m//2
])
def test_certified_checks_mutation_control(monkeypatch, old, new):
    """Mutation controls: a wrong forced set or dimension in the certified
    checks makes the suite differ from the per-system oracle."""
    f = parse_unipoly("x^3 - x")
    monkeypatch.setattr(parity, "_certified", _mutant(old, new))
    assert check_lemma_suite(f, 6) != lemma_oracle.lemma_suite(f, 6)


def test_read_off_keeps_the_least_y_degree():
    """Ie_2 of x^2: c_1 and d_0 are nonempty in delta_f, of y-degree 1, so
    solve_system forces only d_2, as the scan of the half solved at m = 3,
    (H delta_f, delta_f), read off at m = 2.  A read-off that also counted the
    rows of H delta_f, of y-degree 3, would force nothing."""
    f = parse_unipoly("x^2")
    top = build_system("Io", 3, f)
    space = solve_system(build_system("Ie", 2, f))
    assert space.forced == {"d_2"}
    assert space == lemma_oracle.space_at(top, solve_system(top).basis, 2)


def _kind(c_par: int, m: int) -> str:
    return ("I" if c_par else "II") + ("o" if m % 2 else "e")


def _assert_read_off_matches_scan(f, m_max, halves, space):
    """Every 2 <= m <= m_max of each half: space(kind, m) equals the per-unknown
    scan of the half at m_max, read off at m."""
    for par, half in halves.items():
        top = build_system(_kind(par, m_max), m_max, f)
        for m in range(2, m_max + 1):
            assert space(_kind(par, m), m) == lemma_oracle.space_at(top, half, m), (par, m)


@pytest.mark.parametrize("m_max", [20, 41])
@pytest.mark.parametrize("f_text", CERTIFIED_FORCES)
def test_read_off_matches_scan_on_certified_halves(f_text, m_max):
    """The facts _certified states at each m <= m_max are those of the
    certified halves at m_max (the energy basis, and nothing), read off at m."""
    f = parse_unipoly(f_text)
    assert certify_rank_one(f, m_max).passed

    def certified(kind, m):
        dimension, forced, multiples = parity._certified(kind, m)
        basis = energy_basis(f, m) if kind in ("Io", "Ie") else ()
        assert multiples and dimension == len(basis), (kind, m)
        return parity.SolutionSpace(basis, forced)

    _assert_read_off_matches_scan(f, m_max, {1: energy_basis(f, m_max), 0: ()}, certified)


@pytest.mark.parametrize("m_max", range(2, 14))
@pytest.mark.parametrize("f_text", LOW_DEGREE_FORCES)
def test_read_off_matches_scan_on_solved_halves(f_text, m_max):
    """solve_system at each m <= m_max equals the scan of its half solved at
    m_max, read off at m: the forced set, and the prefix of the basis."""
    f = parse_unipoly(f_text)
    _assert_read_off_matches_scan(
        f, m_max, {par: tuple(solve_halves(f, m_max, (par,))) for par in (0, 1)},
        lambda kind, m: solve_system(build_system(kind, m, f)))


@pytest.mark.parametrize("m_max", [2, 3, 12])
@pytest.mark.parametrize("f_text, fail_certificate", [("x^3", True), ("x", False)])
def test_lemma_suite_solves_each_half_once_without_certificate(monkeypatch, m_max, f_text,
                                                               fail_certificate):
    """A failing certificate, or deg f < 2 under allow_low_degree: each check
    solves its half once, by one solve_system of its own (kind, m) system, and
    the report does not change."""
    f = parse_unipoly(f_text)
    want = check_lemma_suite(f, m_max, allow_low_degree=True)
    if fail_certificate:
        monkeypatch.setattr(parity, "_graded_reason", lambda X, M, lower: "forced failure")
    calls = []
    solve = parity.solve_system
    monkeypatch.setattr(parity, "solve_system",
                        lambda sys: calls.append((sys.kind, sys.m)) or solve(sys))
    assert check_lemma_suite(f, m_max, allow_low_degree=True) == want
    assert calls == [(c.kind, c.m) for c in want.checks]


@settings(deadline=None)
@given(f=unipolys(6).filter(lambda f: f.degree >= 2), m_max=st.integers(2, 13))
def test_lemma_suite_matches_oracle_for_random_forces(f, m_max):
    """For forces of degree 2..6 the suite read off the certificate equals the
    per-system oracle."""
    assert check_lemma_suite(f, m_max) == lemma_oracle.lemma_suite(f, m_max)


def test_io_solutions_live_inside_full_commutant():
    """The (Io)_m basis is literally the commutant basis up to y-degree m,
    and that is the energy basis (H^k delta_f, k descending)."""
    for f_text in ("x^2", "1/3*x^9 - 2/7*x^4 + 3/5*x^2 + x - 5/11"):
        f = parse_unipoly(f_text)
        for m in range(3, 16, 2):
            io = solve_system(build_system("Io", m, f)).basis
            assert io == solve_commutant(f, m).basis == energy_basis(f, m), (f_text, m)
