"""Commutant computation and the rank-one certificate."""

import inspect
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newtcomm import (
    CommutantBasis,
    HDecomposition,
    HypothesisViolation,
    InvalidInput,
    LaurentBiPoly,
    LaurentDerivation,
    LaurentPoly,
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
from newtcomm import commutant, poly, selftest
from newtcomm.commutant import _graded_nullities, _integrate_half, _prefix, energy_basis
from newtcomm.linsolve import rref
from newtcomm.parity import KINDS, build_system, coefficient, solve_system

import energy_oracle
import lemma_oracle
import recurrence_oracle
from matching_oracle import column_layout, default_xcap, matching_commutant, matching_system
from strategies import rationals, unipolys

FORCES = ("6*x^2 + 5", "x^2", "x^3 - x", "x^5 + 2*x^2 - 1")
DEGENERATE_FORCES = ("0", "2", "x", "2*x + 1")
DEGREE_9_F = "1/3*x^9 - 2/7*x^4 + 3/5*x^2 + x - 5/11"


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
            assert d.bracket(g).is_zero

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
            newton_derivation(UniPoly([])).bracket(g).is_zero for g in res.basis
        )

    def test_default_xcap_formula(self):
        # the cap of the coefficient-matching oracle
        f = parse_unipoly("x^3 - x")
        assert default_xcap(f, 3) == ((3 + 2) // 2) * (3 + 1) + 1


@pytest.mark.parametrize("f_text", DEGENERATE_FORCES + FORCES + ("3/7*x^3 - 2/5*x + 5/2",))
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
            assert [str(g) for g in got.basis] == [str(g) for g in want.basis], (kind, m)
            assert got.forced == want.forced, (kind, m)


@pytest.mark.parametrize("f_text, M", [("x^5 + 2*x^2 - 1", 15), ("x^5 + 2*x^2 - 1", 21),
                                       (DEGREE_9_F, 15), ("0", 15), ("x", 15)])
def test_basis_is_canonical_beyond_oracle_range(f_text, M):
    """The flattened basis is a fixed point of rref over the oracle's
    column layout, at y-degrees the matching oracle is too slow for."""
    f = parse_unipoly(f_text)
    basis = solve_commutant(f, M).basis
    entries = [(kind, i) for i in range(M + 1) for kind in ("c", "d")]
    cap = max(len(q.coeffs) - 1 for g in basis for p in (g.act_x, g.act_y) for q in p.ycoeffs)
    _, index, ncols = column_layout(entries, cap)
    vectors = [
        {index[(kind, i, e)]: cf
         for kind, p in (("c", g.act_x), ("d", g.act_y))
         for i, q in enumerate(p.ycoeffs) for e, cf in enumerate(q.coeffs) if cf}
        for g in basis
    ]
    assert rref(vectors, ncols)[0] == vectors
    if f.degree >= 2:
        assert len(basis) == (M - 1) // 2 + 1


@settings(deadline=None)
@given(f=unipolys(6), M=st.integers(0, 13), c_parity=st.sampled_from((0, 1)))
@example(f=UniPoly(), M=13, c_parity=0)
@example(f=UniPoly(), M=13, c_parity=1)
@example(f=parse_unipoly("3"), M=13, c_parity=0)
@example(f=parse_unipoly("3"), M=13, c_parity=1)
@example(f=parse_unipoly("x"), M=13, c_parity=0)
@example(f=parse_unipoly("x"), M=13, c_parity=1)
def test_integrator_matches_recurrence_oracle(f, M, c_parity):
    """The integer-numerator integrator equals the Fraction recurrence, also
    where f' is zero (f constant) or f itself is (f = 0)."""
    assert _integrate_half(f, M, c_parity) == recurrence_oracle._integrate_half(f, M, c_parity)


@pytest.mark.parametrize("f_text", ["x^5 + 2*x^2 - 1", DEGREE_9_F])
def test_integrator_matches_recurrence_oracle_at_M_25(f_text):
    f = parse_unipoly(f_text)
    for c_parity in (0, 1):
        assert _integrate_half(f, 25, c_parity) == recurrence_oracle._integrate_half(f, 25, c_parity)


@pytest.mark.parametrize("f_text", ["x^2", "x^3 - x", DEGREE_9_F, "x", "0"])
def test_commutant_is_the_union_of_the_halves(f_text):
    """solve_commutant(f, M) is the bases of the two parity systems of
    y-degree M, merged by leading unknown: index descending, c before d."""
    f = parse_unipoly(f_text)
    for M in range(2, 10):
        systems = [build_system(kind, M, f) for kind in (KINDS[:2] if M % 2 else KINDS[2:])]
        order = sorted((n for s in systems for n in s.unknowns), key=lambda n: (-int(n[2:]), n))
        merged = sorted((g for s in systems for g in solve_system(s).basis),
                        key=lambda g: next(k for k, n in enumerate(order) if coefficient(g, n)))
        assert solve_commutant(f, M).basis == tuple(merged), M


def _assert_prefixes(f: UniPoly, M: int) -> None:
    """Every smaller y-degree read off one solve at M equals its own solve:
    the commutant basis for M' <= M, each parity system for 2 <= M' <= M
    (read by lemma_oracle.space_at)."""
    top = solve_commutant(f, M).basis
    for Mp in range(M + 1):
        assert _prefix(top, Mp) == solve_commutant(f, Mp).basis, Mp
    for kind in KINDS if M >= 2 else ():
        system = build_system(kind, M, f)
        basis = solve_system(system).basis
        for Mp in range(2, M + 1):
            assert lemma_oracle.space_at(system, basis, Mp) == solve_system(
                build_system(kind, Mp, f)), (kind, Mp)


@settings(deadline=None)
@given(f=unipolys(6), M=st.integers(0, 13))
@example(f=UniPoly(), M=13)
@example(f=parse_unipoly("3"), M=13)
@example(f=parse_unipoly("x"), M=13)
@example(f=parse_unipoly("2*x + 1"), M=13)
def test_smaller_degrees_are_prefixes(f, M):
    _assert_prefixes(f, M)


@pytest.mark.parametrize("f_text", ["x^5 + 2*x^2 - 1", DEGREE_9_F])
def test_smaller_degrees_are_prefixes_at_M_25(f_text):
    _assert_prefixes(parse_unipoly(f_text), 25)


class TestDecomposeInH:
    @settings(deadline=None)
    @given(f=unipolys(5), q=st.lists(rationals, max_size=4))
    @example(f=parse_unipoly("6*x^2 + 5"), q=[Fraction(7), Fraction(-3, 2), Fraction(1)])
    def test_recovers_coefficients(self, f, q):
        """decompose_in_H inverts reconstruct, for every f including zero
        and degree <= 1."""
        gamma = HDecomposition(tuple(q)).reconstruct(f)
        while q and not q[-1]:
            q.pop()
        assert decompose_in_H(f, gamma).q_coeffs == tuple(q)

    def test_zero_gamma(self):
        f = parse_unipoly("x^2")
        dec = decompose_in_H(f, newton_derivation(f).scale(0))
        assert dec.q_coeffs == ()

    def test_rejects_non_multiples(self):
        f = parse_unipoly("x^2")
        with pytest.raises(NotAMultiple):
            # gamma(x) has no odd power of y
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
        with pytest.raises(NotAMultiple):
            # quotient y has odd y-degree
            decompose_in_H(f, newton_derivation(f).scale(parse_bipoly("y")))

    def test_message_names_the_failing_component_and_H(self):
        """The message names the component and its first y-power that differs
        from the rebuild q(H) * delta_f, not the whole value."""
        f = parse_unipoly("x^2")
        for dx, dy, v, i in (("x", "y", "x", 0), ("y", "x^2 + 1", "y", 0),
                             ("x*y + y", "x^2", "x", 1), ("y^3 - x^3*y", "x^2*y^2 - x^5", "x", 1),
                             ("y", "x^2 + y^4", "y", 4)):
            with pytest.raises(NotAMultiple) as info:
                decompose_in_H(f, PlanarDerivation(parse_bipoly(dx), parse_bipoly(dy)))
            assert str(info.value) == (
                f"gamma({v}) is not that of any q(H) * delta_f: its y^{i} coefficient is the "
                "first that differs from the rebuild, H = y^2 - 2/3*x^3"), (dx, dy)

    def test_message_of_a_large_non_multiple_is_short(self):
        """A non-multiple with many terms is named in a line, not spelled out."""
        f = parse_unipoly("x^2")
        gamma = PlanarDerivation(parse_bipoly("(x + 1)^60*(y + 1)^60"), parse_bipoly("y"))
        with pytest.raises(NotAMultiple) as info:
            decompose_in_H(f, gamma)
        assert str(info.value).startswith("gamma(x) is not that of any q(H) * delta_f: its y^0 ")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("t", [1, 3])
    def test_gamma_outside_qxy_raises_ring_mismatch(self, t):
        """A derivation of a Laurent ring is refused for its ring, also when
        its values read like those of delta_f or of no multiple at all."""
        f = parse_unipoly("x^2")
        x2 = LaurentBiPoly.from_laurent(LaurentPoly.term(t, 2 * t))
        for gx, gy in ((LaurentBiPoly.y(t), x2), (x2, LaurentBiPoly.y(t))):
            with pytest.raises(RingMismatch, match=r"not in Q\[x, y\]"):
                decompose_in_H(f, LaurentDerivation(t, gx, gy))


def _failed_criterion_1() -> str:
    """The detail of selftest criterion 1, which each mutation of the pieces
    below must fail through its certificate."""
    result = selftest.run_criterion_1()
    assert not result.passed
    return result.detail


GRADED_FORCES = ("-3*x^2 + x - 1/2", "2/5*x^3 - x^2 + 7", "x^4 - 3*x^3 + x",
                 "-x^5 + 1/3*x^4 - 2", "7/2*x^6 + x - 1", "x^7 - 2*x^5 + 3/4*x^2",
                 "-1/9*x^8 + x^3 - x", DEGREE_9_F)


class TestCertifyRankOne:
    def test_passes_for_acceptance_forces(self):
        for f_text in FORCES:
            f = parse_unipoly(f_text)
            for M in (0, 1, 2, 3, 4, 10):
                cert = certify_rank_one(f, M)
                assert cert.passed, (f_text, M, cert.reason)
                assert cert.expected_dimension == (M - 1) // 2 + 1
                assert cert.commutant.dimension == cert.expected_dimension

    @pytest.mark.parametrize("f_text", GRADED_FORCES)
    def test_basis_is_the_integrators_basis(self, f_text):
        """The graded certificate returns solve_commutant's basis, for forces
        of degree 2..9 with lower terms, M <= 21 (read off one solve), and
        its dimension counts that basis."""
        f = parse_unipoly(f_text)
        top = solve_commutant(f, 21).basis
        for M in range(22):
            cert = certify_rank_one(f, M)
            assert cert.passed, (M, cert.reason)
            basis = cert.commutant.basis
            assert basis == _prefix(top, M) == energy_basis(f, M), M
            assert cert.dimension == len(basis) == cert.expected_dimension, M

    @pytest.mark.parametrize("f_text", GRADED_FORCES)
    def test_verdict_builds_no_basis(self, monkeypatch, f_text):
        """certify_rank_one decides from the pieces alone: with energy_basis
        made to raise, passed, reason and dimension are those the basis gives."""
        f = parse_unipoly(f_text)
        dimensions = [len(energy_basis(f, M)) for M in range(22)]

        def refused(f, M):
            raise AssertionError("certify_rank_one built the energy basis")

        monkeypatch.setattr(commutant, "energy_basis", refused)
        for M in range(22):
            cert = certify_rank_one(f, M)
            assert (cert.passed, cert.reason, cert.dimension) == (True, None, dimensions[M]), M

    @pytest.mark.parametrize("X", [1, 2, 3, 5, 9])
    def test_piece_nullities_sum_to_the_commutant_dimension(self, X):
        """The weight pieces of (y, x^X) hold its whole commutant, M <= 17;
        at X = 1 the odd-m, a = 1 pieces close too, so the sum exceeds
        (M+1)//2 there."""
        top = solve_commutant(parse_unipoly(f"x^{X}"), 17).basis
        for M in range(18):
            nullity = _graded_nullities(X, M)
            assert sum(nullity.values()) == len(_prefix(top, M)), M
            closing = {piece for piece, k in nullity.items() if k}
            extra = {(m, 1) for m in range(1, M + 1, 2)} if X == 1 else set()
            assert closing == {(m, 0) for m in range(2, M + 2, 2)} | extra, M

    def test_degree_9_at_M_81_within_budget(self):
        f = parse_unipoly(DEGREE_9_F)
        t0 = time.perf_counter()
        cert = certify_rank_one(f, 81)
        assert time.perf_counter() - t0 < 2.0
        assert cert.passed and cert.dimension == 41

    def test_zero_super_entry_is_caught(self, monkeypatch):
        """Mutation control: a zero super entry breaks the forward substitution
        that bounds a piece's nullity by 1, so the certificate refuses it."""
        real = commutant.substitute

        def zeroed(m, a, p, t=1):
            return None if (m, a) == (4, 0) else real(m, a, p, t)

        monkeypatch.setattr(commutant, "substitute", zeroed)
        cert = certify_rank_one(parse_unipoly("x^2"), 5)
        assert cert.passed is False
        assert cert.reason == "piece (m, a) = (4, 0) at X = 2 has a zero super entry"
        assert "certificate fails: " in _failed_criterion_1()

    def test_skipped_offset_0_pieces_are_caught(self, monkeypatch):
        """Mutation control: without the a = 0 pieces, where the energy
        multiples lead, the pieces bound the dimension below the energy basis."""
        nullities = commutant._graded_nullities
        monkeypatch.setattr(commutant, "_graded_nullities", lambda X, M: {
            piece: k for piece, k in nullities(X, M).items() if piece[1] == 1})
        cert = certify_rank_one(parse_unipoly("x^2"), 5)
        assert cert.passed is False
        assert cert.reason == "the weight pieces at X = 2 bound the dimension by 0, not 3"
        assert "certificate fails: " in _failed_criterion_1()

    def test_pieces_at_X_1_are_caught(self, monkeypatch):
        """Mutation control: the pieces read at X = 1, as if deg f were 1:
        1 is a root of P_m, so the odd-m, a = 1 pieces close."""
        reason = commutant._graded_reason
        monkeypatch.setattr(commutant, "_graded_reason", lambda X, M: reason(1, M))
        cert = certify_rank_one(parse_unipoly("x^2"), 5)
        assert cert.passed is False
        assert cert.reason == "piece (m, a) = (1, 1) at X = 1 has nullity 1, not 0"
        assert "certificate fails: " in _failed_criterion_1()

    def test_energy_basis_is_descending_powers(self, monkeypatch):
        """(H^s delta_f, ..., delta_f), s = floor((M-1)/2), written from the
        binomial rows with no product of ring values."""
        f = parse_unipoly("x^3 - x")
        d, H = newton_derivation(f), hamiltonian(f)
        assert energy_basis(f, 0) == ()
        assert energy_basis(f, 1) == energy_basis(f, 2) == (d,)
        assert energy_basis(f, 5) == energy_basis(f, 6) == (d.scale(H * H), d.scale(H), d)
        calls = []
        scale, dot = PlanarDerivation.scale, poly._dot
        monkeypatch.setattr(PlanarDerivation, "scale",
                            lambda self, g: calls.append("scale") or scale(self, g))
        monkeypatch.setattr(poly, "_dot", lambda *a: calls.append("_dot") or dot(*a))
        for M in range(1, 12):
            assert len(energy_basis(f, M)) == (M - 1) // 2 + 1
        assert calls == []

    def test_rejects_low_degree(self):
        with pytest.raises(HypothesisViolation):
            certify_rank_one(parse_unipoly("x"), 1)
        with pytest.raises(HypothesisViolation):
            certify_rank_one(parse_unipoly("3"), 1)

    @pytest.mark.parametrize("M", [-1, 2.0, "3", None])
    def test_rejects_bad_M(self, M):
        with pytest.raises(InvalidInput):
            certify_rank_one(parse_unipoly("x^2"), M)

    def test_decompositions_reconstruct(self):
        """One unit decomposition per basis element, and each rebuilds its
        element."""
        for f in map(parse_unipoly, ("x^5 + 2*x^2 - 1", "-1/9*x^8 + x^3 - x")):
            for M in range(10):
                cert = certify_rank_one(f, M)
                basis, decs = cert.commutant.basis, cert.decompositions
                assert len(decs) == len(basis) == cert.dimension, (f, M)
                for g, dec in zip(basis, decs):
                    assert dec.reconstruct(f) == g, (f, M)

    def test_replace_moves_the_derived_fields(self):
        """passed, dimension, expected_dimension, commutant and decompositions
        follow the stored fields of a _replace; they are not fields themselves."""
        f, g = parse_unipoly("x^2"), parse_unipoly("x^3 - x")
        cert = certify_rank_one(f, 5)._replace(f=g, M=7, reason="moved")
        assert cert == (g, 7, "moved")
        assert cert.passed is False and cert._replace(reason=None).passed is True
        assert cert.dimension == cert.expected_dimension == 4
        assert cert.commutant == CommutantBasis(g, 7, energy_basis(g, 7))
        assert cert.decompositions == certify_rank_one(g, 7).decompositions
        for name in ("commutant", "decompositions", "dimension", "expected_dimension", "passed"):
            with pytest.raises(ValueError, match="unexpected field names"):
                cert._replace(**{name: None})


ENERGY_FORCES = DEGENERATE_FORCES + FORCES + (
    "3/7*x^3 - 2/5*x + 5/2", "-5/3*x^4 + 1/2*x^3 - 7", "3/4*x^6 - x^2 + 1/9*x - 2",
    "x^7 - 2*x^5 + 3/4*x^2", "-1/9*x^8 + x^3 - x", DEGREE_9_F)


def _mutant(old: str, new: str):
    """energy_basis with the source text old replaced by new, in commutant's namespace."""
    src = inspect.getsource(commutant.energy_basis)
    assert old in src
    namespace = dict(vars(commutant))
    exec(src.replace(old, new), namespace)
    return namespace["energy_basis"]


class TestEnergyBasis:
    """energy_basis against the repeated product by H (energy_oracle)."""

    @pytest.mark.parametrize("f_text", ENERGY_FORCES)
    def test_matches_the_repeated_product(self, f_text):
        f = parse_unipoly(f_text)
        want = energy_oracle.energy_basis(f, 41)
        for M in range(-2, 42):
            assert energy_basis(f, M) == want[len(want) - max(0, (M + 1) // 2):], M

    def test_matches_the_repeated_product_at_M_81(self):
        f = parse_unipoly(DEGREE_9_F)
        assert energy_basis(f, 81) == energy_oracle.energy_basis(f, 81)

    @settings(deadline=None)
    @given(f=unipolys(6), M=st.integers(0, 13))
    def test_matches_the_repeated_product_for_any_f(self, f, M):
        assert energy_basis(f, M) == energy_oracle.energy_basis(f, M)

    @pytest.mark.parametrize("old, new", [("comb(k, j)", "comb(k, j + 1)"),
                                          ("comb(k, j) * Dj[j]", "comb(k, j)")])
    @pytest.mark.parametrize("f_text", ["x^3 - x", DEGREE_9_F])
    def test_mutated_rows_are_caught(self, old, new, f_text):
        """Mutation controls: a wrong binomial, or the D^j weight dropped,
        no longer gives H^k delta_f."""
        f = parse_unipoly(f_text)
        assert _mutant(old, new)(f, 5) != energy_oracle.energy_basis(f, 5)

    @pytest.mark.parametrize("M", [2.0, "3", None, Fraction(3)])
    def test_rejects_non_integer_M(self, M):
        with pytest.raises(InvalidInput):
            energy_basis(parse_unipoly("x^2"), M)

    @pytest.mark.parametrize("M", [0, -1, -7])
    def test_non_positive_M_is_empty(self, M):
        assert energy_basis(parse_unipoly("x^2"), M) == ()


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
