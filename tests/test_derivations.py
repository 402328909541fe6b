"""Derivations of Q[x,y]: Leibniz, brackets, and the Newton vector field."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from newtcomm import (
    BiPoly,
    LaurentBiPoly,
    LaurentDerivation,
    LaurentPoly,
    PlanarDerivation,
    RingMismatch,
    UniPoly,
    hamiltonian,
    newton_derivation,
    parse_bipoly,
    parse_laurent_bipoly,
    parse_unipoly,
)
from newtcomm import commutant, family, flows, obstruction, parity, selftest

import derivation_oracle as oracle
from strategies import (assert_normal_form, bipolys, derivations, laurentbipolys,
                        laurentderivations)

ZERO_D = PlanarDerivation(BiPoly.zero(), BiPoly.zero())
Y_FREE_D = PlanarDerivation(parse_bipoly("x^2 - 1/2"), parse_bipoly("3"))
NEWTON_D = PlanarDerivation(parse_bipoly("y"), parse_bipoly("x^3 - x"))


def _laurent_cases(*parts):
    """Hypothesis tuples of values of one Laurent ring, t in {1, 3}, drawn
    from the strategies named in parts."""
    makers = {"d": laurentderivations, "p": lambda t: laurentbipolys(t, 2, 3)}
    return st.sampled_from((1, 3)).flatmap(lambda t: st.tuples(*(makers[k](t) for k in parts)))


def _assert_same_values(got: tuple, want: tuple) -> None:
    assert got == want
    for v in got:
        assert_normal_form(v)


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

    @given(derivations(), bipolys())
    @example(ZERO_D, parse_bipoly("x^2*y + 1"))
    @example(NEWTON_D, BiPoly.zero())
    @example(NEWTON_D, BiPoly.const(5))
    @example(Y_FREE_D, parse_bipoly("x*y^2 - y"))
    @example(NEWTON_D, parse_bipoly("x^3 - 2"))
    def test_apply_matches_operator_formula(self, d, p):
        _assert_same_values((d.apply(p),), (oracle.apply(d, p),))

    @given(derivations(), derivations())
    @example(ZERO_D, NEWTON_D)
    @example(NEWTON_D, ZERO_D)
    @example(Y_FREE_D, NEWTON_D)
    @example(Y_FREE_D, PlanarDerivation(parse_bipoly("x"), parse_bipoly("1")))
    def test_bracket_matches_operator_formula(self, d, e):
        b = d.bracket(e)
        assert type(b) is PlanarDerivation
        _assert_same_values((b.act_x, b.act_y), oracle.bracket(d, e))

    @given(derivations(), derivations())
    @example(ZERO_D, NEWTON_D)
    @example(Y_FREE_D, NEWTON_D)
    @example(NEWTON_D, NEWTON_D)
    def test_det_matches_operator_formula(self, d, e):
        _assert_same_values((d.det(e),), (oracle.det(d, e),))

    def test_apply_coerces_scalars_and_univariate_values(self):
        for p in (0, 5, Fraction(-2, 3), UniPoly.x(), parse_unipoly("x^3 - 1/2*x")):
            assert NEWTON_D.apply(p) == oracle.apply(NEWTON_D, NEWTON_D.act_x._coerce(p))

    @pytest.mark.parametrize("act_x, act_y, rings", [
        (BiPoly.y(), LaurentBiPoly.y(3), ("Q[x, y]", "Q[x^(1/3), x^(-1/3), y]")),
        (LaurentBiPoly.y(3), BiPoly.y(), ("Q[x^(1/3), x^(-1/3), y]", "Q[x, y]")),
        (LaurentBiPoly.y(1), BiPoly.y(), ("Q[x, x^(-1), y]", "Q[x, y]")),
        (LaurentBiPoly.y(2), LaurentBiPoly.y(3),
         ("Q[x^(1/2), x^(-1/2), y]", "Q[x^(1/3), x^(-1/3), y]")),
        (UniPoly.x(), BiPoly.y(), ("Q[x]", "Q[x, y]")),
        (BiPoly.y(), UniPoly.x(), ("Q[x, y]", "Q[x]")),
        (3, BiPoly.y(), ("int", "Q[x, y]")),
        (BiPoly.y(), Fraction(1, 2), ("Q[x, y]", "Fraction")),
    ])
    def test_values_must_lie_in_one_ring(self, act_x, act_y, rings):
        with pytest.raises(RingMismatch) as info:
            PlanarDerivation(act_x, act_y)
        assert f"in {rings[0]} and {rings[1]}:" in str(info.value)

    @pytest.mark.parametrize("t", [1, 3])
    def test_bracket_and_det_refuse_another_ring(self, t):
        d = PlanarDerivation(BiPoly.y(), BiPoly.x())
        e = LaurentDerivation(t, LaurentBiPoly.y(t), LaurentBiPoly.y(t))
        for op in ("bracket", "det"):
            for a, b in ((d, e), (e, d)):
                with pytest.raises(RingMismatch):
                    getattr(a, op)(b)
            with pytest.raises(RingMismatch):
                getattr(d, op)(BiPoly.x())
        with pytest.raises(RingMismatch):
            e.bracket(LaurentDerivation(t + 1, LaurentBiPoly.y(t + 1), LaurentBiPoly.y(t + 1)))

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

    def test_apply_and_scale_take_ring_elements_only(self):
        for op, value in ((NEWTON_D.apply, "x"), (NEWTON_D.scale, object())):
            with pytest.raises(RingMismatch, match=f"^{type(value).__name__} is not an element "
                                                   "of the derivation's ring$"):
                op(value)

    def test_no_sum_with_a_scalar(self):
        for op in (lambda d: d + 1, lambda d: d - 1, lambda d: 1 + d):
            with pytest.raises(TypeError):
                op(NEWTON_D)

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
            assert d.divergence().is_zero

    def test_multiples_of_newton_commute(self):
        f = parse_unipoly("x^3 - x")
        d = newton_derivation(f)
        h = hamiltonian(f)
        assert d.bracket(d.scale(h)).is_zero
        assert d.bracket(d.scale(h * h + 3)).is_zero


class TestASumThatCancels:
    """A sum of products that cancels (poly._dot) is returned as its ring's
    zero in the normal form an all-zero grid has: no rows, denominator 1, the
    ring's t; == and hash-equal to that zero, printed 0."""

    @staticmethod
    def assert_ring_zero(p, zero):
        assert type(p) is type(zero) and p.t == zero.t
        assert p._rows == () and p._d == 1
        assert p == zero and hash(p) == hash(zero) and str(p) == "0"
        assert_normal_form(p)

    @pytest.mark.parametrize("k, t", [(2, 3), (5, 9)])
    def test_a_commuting_laurent_pair(self, k, t):
        fam = family.build_family(k, Fraction(-9, 8))
        assert fam.t == t
        bracket = fam.alpha.bracket(fam.beta)
        for v in (bracket.act_x, bracket.act_y):
            self.assert_ring_zero(v, LaurentBiPoly.const(t, 0))

    def test_a_commuting_polynomial_pair(self):
        f = parse_unipoly("x^3 - x")
        d = newton_derivation(f)
        bracket = d.bracket(d.scale(hamiltonian(f) * 3 + 2))
        for v in (bracket.act_x, bracket.act_y):
            self.assert_ring_zero(v, BiPoly.zero())

    def test_delta_f_kills_the_energy_and_its_square(self):
        f = parse_unipoly("6*x^2 + 5/3")
        h = hamiltonian(f)
        for p in (h, h * h):
            self.assert_ring_zero(newton_derivation(f).apply(p), BiPoly.zero())

    def test_a_sum_whose_first_cells_are_zero_is_kept(self):
        """NEWTON_D(x^5*y) = 5*x^4*y^2 + x^8 - x^6: its grid starts at y^0 z^4,
        a zero cell, so only a test of every cell tells it from zero."""
        p = parse_bipoly("x^5*y")
        got = NEWTON_D.apply(p)
        want = p.dx() * NEWTON_D.act_x + p.dy() * NEWTON_D.act_y
        assert got == want == parse_bipoly("5*x^4*y^2 + x^8 - x^6")
        assert got._rows == want._rows and got._d == want._d
        assert_normal_form(got)


class TestLaurentDerivation:
    def test_t_mismatch(self):
        t3 = LaurentBiPoly.y(3)
        with pytest.raises(RingMismatch):
            LaurentDerivation(2, t3, t3)
        with pytest.raises(RingMismatch, match=r"in Q\[x, y\], not in Q\[x, x\^\(-1\), y\]"):
            LaurentDerivation(1, BiPoly.y(), BiPoly.x())
        with pytest.raises(RingMismatch):
            LaurentDerivation(3, t3, BiPoly.y())

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

    @given(_laurent_cases("d", "d", "p"))
    def test_bracket_is_commutator(self, case):
        d, e, p = case
        assert d.bracket(e).apply(p) == d.apply(e.apply(p)) - e.apply(d.apply(p))

    @given(_laurent_cases("d", "p"))
    def test_apply_matches_operator_formula(self, case):
        d, p = case
        _assert_same_values((d.apply(p),), (oracle.apply(d, p),))

    @given(_laurent_cases("d", "d"))
    def test_bracket_and_det_match_operator_formulas(self, case):
        d, e = case
        b = d.bracket(e)
        assert b.t == d.t
        _assert_same_values((b.act_x, b.act_y), oracle.bracket(d, e))
        _assert_same_values((d.det(e),), (oracle.det(d, e),))

    @pytest.mark.parametrize("t", [1, 3])
    def test_zero_constant_and_y_free_edges(self, t):
        zero = LaurentDerivation(t, LaurentBiPoly(t), LaurentBiPoly(t))
        y_free = LaurentDerivation(t, LaurentBiPoly.from_laurent(LaurentPoly.term(t, -2, 3)),
                                   LaurentBiPoly.const(t, Fraction(1, 2)))
        alpha = LaurentDerivation(t, LaurentBiPoly.y(t),
                                  LaurentBiPoly.from_laurent(LaurentPoly.term(t, -3)))
        values = (LaurentBiPoly(t), LaurentBiPoly.const(t, 7),
                  LaurentBiPoly.from_laurent(LaurentPoly(t, {-1: 2, 0: 1})),
                  LaurentBiPoly.y_pow(t, 2, LaurentPoly.term(t, -4)))
        for d in (zero, y_free, alpha):
            for p in values:
                _assert_same_values((d.apply(p),), (oracle.apply(d, p),))
            for e in (zero, y_free, alpha):
                b = d.bracket(e)
                _assert_same_values((b.act_x, b.act_y), oracle.bracket(d, e))
                _assert_same_values((d.det(e),), (oracle.det(d, e),))

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


class TestEqualityAcrossClasses:
    """A derivation is its ring and its values on x and y: PlanarDerivation
    and the LaurentDerivation constructor build the same class, and which
    of them declared it does not enter ==."""

    @pytest.mark.parametrize("t", [1, 3])
    def test_equal_values_are_equal_both_ways(self, t):
        vx, vy = LaurentBiPoly.y(t), LaurentBiPoly.from_laurent(LaurentPoly.term(t, -2, 5))
        a, b = PlanarDerivation(vx, vy), LaurentDerivation(t, vx, vy)
        assert type(b) is PlanarDerivation
        assert a == b and b == a and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("t", [1, 3])
    def test_bracket_is_the_same_from_either_constructor(self, t):
        y = LaurentBiPoly.y(t)
        a, b = PlanarDerivation(y, y), LaurentDerivation(t, y, y)
        ab, ba = a.bracket(b), b.bracket(a)
        assert ab == ba and hash(ab) == hash(ba) and ab.is_zero
        e = LaurentDerivation(t, LaurentBiPoly.from_laurent(LaurentPoly.term(t, -1)), y)
        pe = PlanarDerivation(e.act_x, e.act_y)
        assert a.bracket(e) == -e.bracket(a) == b.bracket(pe) == -pe.bracket(b)
        assert hash(a.bracket(e)) == hash(b.bracket(pe))

    def test_rings_and_values_still_separate(self):
        d = PlanarDerivation(BiPoly.y(), BiPoly.x())
        laurent = LaurentDerivation(1, LaurentBiPoly.y(1),
                                    LaurentBiPoly.from_laurent(LaurentPoly.term(1, 1)))
        assert d != laurent and laurent != d  # same text, another ring
        assert LaurentDerivation(1, laurent.act_x, laurent.act_y) == laurent
        assert LaurentDerivation(3, LaurentBiPoly.y(3), LaurentBiPoly.y(3)) != LaurentDerivation(
            5, LaurentBiPoly.y(5), LaurentBiPoly.y(5))
        assert d != PlanarDerivation(BiPoly.x(), BiPoly.y())
        assert d != (d.act_x, d.act_y) and d != "(x -> y, y -> x)"


# Every result record and its fields, in order
RECORDS = [
    (commutant.CommutantBasis, ("f", "M", "basis")),
    (commutant.HDecomposition, ("q_coeffs",)),
    (commutant.RankOneCertificate, ("f", "M", "reason")),
    (family.LaurentFamily, ("k", "t", "a", "alpha", "beta")),
    (flows.LinearizationResult, ("delta", "case_label", "change_of_coords")),
    (flows.FlowCheckReport, ("max_defect", "trajectory_error", "steps", "tolerance")),
    (obstruction.ObstructionPoly, ("m", "P")),
    (parity.SystemEquation, ("label", "level", "form", "text")),
    (parity.ParitySystem, ("kind", "m", "f", "equations")),
    (parity.SolutionSpace, ("basis", "forced")),
    (parity.LemmaCheck, ("name", "kind", "m", "passed", "dimension", "forced", "detail")),
    (parity.LemmaSuiteReport, ("f", "m_max", "checks")),
    (selftest.CriterionResult, ("name", "passed", "detail", "seconds")),
]


class TestRecordSemantics:
    """A derivation is an immutable slotted object with operators of its own,
    not a tuple; the result records are named tuples of fixed fields."""

    def test_assignment_refused(self):
        d = PlanarDerivation(parse_bipoly("y"), parse_bipoly("x^3 - x"))
        for name in ("act_x", "act_y", "other"):
            with pytest.raises(AttributeError, match="PlanarDerivation is immutable"):
                setattr(d, name, BiPoly.x())
        with pytest.raises(AttributeError, match="PlanarDerivation is immutable"):
            del d.act_x
        assert d == NEWTON_D

    def test_equal_derivations_hash_alike(self):
        d = PlanarDerivation(parse_bipoly("y"), parse_bipoly("x^3 - x"))
        assert d is not NEWTON_D and d == NEWTON_D and hash(d) == hash(NEWTON_D)
        pair = (d.act_x, d.act_y)
        assert d != pair and pair != d and not d == pair

    def test_no_sequence_protocol(self):
        d = NEWTON_D
        for op in (lambda: 2 * d, lambda: d * 2, lambda: len(d), lambda: iter(d),
                   lambda: d[0]):
            with pytest.raises(TypeError):
                op()

    def test_repr_text(self):
        assert repr(NEWTON_D) == "PlanarDerivation(act_x=BiPoly[y], act_y=BiPoly[x^3 - x])"
        d = LaurentDerivation(3, parse_laurent_bipoly("y", 3), parse_laurent_bipoly("x^(-5/3)", 3))
        assert repr(d) == ("PlanarDerivation(act_x=LaurentBiPoly[t=3; y], "
                           "act_y=LaurentBiPoly[t=3; x^(-5/3)])")

    @pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
    def test_record_fields(self, record, fields):
        assert record._fields == fields
        assert record._field_defaults == (
            {"change_of_coords": None} if record is flows.LinearizationResult else {})
