"""Linearization companions, numeric flows, and the rectification check."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtcomm import (
    HypothesisViolation,
    InvalidInput,
    LaurentBiPoly,
    LaurentDerivation,
    LaurentPoly,
    PlanarDerivation,
    RingMismatch,
    SingularDelta,
    UniPoly,
    adaptive_simpson,
    build_family,
    companion_for_linear,
    example_fixture,
    newton_derivation,
    parse_bipoly,
    rectification_defect,
    rk4_flow,
)
from newtcomm import flows
from newtcomm.cli import main

from evaluator_oracle import loop_evaluator
from strategies import bipolys


def D(dx: str, dy: str) -> PlanarDerivation:
    return PlanarDerivation(parse_bipoly(dx), parse_bipoly(dy))


class TestCompanionForLinear:
    def test_newton_linear(self):
        res = companion_for_linear(D("y", "x"))
        assert res.case_label == "case2"
        assert res.delta == D("x", "y")

    def test_constant_field(self):
        res = companion_for_linear(D("3", "5"))
        assert res.case_label == "case0"
        assert companion_for_linear(D("3", "5")).delta.bracket(D("3", "5")).is_zero

    def test_no_x_component(self):
        # d = (0, 2x+1): the returned companion commutes and is transversal
        d = D("0", "2*x + 1")
        res = companion_for_linear(d)
        assert res.case_label.startswith("case4a")
        assert res.delta == D("2*x + 1", "2*y")

    def test_every_companion_commutes_and_is_transversal(self):
        import itertools
        import random

        rng = random.Random(7)
        coeff_pool = list(itertools.product(range(-2, 3), repeat=6))
        rng.shuffle(coeff_pool)
        picked = 0
        for a, b, c, e, f, g in coeff_pool:
            if not any((a, b, c, e, f, g)):
                continue
            if picked >= 60:
                break
            picked += 1
            d = PlanarDerivation(
                parse_bipoly("x") * a + parse_bipoly("y") * b + c,
                parse_bipoly("x") * e + parse_bipoly("y") * f + g,
            )
            res = companion_for_linear(d)
            assert d.bracket(res.delta).is_zero
            det = d.act_x * res.delta.act_y - d.act_y * res.delta.act_x
            assert not det.is_zero

    @pytest.mark.parametrize("dx, dy, label, delta, change", [
        ("3", "5", "case0", ("-5", "3"), None),
        ("2*x", "2*y", "case1", ("y", "x"), None),
        ("x + 2*y", "3*y", "case2", ("x", "y"), None),
        ("x + 1", "2*y - 3", "case3", ("x + 1", "y - 3/2"), "u = x - (-1), v = y - (3/2)"),
        ("x + 1", "y + 2", "case3", ("y + 2", "x + 1"), "u = x - (-1), v = y - (-2)"),
        ("0", "2*x + 1", "case4a", ("2*x + 1", "2*y"), None),
        ("x", "1", "case4b", ("0", "-1"), "swap x<->y"),
        ("x + y + 1", "x + y", "case4b", ("-1", "1"), "z = 1*x - 1*y"),
    ])
    def test_each_label_pinned(self, dx, dy, label, delta, change):
        """(label, delta, change) for one field of each label, both branches of
        case4b, and a multiple of the Euler field about a shifted zero."""
        res = companion_for_linear(D(dx, dy))
        assert (res.case_label, res.delta, res.change_of_coords) == (label, D(*delta), change)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            companion_for_linear(D("0", "0"))

    def test_nonlinear_rejected(self):
        with pytest.raises(HypothesisViolation):
            companion_for_linear(D("x^2", "y"))
        with pytest.raises(HypothesisViolation):
            companion_for_linear(D("x*y", "1"))


class TestNumerics:
    def test_rk4_reproduces_exponential(self):
        # x' = x from x(0) = 1
        d = D("x", "0")
        path = rk4_flow(d, 1.0, 0.0, 1.0, 200)
        t, x, _ = path[-1]
        assert t == pytest.approx(1.0)
        assert x == pytest.approx(math.e, abs=1e-9)

    def test_rk4_step_refinement(self):
        d = D("x", "0")
        err = []
        for steps in (20, 40):
            _, x, _ = rk4_flow(d, 1.0, 0.0, 1.0, steps)[-1]
            err.append(abs(x - math.e))
        # fourth-order method: doubling steps shrinks the error ~16x
        assert err[1] < err[0] / 8

    def test_rk4_path_shape(self):
        d = D("y", "0")
        path = rk4_flow(d, 0.0, 1.0, 2.0, 4)
        assert len(path) == 5
        assert path[0] == (0.0, 0.0, 1.0)
        assert path[-1][1] == pytest.approx(2.0)

    def test_rk4_rejects_non_finite_t_end(self):
        d = D("x", "0")
        for t_end in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInput):
                rk4_flow(d, 1.0, 0.0, t_end, 10)

    def test_rk4_refuses_a_non_integer_step_count(self):
        d = D("x", "0")
        for steps in (2.0, 2.5, "10", None):
            with pytest.raises(InvalidInput, match="^steps must be an integer, got "):
                rk4_flow(d, 1.0, 0.0, 1.0, steps)
        for steps in (0, -3):
            with pytest.raises(InvalidInput, match=r"^steps must be >= 1$"):
                rk4_flow(d, 1.0, 0.0, 1.0, steps)

    def test_rk4_refuses_laurent_fields(self):
        # a Laurent coefficient list is in z = x^(1/t) and starts at a
        # z-shift; read as a list in x, x^(-1) at x = 2 and the family's
        # x^(-5/3) at x = 8 would both evaluate to 1.0
        inverse = LaurentDerivation(1, LaurentBiPoly.y(1),
                                    LaurentBiPoly(1, [LaurentPoly.term(1, -1)]))
        for d, x0, ring in ((inverse, 2.0, "Q[x, x^(-1), y]"),
                            (build_family(2).alpha, 8.0, "Q[x^(1/3), x^(-1/3), y]")):
            with pytest.raises(RingMismatch) as exc:
                rk4_flow(d, x0, 1.0, 0.1, 2)
            assert str(exc.value) == (
                f"float evaluation is an operation of Q[x, y], not of {ring}")

    def test_adaptive_simpson_known_integrals(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
            2.0, abs=1e-9
        )
        assert adaptive_simpson(lambda s: 1.0 / (1.0 + s * s), 0.0, 1.0) == (
            pytest.approx(math.pi / 4, abs=1e-9)
        )
        assert adaptive_simpson(lambda s: s * s, -1.0, 2.0) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_adaptive_simpson_bounds_near_the_float_range(self):
        """Finite bounds whose sum overflows still have finite midpoints."""
        assert adaptive_simpson(lambda s: 1.0, 1e308, 1.7e308) == pytest.approx(7e307)
        assert adaptive_simpson(lambda s: 1.0, -1.7e308, -1e308) == pytest.approx(7e307)

    def test_adaptive_simpson_refuses_non_finite_bounds(self):
        """A NaN or infinite bound has no quadrature; it is refused before
        the integrand is evaluated, not bisected to the depth limit."""
        for a, b in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
                     (math.inf, math.inf)):
            integrand = _counted(math.cos, 0)
            with pytest.raises(InvalidInput, match="^integration bounds must be finite"):
                adaptive_simpson(integrand, a, b)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_adaptive_simpson_ends_on_a_non_finite_integrand(self, value):
        """A NaN (or inf - inf) error estimate ends the branch at once: five
        evaluations, and the result is NaN."""
        integrand = _counted(lambda s: value, 5)
        assert math.isnan(adaptive_simpson(integrand, 0.0, 1.0))


def _counted(fn, budget: int):
    """fn, failing the test once it is called more than budget times."""
    calls = 0

    def counted(s: float) -> float:
        nonlocal calls
        calls += 1
        assert calls <= budget, f"more than {budget} integrand evaluations"
        return fn(s)
    return counted


class TestRectification:
    def test_straight_line_pair(self):
        # d = (1, 0), delta = (0, 1): F is the identity up to the base point
        report = rectification_defect(D("1", "0"), D("0", "1"), 0, 0, 1.0, 64)
        assert report.passed
        assert report.max_defect < 1e-9

    def test_tangent_example_regression(self):
        d, delta, evaluator = example_fixture()
        report = rectification_defect(
            d, delta, 0, 1, 1.0, 10_000, reference=lambda t: evaluator(t)
        )
        assert report.passed
        assert report.max_defect < 1e-6
        assert report.trajectory_error is not None
        assert report.trajectory_error < 1e-6
        # the defect path uses IEEE arithmetic only, so its value is
        # reproducible; it moves if the checkpoints, the quadrature or the
        # order of any float operation do
        assert report.max_defect == 1.112155922911029e-10
        assert report.trajectory_error == 2.886579864025407e-15

    def test_hyperbolic_pair_before_the_singularity(self):
        # d = (y, x) flowing from (2, 1) stays clear of |y| = |x| until
        # roughly t = 0.45; the check passes on [0, 0.4]
        report = rectification_defect(D("y", "x"), D("x", "y"), 2, 1, 0.4, 4000)
        assert report.passed

    def test_hyperbolic_pair_hits_the_singularity(self):
        # ... and by t = 1 the quadrature path crosses det = y^2 - x^2 = 0
        with pytest.raises(SingularDelta):
            rectification_defect(D("y", "x"), D("x", "y"), 2, 1, 1.0, 4000)

    def test_exhausted_quadrature_budget_is_named(self, monkeypatch):
        # running out of evaluations is reported as such, not as a zero of Delta
        monkeypatch.setattr(flows, "QUAD_EVAL_BUDGET", 100)
        d, delta, _ = example_fixture()
        with pytest.raises(SingularDelta, match="budget of 100 Delta evaluations"):
            rectification_defect(d, delta, 0, 1, 1.0, 1000)

    def test_trajectory_leaving_the_float_range_is_named(self, monkeypatch, capsys):
        # x' = x^2 from x = 1 blows up at t = 1: the RK4 samples overflow
        # (step 52 is ~2e173, step 53 NaN), which is reported before any
        # quadrature runs, not as a spent quadrature budget
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran on a non-finite trajectory")

        monkeypatch.setattr(flows, "adaptive_simpson", no_quadrature)
        code = main(["flow-check", "--dx", "x^2", "--dy", "0", "--gx", "0", "--gy", "1",
                     "--x0", "1", "--y0", "0", "--t-end", "2", "--steps", "100"])
        assert code == 1
        assert capsys.readouterr().err == (
            "fail: the trajectory leaves the float range at RK4 step 53 of 100 (t = 1.06)\n")

    def test_nan_in_a_later_reference_sample_is_reported(self):
        # max() keeps a NaN only as its first argument; the error must not
        # drop one that shows up after finite samples
        d, delta, evaluator = example_fixture()
        report = rectification_defect(
            d, delta, 0, 1, 1.0, 64,
            reference=lambda t: (math.nan, 0.0) if t > 0.5 else evaluator(t))
        assert math.isnan(report.trajectory_error)
        assert not report.passed

    def test_non_commuting_rejected_exactly(self):
        with pytest.raises(HypothesisViolation):
            rectification_defect(D("1", "0"), D("x", "y"), 0, 0, 1.0, 10)

    def test_parallel_fields_rejected(self):
        d = D("1", "1")
        with pytest.raises(SingularDelta):
            rectification_defect(d, d, 0, 0, 1.0, 10)

    def test_singular_base_point(self):
        # delta = (x, y) vanishes at the origin: Delta(0,0) = 0 exactly
        with pytest.raises(SingularDelta):
            rectification_defect(D("y", "x"), D("x", "y"), 0, 0, 1.0, 10)

    def test_newton_with_energy_multiple_is_rejected(self):
        # gamma = H * d commutes with d but det(d, H d) = 0 identically
        f = UniPoly([0, 0, 1])
        d = newton_derivation(f)
        from newtcomm import hamiltonian

        gamma = d.scale(hamiltonian(f))
        with pytest.raises(SingularDelta):
            rectification_defect(d, gamma, 1, 1, 0.5, 100)


@given(bipolys())
def test_float_rows_are_the_fraction_view_rounded(p):
    assert flows._float_rows(p) == [[float(c) for c in u.coeffs] for u in p.ycoeffs]


def test_float_rows_of_a_fractional_bipoly():
    p = parse_bipoly("1/3*x^2*y - 7/10*x + 2/7*y^2 + 1/49 - 5/3*x^3*y^2")
    rows = flows._float_rows(p)
    assert rows == [[float(c) for c in u.coeffs] for u in p.ycoeffs]
    assert rows[1][2] == 1 / 3


def test_float_rows_name_a_coefficient_beyond_the_float_range():
    with pytest.raises(InvalidInput, match=r"^coefficient -10{400} is outside the float range$"):
        flows._float_rows(parse_bipoly("x - 1" + "0" * 400))


def test_base_point_beyond_the_float_range_is_named():
    d, delta, _ = example_fixture()
    with pytest.raises(InvalidInput, match=r"^y0 10{400} is outside the float range$"):
        rectification_defect(d, delta, 0, 10 ** 400, 1.0, 10)


def _same_float(a: float, b: float) -> bool:
    """a and b are the same double: equal with the same sign, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SPECIAL_POINTS = (0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan,
                  1e300, -1e300, 5e-324)


class TestCompiledEvaluator:
    """compile_evaluator gives the nested loop's float, bit for bit."""

    @given(bipolys(max_ydeg=4, max_xdeg=4), st.floats(), st.floats())
    def test_matches_the_loop(self, p, x, y):
        assert _same_float(flows.compile_evaluator(p)(x, y), loop_evaluator(p)(x, y))

    @pytest.mark.parametrize("text", ["0", "1", "-x", "x*y - 1/3",
                                      "1/3*x^2*y - 7/10*x + 2/7*y^2 + 1/49 - 5/3*x^3*y^2",
                                      "y^3", "x^3"])
    def test_special_points(self, text):
        p = parse_bipoly(text)
        ev, oracle = flows.compile_evaluator(p), loop_evaluator(p)
        for x in SPECIAL_POINTS:
            for y in SPECIAL_POINTS:
                assert _same_float(ev(x, y), oracle(x, y)), (text, x, y)

    @pytest.mark.parametrize("var", ["x", "y"])
    def test_high_degree(self, var):
        # one nested expression per polynomial would pass the parser's
        # nesting limit long before 450 coefficients
        p = parse_bipoly(" + ".join(f"{(-1) ** k * (k + 1)}/{k + 2}*{var}^{k}"
                                    for k in range(450)))
        ev, oracle = flows.compile_evaluator(p), loop_evaluator(p)
        for v in (0.5, -0.999, 1.0001, -1.0, 2.0, math.inf, math.nan, -0.0):
            assert _same_float(ev(v, v), oracle(v, v)), v
