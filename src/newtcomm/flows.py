"""Commuting companions for degree-one fields, and a numeric rectification check.

Every nonzero derivation d with affine components admits an exactly
commuting, generically transversal companion delta, found by a case split
on the coefficients of d(x) = ax+by+c, d(y) = ex+fy+g.  The companion and
(for the shifted/sheared cases) the change of coordinates that produced it
are returned in the ORIGINAL variables, with the bracket re-verified to be
exactly zero before returning.

The numeric half integrates the flow of d and checks the rectifying map

    F1 = int_{x0}^{x} g2/Delta dr + int_{y0}^{y} -g1(x0,s)/Delta(x0,s) ds
    F2 = int_{x0}^{x} -f2/Delta dr + int_{y0}^{y} f1(x0,s)/Delta(x0,s) ds

(Delta = f1 g2 - f2 g1 for d = (f1, f2), delta = (g1, g2)) against the
identity F(x(t), y(t)) = (t, 0) along the trajectory.  A check evaluates
polynomials ~10^5 times, so each is compiled once to straight-line Horner
code with a Horner loop's float operations in the loop's order: no loop
runs per call, and every float comes out as the loop gave it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .derivations import PlanarDerivation
from .errors import HypothesisViolation, InvalidInput, SingularDelta, is_int
from .poly import BiPoly


# ---------------------------------------------------------------- companions

class LinearizationResult(NamedTuple):
    delta: PlanarDerivation
    case_label: str
    change_of_coords: str | None = None


def _affine_coeffs(p: BiPoly) -> tuple[Fraction, Fraction, Fraction]:
    """p = a*x + b*y + c, or HypothesisViolation."""
    if p.y_degree > 1 or p.ycoeff(0).degree > 1 or p.ycoeff(1).degree > 0:
        raise HypothesisViolation("component has total degree > 1")
    return p.ycoeff(0).coeff(1), p.ycoeff(1).coeff(0), p.ycoeff(0).coeff(0)


def _affine(a: Fraction, b: Fraction, c: Fraction) -> BiPoly:
    return a * BiPoly.x() + b * BiPoly.y() + BiPoly.const(c)


def _solve_first_constant(c: Fraction, e: Fraction, f: Fraction,
                          g: Fraction) -> tuple[BiPoly, BiPoly]:
    """Companion for (c, e*x + f*y + g) with constant first component."""
    if f != 0:
        return BiPoly.const(-f), BiPoly.const(e)
    if c != 0:
        return BiPoly.zero(), BiPoly.one()
    return _affine(e, Fraction(0), g), e * BiPoly.y()


def _substituted(p: BiPoly, first: BiPoly, second: BiPoly) -> BiPoly:
    """Rewrite the affine p(x, y) with x := first, y := second."""
    a, b, c = _affine_coeffs(p)
    return a * first + b * second + BiPoly.const(c)


def companion_for_linear(d: PlanarDerivation) -> LinearizationResult:
    """An exactly commuting, transversal companion for an affine derivation."""
    if d.is_zero:
        raise InvalidInput("the zero derivation has no transversal companion")
    a, b, c = _affine_coeffs(d.act_x)
    e, f, g = _affine_coeffs(d.act_y)
    x, y = BiPoly.x(), BiPoly.y()

    change: str | None = None
    det = a * f - b * e
    if a == b == e == f == 0:
        label = "case0"
        delta = PlanarDerivation(BiPoly.const(-g), BiPoly.const(c))
    elif c == g == 0 or det != 0:
        # d vanishes at the origin, or else at its one zero (x0, y0).  About that
        # point the Euler field (u, v) commutes with d; when d is a multiple of
        # it, the swap field (v, u) does, and is transversal
        scalar = b == e == 0 and a == f
        if c == g == 0:
            label, u, v = "case1" if scalar else "case2", x, y
        else:
            label, x0, y0 = "case3", (-c * f + b * g) / det, (-a * g + c * e) / det
            u, v = x - BiPoly.const(x0), y - BiPoly.const(y0)
            change = f"u = x - ({x0}), v = y - ({y0})"
        delta = PlanarDerivation(v, u) if scalar else PlanarDerivation(u, v)
    elif a == 0 and b == 0:
        label = "case4a"
        dx, dy = _solve_first_constant(c, e, f, g)
        delta = PlanarDerivation(dx, dy)
    else:
        label = "case4b"
        if e == 0 and f == 0:
            # d(y) constant: swap the variables and reuse the constant case
            sx, sy = _solve_first_constant(g, b, a, c)
            delta = PlanarDerivation(_substituted(sy, y, x),
                                     _substituted(sx, y, x))
            change = "swap x<->y"
        else:
            # z = p*x - q*y with (p, q) = (e, a), or (f, b) when a = 0 (then
            # b != 0 forces e = 0), is constant along d; the system in (z, y)
            # has constant first component (p*c - q*g, (e/p)*z + (q*e/p + f)*y + g)
            p, q = (e, a) if a != 0 else (f, b)
            z = _affine(p, -q, Fraction(0))
            sz, sy = _solve_first_constant(p * c - q * g, e / p, q * e / p + f, g)
            delta_z = _substituted(sz, z, y)
            delta_y = _substituted(sy, z, y)
            delta = PlanarDerivation((delta_z + q * delta_y) * (1 / p), delta_y)
            change = f"z = {p}*x - {q}*y"

    if not d.bracket(delta).is_zero:
        raise RuntimeError(f"internal: {label} companion does not commute")
    if d.det(delta).is_zero:
        raise RuntimeError(f"internal: {label} companion is not transversal")
    return LinearizationResult(delta=delta, case_label=label,
                               change_of_coords=change)


# ------------------------------------------------------------------ numerics

def _float(q: Fraction, what: str) -> float:
    """q as the nearest float (int / int rounds correctly), or InvalidInput."""
    try:
        return q.numerator / q.denominator
    except OverflowError:
        raise InvalidInput(f"{what} {q} is outside the float range") from None


def _float_rows(p: BiPoly) -> list[list[float]]:
    """y-coefficients as float lists in x; a Laurent value, whose lists are
    in z = x^(1/t) from a z-shift, raises RingMismatch."""
    p._polynomial_only("float evaluation")
    return [[_float(c, "coefficient") for c in u.coeffs] for u in p.ycoeffs]


def compile_evaluator(p: BiPoly) -> Callable[[float, float], float]:
    """A float-only evaluator of p, Horner in both variables, compiled once
    to straight-line source: `a = a * x + c` per coefficient, where c is the
    repr of a float (exact on reading back, and the only text spliced in),
    and `t = t * y + a` per y-row.  These are the nested Horner loop's IEEE
    operations in its order, so every result, inf, NaN and -0.0 included,
    is bit-identical to the loop's, without its cost per call.  Statements,
    not one nested expression, keep the parser's nesting limit away."""
    lines = ["def ev(x, y):", "    t = 0.0"]
    for row in reversed(_float_rows(p)):
        lines += ["    a = 0.0", *(f"    a = a * x + {cf!r}" for cf in reversed(row)),
                  "    t = t * y + a"]
    namespace: dict = {}
    exec("\n".join(lines + ["    return t"]), namespace)
    return namespace["ev"]


def rk4_flow(d: PlanarDerivation, x0: float, y0: float, t_end: float,
             steps: int) -> list[tuple[float, float, float]]:
    """Classical fixed-step RK4 trajectory [(t, x, y)] of the flow of d."""
    if not is_int(steps):
        raise InvalidInput(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise InvalidInput("steps must be >= 1")
    if not math.isfinite(t_end):
        raise InvalidInput(f"t_end must be finite, got {t_end}")
    fx, fy = compile_evaluator(d.act_x), compile_evaluator(d.act_y)
    h = t_end / steps
    xv, yv = float(x0), float(y0)
    out = [(0.0, xv, yv)]
    for i in range(steps):
        k1x, k1y = fx(xv, yv), fy(xv, yv)
        xa, ya = xv + 0.5 * h * k1x, yv + 0.5 * h * k1y
        k2x, k2y = fx(xa, ya), fy(xa, ya)
        xa, ya = xv + 0.5 * h * k2x, yv + 0.5 * h * k2y
        k3x, k3y = fx(xa, ya), fy(xa, ya)
        xa, ya = xv + h * k3x, yv + h * k3y
        k4x, k4y = fx(xa, ya), fy(xa, ya)
        xv += h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        yv += h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
        out.append(((i + 1) * h, xv, yv))
    return out


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature with Richardson correction to QUAD_TOL; NaN ends a branch."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInput(f"integration bounds must be finite, got {a} and {b}")
    if a == b:
        return 0.0

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo: float, hi: float, flo: float, fmid: float, fhi: float,
                whole: float, eps: float, depth: int) -> float:
        mid = 0.5 * lo + 0.5 * hi  # halved first, so a sum past the float range cannot overflow
        fl = fn(0.5 * lo + 0.5 * mid)
        fr = fn(0.5 * mid + 0.5 * hi)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or not abs(left + right - whole) > 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, eps / 2.0, depth - 1))

    fa, fm, fb = fn(a), fn(0.5 * a + 0.5 * b), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, QUAD_TOL, 48)


def _worst(errors: list[float]) -> float:
    """The largest error, NaN if any is (max drops a NaN it does not see first)."""
    return math.nan if any(map(math.isnan, errors)) else max(errors)


class FlowCheckReport(NamedTuple):
    max_defect: float
    trajectory_error: float | None
    steps: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(math.isfinite(e) and e < self.tolerance
                   for e in (self.max_defect, self.trajectory_error) if e is not None)


# Delta evaluations one rectification_defect call may spend on quadrature;
# beyond it the integrals are treated as not converging.
QUAD_EVAL_BUDGET = 2_000_000
QUAD_TOL = 1e-9  # adaptive Simpson tolerance of each rectifying integral
TOLERANCE = 1e-6  # largest defect (and trajectory error) that passes
CHECKPOINTS = 33  # trajectory points, evenly spaced in steps, where F is checked


def rectification_defect(d: PlanarDerivation, delta: PlanarDerivation,
                         x0: Fraction | int, y0: Fraction | int, t_end: float, steps: int,
                         *, reference: Callable[[float], tuple[float, float]] | None = None,
                         ) -> FlowCheckReport:
    """max |F(x(t), y(t)) - (t, 0)| along the numeric flow of d.

    The bracket hypothesis is checked exactly, transversality exactly at
    (x0, y0).  A trajectory that leaves the float range, vanishing of Delta
    encountered during quadrature, or more than QUAD_EVAL_BUDGET
    evaluations of it, raises SingularDelta.
    trajectory_error is filled when a reference solution
    t -> (x, y) is supplied.
    """
    if not d.bracket(delta).is_zero:
        raise HypothesisViolation("derivations do not commute")
    x0, y0 = Fraction(x0), Fraction(y0)
    x0f, y0f = _float(x0, "x0"), _float(y0, "y0")
    delta_poly = d.det(delta)
    if delta_poly.evaluate(x0, y0) == 0:
        raise SingularDelta(f"Delta vanishes at ({x0}, {y0})")

    f1, f2, g1, g2, dl = map(compile_evaluator, (d.act_x, d.act_y, delta.act_x,
                                                 delta.act_y, delta_poly))

    evals = 0

    def guard(v: float) -> float:
        nonlocal evals
        evals += 1
        if abs(v) < 1e-12:
            raise SingularDelta("Delta vanishes along the integration path")
        if evals > QUAD_EVAL_BUDGET:
            raise SingularDelta(f"quadrature exceeded its budget of "
                                f"{QUAD_EVAL_BUDGET} Delta evaluations")
        return v

    def scan(fixed: float, lo: float, hi: float, vertical: bool) -> None:
        """Refuse quadrature segments on which Delta changes sign or dips
        to zero; the rectifying integrals are divergent there."""
        samples = [dl(fixed, lo + (hi - lo) * i / 128.0) if vertical
                   else dl(lo + (hi - lo) * i / 128.0, fixed)
                   for i in range(129)]
        scale = max(abs(v) for v in samples)
        if scale == 0.0 or min(samples) < 0.0 < max(samples) \
                or min(abs(v) for v in samples) < 1e-9 * scale:
            raise SingularDelta("Delta vanishes along the integration path")

    traj = rk4_flow(d, x0f, y0f, t_end, steps)
    # RK4 keeps an inf or NaN coordinate non-finite: the last sample tells for all
    if not (math.isfinite(traj[-1][1]) and math.isfinite(traj[-1][2])):
        i, t = next((i, t) for i, (t, xv, yv) in enumerate(traj)
                    if not (math.isfinite(xv) and math.isfinite(yv)))
        raise SingularDelta(f"the trajectory leaves the float range at RK4 step "
                            f"{i} of {steps} (t = {t:g})")

    traj_err: float | None = None
    if reference is not None:
        gaps = [0.0]
        for t, xv, yv in traj:
            rx, ry = reference(t)
            gaps += (abs(xv - rx), abs(yv - ry))
        traj_err = _worst(gaps)

    marks = sorted({round(i * steps / (CHECKPOINTS - 1))
                    for i in range(CHECKPOINTS)} | {0, steps})
    defects = [0.0]
    for idx in marks:
        t, xv, yv = traj[idx]
        scan(x0f, y0f, yv, vertical=True)
        scan(yv, x0f, xv, vertical=False)
        F1 = (adaptive_simpson(lambda r: g2(r, yv) / guard(dl(r, yv)), x0f, xv)
              + adaptive_simpson(lambda s: -g1(x0f, s) / guard(dl(x0f, s)), y0f, yv))
        F2 = (adaptive_simpson(lambda r: -f2(r, yv) / guard(dl(r, yv)), x0f, xv)
              + adaptive_simpson(lambda s: f1(x0f, s) / guard(dl(x0f, s)), y0f, yv))
        defects += (abs(F1 - t), abs(F2))
    return FlowCheckReport(max_defect=_worst(defects), trajectory_error=traj_err,
                           steps=steps, tolerance=TOLERANCE)


def example_fixture() -> tuple[PlanarDerivation, PlanarDerivation,
                               Callable[[float], tuple[float, float]]]:
    """The divergence-free pair d = (1+x^2, -2xy), delta = (0, y) and the
    closed-form flow from (0, 1): x(t) = tan t, y(t) = cos^2 t."""
    d = PlanarDerivation(BiPoly.one() + BiPoly.x() * BiPoly.x(),
                         BiPoly.monomial(1, 1, Fraction(-2)))
    delta = PlanarDerivation(BiPoly.zero(), BiPoly.y())

    def evaluator(t: float) -> tuple[float, float]:
        return math.tan(t), math.cos(t) ** 2

    return d, delta, evaluator
