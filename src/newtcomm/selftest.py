"""The seven executable acceptance checks, shared by the CLI and the test suite.

Each criterion function returns a CriterionResult and never raises on a
mathematical failure — failures are reported, not thrown — so the CLI can
print a complete scoreboard.  Checks are deterministic given the seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import commutant, family, flows, obstruction, parity
from .derivations import PlanarDerivation, hamiltonian, newton_derivation
from .parsing import parse_unipoly
from .poly import BiPoly, UniPoly


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name=name, passed=passed, detail=detail,
                           seconds=round(time.perf_counter() - t0, 3))


def _verdict(name: str, failures: list[str], detail: str, t0: float) -> CriterionResult:
    """Pass iff there are no failures; the first one is appended to detail."""
    if failures:
        detail += "; first failure: " + failures[0]
    return _timed(name, not failures, detail, t0)


ACCEPTANCE_FORCES: tuple[UniPoly, ...] = tuple(
    map(parse_unipoly, ("6*x^2 + 5", "x^2", "x^3 - x", "x^5 + 2*x^2 - 1")))


def run_criterion_1(seed: int = 0) -> CriterionResult:
    """Commutant dimension floor((M-1)/2)+1 with every element a K[H]-multiple,
    odd M <= 31: per force, one solve at 31, read to each M (_prefix), must
    equal the energy basis, and the graded certificate at 31 must pass."""
    t0 = time.perf_counter()
    failures, uncertified, total = [], [], 0
    for f in ACCEPTANCE_FORCES:
        basis = commutant.solve_commutant(f, 31).basis
        cert = commutant.certify_rank_one(f, 31)
        energy = cert.commutant.basis  # each read builds energy_basis(f, 31)
        for M in range(1, 32, 2):
            total += 1
            if (got := commutant._prefix(basis, M)) != energy[-((M + 1) // 2):]:
                failures.append(f"f={f}, M={M}: dimension {len(got)}, not the energy basis")
        if not cert.passed:
            uncertified.append(f"f={f}, M=31: certificate fails: {cert.reason}")
    detail = (f"{total - len(failures)}/{total} (f, M) pairs have dimension "
              f"floor((M-1)/2)+1 with all basis elements energy multiples")
    return _verdict("1-rank-one-certificate", failures + uncertified, detail, t0)


GRID_SIZE = 200


def companion_grid(seed: int) -> list[tuple[int, ...]]:
    """GRID_SIZE distinct nonzero affine coefficient tuples from {-2..2}^6."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < GRID_SIZE:
        tup = tuple(rng.randint(-2, 2) for _ in range(6))
        if any(tup):
            seen.add(tup)
    return sorted(seen)


def run_criterion_2(seed: int = 0) -> CriterionResult:
    """f = x sharpness plus exact companions across the affine grid."""
    t0 = time.perf_counter()
    problems = []
    x = UniPoly.x()
    canon = commutant.energy_basis(x, 1)
    extraneous = sum(g not in canon for g in commutant.solve_commutant(x, 1).basis)
    if extraneous == 0:
        problems.append("f=x, M=1: every commutant element decomposed (should not)")

    grid = companion_grid(seed)
    bad = 0
    for a, b, c, e, f, g in grid:
        d = PlanarDerivation(
            Fraction(a) * BiPoly.x() + Fraction(b) * BiPoly.y() + BiPoly.const(c),
            Fraction(e) * BiPoly.x() + Fraction(f) * BiPoly.y() + BiPoly.const(g),
        )
        try:
            res = flows.companion_for_linear(d)
        except Exception as exc:  # any raise is a failure here
            bad += 1
            problems.append(f"grid {a,b,c,e,f,g}: {type(exc).__name__}: {exc}")
            continue
        if not d.bracket(res.delta).is_zero:
            bad += 1
            problems.append(f"grid {a,b,c,e,f,g}: nonzero bracket")
        elif d.det(res.delta).is_zero:
            bad += 1
            problems.append(f"grid {a,b,c,e,f,g}: companion not transversal")
    detail = (f"f=x commutant has {extraneous} non-multiple element(s); "
              f"{len(grid) - bad}/{len(grid)} grid companions commute exactly "
              f"and are transversal")
    return _verdict("2-negative-control", problems, detail, t0)


def run_criterion_3(seed: int = 0) -> CriterionResult:
    """Parity-system dimensions and forced coefficients for f = x^2, x^3, m <= 20.

    The suite's checks are consequences of the rank-one certificate, built
    from (kind, m) alone; the independent part is one solve of each half at
    m = 20 per force, which must give the energy basis and nothing."""
    t0 = time.perf_counter()
    forces = tuple(map(parse_unipoly, ("x^2", "x^3")))
    checks = [(f, c) for f in forces for c in parity.check_lemma_suite(f, 20).checks]
    failures = [f"f={f}, {c.name}: {c.detail}" for f, c in checks if not c.passed]
    detail = f"{len(checks) - len(failures)}/{len(checks)} parity-system checks passed"
    for f in forces:
        for kind, want in (("Ie", commutant.energy_basis(f, 20)), ("IIe", ())):
            got = parity.solve_system(parity.build_system(kind, 20, f)).basis
            if got != want:
                failures.append(f"f={f}, {kind}_20: the solve (dimension {len(got)}) "
                                f"differs from the certificate (dimension {len(want)})")
    return _verdict("3-parity-lemmas", failures, detail, t0)


def run_criterion_4(seed: int = 0) -> CriterionResult:
    """Obstruction polynomials: degree bound, P(-1) != 0, exact root sets."""
    t0 = time.perf_counter()
    failures = []
    for m in range(3, 62, 2):
        ob = obstruction.build_obstruction(m)
        if ob.P.degree > (m + 1) // 2:
            failures.append(f"m={m}: degree {ob.P.degree} exceeds (m+1)/2")
        if ob.P(Fraction(-1)) == 0:
            failures.append(f"m={m}: P(-1) = 0")
        roots = obstruction.rational_roots(ob.P)
        if roots != obstruction.expected_root_set(m):
            failures.append(f"m={m}: root set {sorted(roots)}")
    spot = obstruction.build_obstruction(3).P
    if spot != UniPoly.from_dict({2: Fraction(2), 1: Fraction(4), 0: Fraction(-6)}):
        failures.append(f"P_3 spot value mismatch: {spot}")
    elif obstruction.rational_roots(spot) != {Fraction(1), Fraction(-3)}:
        failures.append("P_3 spot roots mismatch")
    detail = "P_m for odd m <= 61: degree, P(-1) != 0, exact root sets, P_3 spot value"
    return _verdict("4-obstruction-roots", failures, detail, t0)


def run_criterion_5(seed: int = 0) -> CriterionResult:
    """Laurent families (k <= 10) commute, annihilate r, satisfy ratios;
    witness shapes for odd m <= 21."""
    t0 = time.perf_counter()
    failures = []
    checks = 0
    alphas = {}  # alpha does not depend on a_top
    for k in range(1, 11):
        r = family.first_integral(k)
        for a_top in (Fraction(1), Fraction(-2), Fraction(7, 3)):
            checks += 1
            fam = family.build_family(k, a_top)
            alphas.setdefault(k, fam.alpha)
            if not fam.alpha.bracket(fam.beta).is_zero:
                failures.append(f"k={k}, a_top={a_top}: nonzero bracket")
            if not fam.alpha.apply(r).is_zero:
                failures.append(f"k={k}, a_top={a_top}: alpha(r) != 0")
            if not fam.ratio_identity_holds():
                failures.append(f"k={k}, a_top={a_top}: ratio identity fails")
    for m in range(3, 22, 2):
        for k in range(1, (m - 1) // 2 + 1):
            checks += 1
            w = family.pm_witness(m, k)
            if not alphas[k].bracket(w).is_zero:
                failures.append(f"m={m}, k={k}: witness does not commute")
            if w.act_y.y_degree != m or w.act_y.ycoeff(m).is_zero:
                failures.append(f"m={m}, k={k}: d_m missing")
    detail = f"{checks - len(failures)}/{checks} family/witness checks passed"
    return _verdict("5-laurent-family", failures, detail, t0)


def run_criterion_6(seed: int = 0) -> CriterionResult:
    """Closed-form regression and rectification defect for the example flow."""
    t0 = time.perf_counter()
    failures = []
    d, delta, ev = flows.example_fixture()
    report = flows.rectification_defect(d, delta, 0, 1, 1.0, 10_000, reference=ev)
    err, defect = report.trajectory_error, report.max_defect
    if not err <= 1e-6:  # a NaN fails too
        failures.append(f"trajectory error {err:.3e} > 1e-6")
    if not defect <= 1e-6:
        failures.append(f"max defect {defect:.3e} > 1e-6")
    detail = (f"trajectory error {err:.3e}, rectification defect "
              f"{defect:.3e} (tolerance 1e-6, 10^4 steps)")
    return _verdict("6-classical-formula", failures, detail, t0)


def _random_unipoly(rng: random.Random, max_deg: int) -> UniPoly:
    deg = rng.randint(0, max_deg)
    return UniPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(deg + 1)])


def _random_bipoly(rng: random.Random, max_deg: int = 3) -> BiPoly:
    return BiPoly([_random_unipoly(rng, max_deg)
                   for _ in range(rng.randint(1, max_deg + 1))])


def _random_derivation(rng: random.Random) -> PlanarDerivation:
    return PlanarDerivation(_random_bipoly(rng), _random_bipoly(rng))


def run_criterion_7(seed: int = 0) -> CriterionResult:
    """Randomized ring axioms: Leibniz, Jacobi, the commutator identity of
    the bracket, integrate-then-differentiate."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for i in range(200):
        D = _random_derivation(rng)
        p, q = _random_bipoly(rng), _random_bipoly(rng)
        if D.apply(p * q) != D.apply(p) * q + p * D.apply(q):
            failures.append(f"case {i}: Leibniz fails")
        D2, D3 = _random_derivation(rng), _random_derivation(rng)
        jac = (D.bracket(D2).bracket(D3) + D2.bracket(D3).bracket(D)
               + D3.bracket(D).bracket(D2))
        if not jac.is_zero:
            failures.append(f"case {i}: Jacobi fails")
        if D.bracket(D2).apply(p) != D.apply(D2.apply(p)) - D2.apply(D.apply(p)):
            failures.append(f"case {i}: [D, D2](p) != D(D2(p)) - D2(D(p))")
        u = _random_unipoly(rng, 6)
        if u.integrate_dx().derivative() != u:
            failures.append(f"case {i}: integrate-then-differentiate fails")
    for i in range(50):
        f = _random_unipoly(rng, 6)
        delta_f = newton_derivation(f)
        if not delta_f.apply(hamiltonian(f)).is_zero:
            failures.append(f"energy case {i}: delta_f(H) != 0")
        if not delta_f.divergence().is_zero:
            failures.append(f"energy case {i}: divergence != 0")
    detail = ("200 Leibniz/Jacobi/commutator/integration cases and 50 "
              "energy-conservation cases, all exact")
    if failures:
        detail = f"{len(failures)} failures; first: " + failures[0]
    return _timed("7-calculus-kernel", not failures, detail, t0)


CRITERIA = (run_criterion_1, run_criterion_2, run_criterion_3, run_criterion_4,
            run_criterion_5, run_criterion_6, run_criterion_7)


def run_all(seed: int = 0) -> list[CriterionResult]:
    results = [fn(seed=seed) for fn in CRITERIA]
    return sorted(results, key=lambda r: r.name)
