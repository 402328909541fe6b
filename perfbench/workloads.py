"""Workloads of the newtcomm benchmark: seeded inputs, jobs and oracles.

Inputs are generated from the seed as text, with plain integers and
fractions only, and parsed by the library during set-up.  A job calls
public names of the package and returns what they computed; its result
is checked afterwards, outside the timed region, by an oracle that does
not trust the library's own verdict flags.

The seed changes the inputs but not the amount of work: supports, degrees
and the integer factorisations that drive root finding are fixed, and the
seed picks signs, orderings and small coefficients.  That keeps the spread
between runs on different seeds narrow enough to gate regressions on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import newtcomm as nc


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], Any]
    # None when the result is right, else the reason it is wrong
    check: Callable[[Any], str | None]
    # JSON-serialisable canonical form of the result, for output digests
    canon: Callable[[Any], Any]


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _poly_text(terms: dict[tuple[int, int], Fraction]) -> str:
    """Text of sum c * x^i * y^j, in the syntax of newtcomm.parsing."""
    parts = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        mono = "".join(f"*{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
        parts.append(f"{'-' if c < 0 else '+'} {_frac_text(abs(c))}{mono}")
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else text


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))


def _dense_text(rng: random.Random, xdeg: int, ydeg: int) -> str:
    return _poly_text({(i, j): _rational(rng)
                       for i in range(xdeg + 1) for j in range(ydeg + 1)})


# ------------------------------------------------------------------ certify

# Monomials below the leading x^n of each force, with their fixed magnitudes.
# The seed picks the signs, so every seed asks for the same amount of work.
CERTIFY_SHAPES = {2: ((0, 2),), 3: ((1, 2), (0, 3)), 5: ((2, 2), (0, 3))}
CERTIFY_M = (9, 13)
LEMMA_M_MAX = 12


def _force_text(rng: random.Random, n: int) -> str:
    terms = {(n, 0): Fraction(rng.choice((-1, 1)))}
    for e, mag in CERTIFY_SHAPES[n]:
        terms[(e, 0)] = Fraction(rng.choice((-mag, mag)))
    return _poly_text(terms)


def _certify_check(f, M: int) -> Callable[[Any], str | None]:
    def check(cert) -> str | None:
        expected = (M - 1) // 2 + 1
        basis = cert.commutant.basis
        if len(basis) != expected:
            return f"dimension {len(basis)} != {expected}"
        if len(cert.decompositions) != len(basis):
            return "one H-decomposition per basis element expected"
        delta = nc.newton_derivation(f)
        for i, (gamma, dec) in enumerate(zip(basis, cert.decompositions)):
            if dec is None:
                return f"basis element {i} has no H-decomposition"
            if dec.reconstruct(f) != gamma:
                return f"basis element {i} differs from q(H) * delta_f"
            if not delta.bracket(gamma).is_zero:
                return f"basis element {i} does not commute with delta_f"
        return None
    return check


def _certify_canon(cert) -> Any:
    return {
        "basis": [g.to_json_dict() for g in cert.commutant.basis],
        "q": [None if d is None else [str(c) for c in d.q_coeffs]
              for d in cert.decompositions],
    }


def _lemma_check(report) -> str | None:
    want = {f"{k}_{m}" for m in range(2, LEMMA_M_MAX + 1)
            for k in (("Io", "IIo") if m % 2 else ("Ie", "IIe"))}
    got = {c.name for c in report.checks}
    if got != want:
        return f"checks {sorted(got ^ want)} missing or unexpected"
    for c in report.checks:
        if c.kind == "Io":
            if c.dimension != (c.m + 1) // 2:
                return f"{c.name}: dimension {c.dimension} != {(c.m + 1) // 2}"
        else:
            target = f"d_{c.m}" if c.kind in ("Ie", "IIo") else f"c_{c.m}"
            if target not in c.forced:
                return f"{c.name}: {target} is not forced to zero"
    return None


def _lemma_canon(report) -> Any:
    return [[c.name, c.dimension, sorted(c.forced)] for c in report.checks]


def certify_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    forces = {n: nc.parse_unipoly(_force_text(rng, n)) for n in (2, 3, 5)}
    jobs = []
    for n, f in forces.items():
        for M in CERTIFY_M:
            jobs.append(Job(f"certify/deg{n}/M{M}",
                            lambda f=f, M=M: nc.certify_rank_one(f, M),
                            _certify_check(f, M), _certify_canon))
    f3 = forces[3]
    jobs.append(Job(f"lemmas/deg3/m{LEMMA_M_MAX}",
                    lambda: nc.check_lemma_suite(f3, LEMMA_M_MAX),
                    _lemma_check, _lemma_canon))
    return jobs


# -------------------------------------------------------------------- roots

OBSTRUCTION_M = tuple(range(3, 16, 2))
# Planted roots are +-n/d with n and d taken, in seeded order, from these
# fixed lists, so |a0| and the leading coefficient (hence the candidate
# list) have the same factorisation for every seed.
PLANT_NUMERATORS = (2, 3, 5, 7, 11, 13)
PLANT_DENOMINATORS = (1, 1, 1, 1, 1, 17)
# Cofactor x^4 - p is Eisenstein at the prime p: irreducible over Q, so it
# adds no rational root and root finding must scan every candidate.
COFACTOR_PRIMES = (29, 31, 37, 41, 43, 47)
PLANTED_PER_PASS = 8


def expected_obstruction_roots(m: int) -> frozenset[Fraction]:
    """{1} and -(2k+1)/(2k-1) for 1 <= k <= (m-1)/2, written out here so
    the check does not rest on the library's own expected_root_set."""
    return frozenset({Fraction(1)} | {Fraction(-(2 * k + 1), 2 * k - 1)
                                      for k in range(1, (m - 1) // 2 + 1)})


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _planted(rng: random.Random) -> tuple[str, frozenset[Fraction]]:
    nums, dens = list(PLANT_NUMERATORS), list(PLANT_DENOMINATORS)
    rng.shuffle(nums)
    rng.shuffle(dens)
    roots = [Fraction(rng.choice((-1, 1)) * n, d) for n, d in zip(nums, dens)]
    coeffs = [-rng.choice(COFACTOR_PRIMES), 0, 0, 0, 1]
    for r in roots:
        coeffs = _int_poly_mul(coeffs, [-r.numerator, r.denominator])
    return _poly_text({(e, 0): Fraction(c) for e, c in enumerate(coeffs) if c}), frozenset(roots)


def _roots_check(expected: frozenset[Fraction]) -> Callable[[Any], str | None]:
    def check(roots) -> str | None:
        if roots != expected:
            return f"roots {sorted(roots)} != {sorted(expected)}"
        return None
    return check


def _sorted_roots(roots) -> list[str]:
    return [str(r) for r in sorted(roots)]


def obstruction_job(m: int) -> Job:
    def run():
        ob = nc.build_obstruction(m)
        return ob.P, nc.rational_roots(ob.P)

    check = _roots_check(expected_obstruction_roots(m))
    return Job(f"obstruction/m{m}", run, lambda out: check(out[1]),
               lambda out: {"P": str(out[0]), "roots": _sorted_roots(out[1])})


def roots_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [obstruction_job(m) for m in OBSTRUCTION_M]
    for i in range(PLANTED_PER_PASS):
        text, expected = _planted(rng)
        p = nc.parse_unipoly(text)
        jobs.append(Job(f"planted/{i}", lambda p=p: nc.rational_roots(p),
                        _roots_check(expected), _sorted_roots))
    return jobs


# ----------------------------------------------------------------- calculus

CALCULUS_COUNTS = {"leibniz": 30, "jacobi": 20, "integrate": 10, "energy": 15}
# Jobs combine members of small parsed pools, so set-up parses a few dozen
# polynomials while the timed jobs see a hundred distinct combinations.
POOL_POLYS, POOL_DERIVATIONS, POOL_FORCES = 16, 12, 8


def _equal_sides(out) -> str | None:
    lhs, rhs = out
    return None if lhs == rhs else "the two sides differ"


def _is_zero(out) -> str | None:
    return None if all(v.is_zero for v in out) else "expected zero"


def _str_all(out) -> list[str]:
    return [str(v) for v in out]


def calculus_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    polys = [nc.parse_bipoly(_dense_text(rng, 3, 3)) for _ in range(POOL_POLYS)]
    derivations = [nc.PlanarDerivation(nc.parse_bipoly(_dense_text(rng, 2, 2)),
                                       nc.parse_bipoly(_dense_text(rng, 2, 2)))
                   for _ in range(POOL_DERIVATIONS)]
    forces = [nc.parse_unipoly(_dense_text(rng, 8, 0)) for _ in range(POOL_FORCES)]
    jobs = []
    for i in range(CALCULUS_COUNTS["leibniz"]):
        D, (p, q) = rng.choice(derivations), rng.sample(polys, 2)
        jobs.append(Job(
            f"leibniz/{i}",
            lambda D=D, p=p, q=q: (D.apply(p * q), D.apply(p) * q + p * D.apply(q)),
            _equal_sides, _str_all))
    for i in range(CALCULUS_COUNTS["jacobi"]):
        D1, D2, D3 = rng.sample(derivations, 3)

        def jacobi(D1=D1, D2=D2, D3=D3):
            jac = (D1.bracket(D2).bracket(D3) + D2.bracket(D3).bracket(D1)
                   + D3.bracket(D1).bracket(D2))
            return jac.act_x, jac.act_y
        jobs.append(Job(f"jacobi/{i}", jacobi, _is_zero, _str_all))
    for i in range(CALCULUS_COUNTS["integrate"]):
        p = rng.choice(polys)
        jobs.append(Job(f"integrate/{i}",
                        lambda p=p: (p.integrate_dx().dx(), p),
                        _equal_sides, _str_all))
    for i in range(CALCULUS_COUNTS["energy"]):
        f = forces[i % POOL_FORCES]

        def energy(f=f):
            delta, H = nc.newton_derivation(f), nc.hamiltonian(f)
            return delta.apply(H), delta.apply(H ** 2)
        jobs.append(Job(f"energy/{i}", energy, _is_zero, _str_all))
    return jobs


# ------------------------------------------------------------------ witness

WITNESS_M = tuple(range(3, 22, 2))
GRID_VALUES = (-1, 0, 1, 2)
GRID_SAMPLE = 30
FLOW_STEPS = 10_000
FLOW_TOLERANCE = 1e-6


def _a_top_text(rng: random.Random) -> str:
    return f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"


def _witness_check(alpha, m: int) -> Callable[[Any], str | None]:
    def check(out) -> str | None:
        w, bracket = out
        if not bracket.is_zero:
            return "witness does not commute"
        if not alpha.bracket(w).is_zero:
            return "witness does not commute (rechecked)"
        if w.act_y.y_degree != m or w.act_y.ycoeff(m).is_zero:
            return f"d_{m} is zero"
        return None
    return check


def _witness_canon(out) -> Any:
    return out[0].to_json_dict()


def _companion_check(d) -> Callable[[Any], str | None]:
    def check(res) -> str | None:
        delta = res.delta
        if not d.bracket(delta).is_zero:
            return f"{res.case_label}: companion does not commute"
        if (d.act_x * delta.act_y - d.act_y * delta.act_x).is_zero:
            return f"{res.case_label}: companion is not transversal"
        return None
    return check


def _flow_check(report) -> str | None:
    if not report.max_defect < FLOW_TOLERANCE:
        return f"rectification defect {report.max_defect} >= {FLOW_TOLERANCE}"
    if report.trajectory_error is None or not report.trajectory_error < FLOW_TOLERANCE:
        return f"trajectory error {report.trajectory_error} >= {FLOW_TOLERANCE}"
    return None


def witness_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    alphas = {}
    for k in range(1, (max(WITNESS_M) - 1) // 2 + 1):
        t = 2 * k - 1
        alphas[k] = nc.LaurentDerivation(
            t, nc.parse_laurent_bipoly("y", t),
            nc.parse_laurent_bipoly(f"x^(-{2 * k + 1}/{t})", t))
    for m in WITNESS_M:
        for k in range(1, (m - 1) // 2 + 1):
            a_top, alpha = _a_top_text(rng), alphas[k]

            def witness(m=m, k=k, a_top=a_top, alpha=alpha):
                w = nc.pm_witness(m, k, a_top)
                return w, alpha.bracket(w)
            jobs.append(Job(f"pm_witness/m{m}/k{k}", witness,
                            _witness_check(alpha, m), _witness_canon))
    d1 = nc.PlanarDerivation(nc.parse_bipoly("y"), nc.parse_bipoly("x"))
    for m in WITNESS_M:
        def linear(m=m):
            w = nc.pm_witness_linear(m)
            return w, d1.bracket(w)
        jobs.append(Job(f"pm_witness_linear/m{m}", linear,
                        _witness_check(d1, m), _witness_canon))
    grid = [g for g in itertools.product(GRID_VALUES, repeat=6) if any(g)]
    for a, b, c, e, f, g in rng.sample(grid, GRID_SAMPLE):
        d = nc.PlanarDerivation(nc.parse_bipoly(f"{a}*x + {b}*y + {c}"),
                                nc.parse_bipoly(f"{e}*x + {f}*y + {g}"))
        jobs.append(Job(f"companion/{a},{b},{c},{e},{f},{g}",
                        lambda d=d: nc.companion_for_linear(d),
                        _companion_check(d),
                        lambda res: [res.case_label, res.delta.to_json_dict()]))
    fd, fdelta, closed_form = nc.example_fixture()
    jobs.append(Job(
        f"rectification/{FLOW_STEPS}",
        lambda: nc.rectification_defect(fd, fdelta, 0, 1, 1.0, FLOW_STEPS,
                                        reference=lambda t: closed_form(t)),
        _flow_check,
        # floats are left out: the oracle bounds them, the digest pins the rest
        lambda r: {"steps": r.steps, "tolerance": r.tolerance, "passed": r.passed}))
    return jobs


WORKLOADS = {
    "certify": certify_jobs,
    "roots": roots_jobs,
    "calculus": calculus_jobs,
    "witness": witness_jobs,
}
