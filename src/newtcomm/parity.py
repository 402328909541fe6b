"""The four parity-split equation systems behind the commutant computation.

The level equations in the commutant module docstring couple unknowns of one
index parity only, so the full system for y-degree m splits into two independent
halves.  Naming the half with odd-index c's and even-index d's "I" and its
complement "II", and tagging by the parity of m, gives four kinds:

    Io (m odd),  Ie (m even):  x-component equations at even levels,
                               y-component equations at odd levels;
                               unknowns c_odd, d_even.
    IIo (m odd), IIe (m even): x-component equations at odd levels,
                               y-component equations at even levels;
                               unknowns c_even, d_odd.

Each system has m+2 equations, labeled e_{m+1} down to e_0.  The I-half
carries all solutions when deg f >= 2; checkers for the dimension and
forced-to-zero facts live in check_lemma_suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutant import decompose_in_H, solve_halves
from .derivations import PlanarDerivation
from .errors import HypothesisViolation, InvalidInput, NotAMultiple
from .poly import BiPoly, UniPoly, as_unipoly

KINDS = ("Io", "IIo", "Ie", "IIe")


def _c_parity(kind: str) -> int:
    """Index parity of the c-unknowns: odd for I-systems, even for II."""
    return 1 if kind in ("Io", "Ie") else 0


@dataclass(frozen=True)
class SystemEquation:
    label: str
    level: int
    form: str  # "C" = x-component shape, "D" = y-component shape
    text: str


@dataclass(frozen=True)
class ParitySystem:
    kind: str
    m: int
    f: UniPoly
    equations: tuple[SystemEquation, ...]

    @property
    def c_indices(self) -> tuple[int, ...]:
        par = _c_parity(self.kind)
        return tuple(i for i in range(self.m + 1) if i % 2 == par)

    @property
    def d_indices(self) -> tuple[int, ...]:
        par = 1 - _c_parity(self.kind)
        return tuple(i for i in range(self.m + 1) if i % 2 == par)

    @property
    def unknowns(self) -> tuple[str, ...]:
        names = [f"c_{i}" for i in self.c_indices] + [f"d_{i}" for i in self.d_indices]
        return tuple(sorted(names, key=lambda s: (-int(s[2:]), s[0])))


def _equation_text(form: str, j: int, m: int) -> str:
    lhs = []
    if form == "C":
        if j >= 1:
            lhs.append(f"c_{j-1}'")
        if j + 1 <= m:
            mult = "" if j + 1 == 1 else f"{j + 1}*"
            lhs.append(f"{mult}f*c_{j+1}")
        rhs = f"d_{j}" if j <= m else "0"
    else:
        if j >= 1:
            lhs.append(f"d_{j-1}'")
        if j + 1 <= m:
            mult = "" if j + 1 == 1 else f"{j + 1}*"
            lhs.append(f"{mult}f*d_{j+1}")
        rhs = f"f'*c_{j}" if j <= m else "0"
    return f"{' + '.join(lhs) if lhs else '0'} = {rhs}"


def build_system(kind: str, m: int, f: UniPoly) -> ParitySystem:
    """Equations e_{m+1} .. e_0 of the requested parity system.

    Any m >= 2 is accepted for experimentation; the lemma checkers insist
    on the matching parity of m themselves.
    """
    if kind not in KINDS:
        raise InvalidInput(f"kind must be one of {KINDS}")
    if not isinstance(m, int) or m < 2:
        raise InvalidInput("m must be an integer >= 2")
    f = as_unipoly(f)
    c_even_levels = kind in ("Io", "Ie")  # x-component equations at even levels
    eqs = []
    for j in range(m + 1, -1, -1):
        form = "C" if (j % 2 == 0) == c_even_levels else "D"
        eqs.append(SystemEquation(label=f"e_{j}", level=j, form=form,
                                  text=_equation_text(form, j, m)))
    return ParitySystem(kind=kind, m=m, f=f, equations=tuple(eqs))


@dataclass(frozen=True)
class SolutionSpace:
    dimension: int
    basis: tuple[dict, ...]  # unknown name -> UniPoly, every unknown present
    forced: frozenset  # unknowns identically zero across the solution set


def solve_system(sys: ParitySystem) -> SolutionSpace:
    """Every polynomial solution, by integrating e_{m+1} .. e_1 top-down and
    imposing e_0 on the integration constants; the basis is the canonical
    echelon basis of the solution space."""
    basis = tuple(
        {f"{kind}_{i}": poly for (kind, i), poly in solution.items()}
        for solution in solve_halves(sys.f, sys.m, (_c_parity(sys.kind),))
    )
    forced = frozenset(
        name for name in sys.unknowns if all(b[name].is_zero for b in basis)
    )
    return SolutionSpace(dimension=len(basis), basis=basis, forced=forced)


def assemble_derivation(space_entry: dict, m: int) -> PlanarDerivation:
    """Build the derivation whose coefficients a solution assigns."""
    act_x = BiPoly([space_entry.get(f"c_{i}", UniPoly.zero()) for i in range(m + 1)])
    act_y = BiPoly([space_entry.get(f"d_{i}", UniPoly.zero()) for i in range(m + 1)])
    return PlanarDerivation(act_x, act_y)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    kind: str
    m: int
    passed: bool
    dimension: int
    forced: frozenset
    detail: str


@dataclass(frozen=True)
class LemmaSuiteReport:
    f: UniPoly
    m_max: int
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_one(kind: str, m: int, f: UniPoly) -> LemmaCheck:
    sys = build_system(kind, m, f)
    space = solve_system(sys)
    if kind == "Io":
        expected = (m + 1) // 2
        ok = space.dimension == expected
        detail = f"dimension {space.dimension}, expected {expected}"
        if ok:
            for entry in space.basis:
                gamma = assemble_derivation(entry, m)
                try:
                    decompose_in_H(f, gamma)
                except NotAMultiple as exc:
                    ok = False
                    detail += f"; solution not an energy multiple: {exc}"
                    break
            else:
                detail += "; all solutions are energy-polynomial multiples"
    else:
        target = f"d_{m}" if kind in ("Ie", "IIo") else f"c_{m}"
        ok = target in space.forced
        state = "forced to zero" if ok else "NOT forced to zero"
        detail = f"{target} {state}; dimension {space.dimension}"
    return LemmaCheck(name=f"{kind}_{m}", kind=kind, m=m, passed=ok,
                      dimension=space.dimension, forced=space.forced, detail=detail)


def check_lemma_suite(f: UniPoly, m_max: int, *,
                      allow_low_degree: bool = False) -> LemmaSuiteReport:
    """Run every dimension/forced-zero check for m up to m_max.

    For odd m: (Io)_m has dimension (m+1)/2 with every solution an energy
    multiple, and d_m is forced in (IIo)_m (m >= 3).  For even m: d_m is
    forced in (Ie)_m and c_m in (IIe)_m.  These facts need deg f >= 2;
    allow_low_degree runs the suite anyway as a negative control.
    """
    f = as_unipoly(f)
    if f.degree < 2 and not allow_low_degree:
        raise HypothesisViolation("lemma suite requires deg f >= 2")
    if not isinstance(m_max, int) or m_max < 2:
        raise InvalidInput("m_max must be an integer >= 2")
    jobs: list[tuple[str, int]] = []
    for m in range(2, m_max + 1):
        if m % 2:
            jobs.append(("Io", m))
            jobs.append(("IIo", m))
        else:
            jobs.append(("Ie", m))
            jobs.append(("IIe", m))
    jobs.sort(key=lambda km: (KINDS.index(km[0]), km[1]))
    checks = [_check_one(kind, m, f) for kind, m in jobs]
    return LemmaSuiteReport(f=f, m_max=m_max, checks=tuple(checks))
