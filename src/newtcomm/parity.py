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

Each system has m+2 equations, labeled e_{m+1} down to e_0.  A solution is
held as the PlanarDerivation it defines (c_i in act_x, d_i in act_y), so a
solution space is a tuple of derivations.  Unknown names such as "c_3" only
list the unknowns and the forced ones; coefficient reads a name off a
derivation.  The I-half carries all solutions when deg f >= 2; checkers for
the dimension and forced-to-zero facts live in check_lemma_suite.  It reads
both halves off the rank-one certificate when deg f >= 2 and the certificate
passes (the I half is the energy basis, the II half is empty), and otherwise
solves each half once; solve_system always runs the integrator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutant import _graded_reason, _prefix, energy_basis, solve_halves
from .derivations import PlanarDerivation
from .errors import HypothesisViolation, InvalidInput
from .poly import UniPoly, as_unipoly

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
    def unknowns(self) -> tuple[str, ...]:
        """c_i or d_i, as the half holds it, for i = m down to 0."""
        par = _c_parity(self.kind)
        return tuple(f"{'c' if i % 2 == par else 'd'}_{i}" for i in range(self.m, -1, -1))


def coefficient(gamma: PlanarDerivation, name: str) -> UniPoly:
    """The value gamma gives the unknown name: c_i is the y^i coefficient of
    gamma(x), d_i that of gamma(y)."""
    return (gamma.act_x if name[0] == "c" else gamma.act_y).ycoeff(int(name[2:]))


def _equation_text(form: str, j: int, m: int) -> str:
    """Level j in the shape u_{j-1}' + (j+1)*f*u_{j+1} = s_j*u_j of its form."""
    low, rhs = ("c", f"d_{j}") if form == "C" else ("d", f"f'*c_{j}")
    lhs = [f"{low}_{j-1}'"] if j >= 1 else []
    if j + 1 <= m:
        mult = "" if j + 1 == 1 else f"{j + 1}*"
        lhs.append(f"{mult}f*{low}_{j+1}")
    return f"{' + '.join(lhs) if lhs else '0'} = {rhs if j <= m else '0'}"


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
    basis: tuple[PlanarDerivation, ...]  # canonical echelon basis, one derivation per solution
    forced: frozenset  # unknowns identically zero across the solution set

    @property
    def dimension(self) -> int:
        return len(self.basis)


def solve_system(sys: ParitySystem) -> SolutionSpace:
    """Every polynomial solution, by integrating e_{m+1} .. e_1 top-down and
    imposing e_0 on the integration constants; the basis is the canonical
    echelon basis of the solution space."""
    basis = tuple(solve_halves(sys.f, sys.m, (_c_parity(sys.kind),)))
    return _space_at(sys, basis, sys.m)


def _space_at(sys: ParitySystem, basis: tuple[PlanarDerivation, ...], m: int) -> SolutionSpace:
    """solve_system at m <= sys.m for the half of sys, read off the basis of sys (_prefix).

    c_i is forced when y-row i of act_x is absent or empty in every basis
    element, d_i likewise in act_y."""
    basis = _prefix(basis, m)
    held = {"c": [g.act_x._rows for g in basis], "d": [g.act_y._rows for g in basis]}

    def is_forced(name: str) -> bool:
        i = int(name[2:])
        return all(i >= len(rows) or not rows[i][1] for rows in held[name[0]])

    return SolutionSpace(basis, frozenset(filter(is_forced, sys.unknowns[sys.m - m:])))


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


def _check_one(kind: str, m: int, space: SolutionSpace, energy: tuple) -> LemmaCheck:
    if kind == "Io":
        expected = (m + 1) // 2
        ok = space.dimension == expected
        detail = f"dimension {space.dimension}, expected {expected}"
        if ok:
            ok = space.basis == energy[-expected:]
            detail += ("; all solutions are energy-polynomial multiples" if ok
                       else "; solutions differ from the energy basis H^k*delta_f")
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
    allow_low_degree runs the suite anyway as a negative control.  Each half
    is found once, at m_max, and read off at every m (_space_at); the Io
    checks compare with the matching tails of one energy_basis(f, m_max).
    When deg f >= 2 and the rank-one certificate passes at m_max, the halves
    are read off it with no solve: the I half is energy_basis(f, m_max) and
    the II half is empty (the certificate lemma in the commutant module
    docstring, half by half).  Otherwise each half is solved once.
    """
    f = as_unipoly(f)
    if f.degree < 2 and not allow_low_degree:
        raise HypothesisViolation("lemma suite requires deg f >= 2")
    if not isinstance(m_max, int) or m_max < 2:
        raise InvalidInput("m_max must be an integer >= 2")
    systems = [build_system(kind, m_max, f) for kind in (KINDS[:2] if m_max % 2 else KINDS[2:])]
    energy = energy_basis(f, m_max)
    if f.degree >= 2 and _graded_reason(f.degree, m_max, len(energy)) is None:
        tops = {_c_parity(s.kind): (s, energy if _c_parity(s.kind) else ()) for s in systems}
    else:
        tops = {_c_parity(s.kind): (s, solve_system(s).basis) for s in systems}
    checks = [_check_one(kind, m, _space_at(*tops[_c_parity(kind)], m), energy) for kind in KINDS
              for m in range(2, m_max + 1) if (m % 2 == 1) == kind.endswith("o")]
    return LemmaSuiteReport(f=f, m_max=m_max, checks=tuple(checks))
