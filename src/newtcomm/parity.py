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
derivation.  The I-half carries all solutions when deg f >= 2.
solve_system integrates.  Under a passing rank-one certificate each check of
check_lemma_suite is a consequence of it, built with no basis; the m = 20
solves of selftest's criterion 3 are the independent part.  Without one, each
check is one solve_system of its own (kind, m) system.
"""

from __future__ import annotations

from typing import NamedTuple

from .commutant import _graded_reason, energy_basis, solve_halves
from .derivations import PlanarDerivation
from .errors import HypothesisViolation, InvalidInput, is_int
from .poly import UniPoly, as_unipoly

KINDS = ("Io", "IIo", "Ie", "IIe")
_C_PARITY = {"Io": 1, "IIo": 0, "Ie": 1, "IIe": 0}  # index parity of the c-unknowns


class SystemEquation(NamedTuple):
    label: str
    level: int
    form: str  # "C" = x-component shape, "D" = y-component shape
    text: str


class ParitySystem(NamedTuple):
    kind: str
    m: int
    f: UniPoly
    equations: tuple[SystemEquation, ...]

    unknowns = property(lambda self: _unknowns(_C_PARITY[self.kind], self.m))


def _unknowns(c_par: int, m: int) -> tuple[str, ...]:
    """c_i or d_i, as the half with c-parity c_par holds it, for i = m down to 0."""
    return tuple(f"{'c' if i % 2 == c_par else 'd'}_{i}" for i in range(m, -1, -1))


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
    if not is_int(m) or m < 2:
        raise InvalidInput("m must be an integer >= 2")
    f = as_unipoly(f)
    c_even_levels = kind in ("Io", "Ie")  # x-component equations at even levels
    forms = ["C" if (j % 2 == 0) == c_even_levels else "D" for j in range(m + 2)]
    return ParitySystem(kind=kind, m=m, f=f, equations=tuple(
        SystemEquation(f"e_{j}", j, forms[j], _equation_text(forms[j], j, m))
        for j in range(m + 1, -1, -1)))


class SolutionSpace(NamedTuple):
    basis: tuple[PlanarDerivation, ...]  # canonical echelon basis, one derivation per solution
    forced: frozenset  # unknowns identically zero across the solution set

    @property
    def dimension(self) -> int:
        return len(self.basis)


def solve_system(sys: ParitySystem) -> SolutionSpace:
    """Every polynomial solution, by integrating e_{m+1} .. e_1 top-down and
    imposing e_0 on the integration constants; the basis is the canonical
    echelon basis of the solution space, and an unknown is forced when no
    element of it has a nonempty row (c_i in act_x, d_i in act_y) for it."""
    basis = tuple(solve_halves(sys.f, sys.m, (_C_PARITY[sys.kind],)))
    held = {f"{letter}_{i}" for g in basis for letter, comp in (("c", g.act_x), ("d", g.act_y))
            for i, (_, ns) in enumerate(comp._rows) if ns}
    return SolutionSpace(basis, frozenset(sys.unknowns).difference(held))


class LemmaCheck(NamedTuple):
    name: str
    kind: str
    m: int
    passed: bool
    dimension: int
    forced: frozenset
    detail: str


class LemmaSuiteReport(NamedTuple):
    f: UniPoly
    m_max: int
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_one(kind: str, m: int, dimension: int, forced: frozenset, multiples: bool) -> LemmaCheck:
    """multiples, read for Io only: the basis is the energy basis at m."""
    if kind == "Io":
        expected = (m + 1) // 2
        ok = dimension == expected
        detail = f"dimension {dimension}, expected {expected}"
        if ok:
            ok = multiples
            detail += ("; all solutions are energy-polynomial multiples" if ok
                       else "; solutions differ from the energy basis H^k*delta_f")
    else:
        target = f"d_{m}" if kind in ("Ie", "IIo") else f"c_{m}"
        ok = target in forced
        detail = f"{target} {'' if ok else 'NOT '}forced to zero; dimension {dimension}"
    return LemmaCheck(name=f"{kind}_{m}", kind=kind, m=m, passed=ok,
                      dimension=dimension, forced=forced, detail=detail)


def _certified(kind: str, m: int) -> tuple[int, frozenset, bool]:
    """(dimension, forced, multiples) at m under a passing certificate."""
    if kind.startswith("II"):  # the empty half
        return 0, frozenset(_unknowns(0, m)), True
    return (m + 1) // 2, frozenset({f"d_{m}"} if m % 2 == 0 else ()), True


def check_lemma_suite(f: UniPoly, m_max: int, *,
                      allow_low_degree: bool = False) -> LemmaSuiteReport:
    """Run every dimension/forced-zero check for m up to m_max.

    For odd m: (Io)_m has dimension (m+1)/2 with every solution an energy
    multiple, and d_m is forced in (IIo)_m (m >= 3).  For even m: d_m is
    forced in (Ie)_m and c_m in (IIe)_m.  These facts need deg f >= 2;
    allow_low_degree runs the suite anyway as a negative control.
    With deg f >= 2 and a passing certificate at m_max, the I half at m is
    (H^k delta_f : 2k+1 <= m) and the II half is empty (commutant module
    docstring), so each check follows from (kind, m) alone (_certified), with
    no basis, solve or read-off.  Exactly: in H^k delta_f, act_x row 2j+1 is
    C(k,j) D^j g^(k-j) and act_y row 2j is C(k,j) D^j F g^(k-j) for j <= k,
    none zero as f != 0 makes g and F nonzero; so c_{2j+1} and d_{2j} first
    appear at y-degree 2j+1, Io_m forces nothing and Ie_m forces d_m alone.
    Otherwise each check is the lemma as stated: one solve_system of its own
    (kind, m) system, with Io compared to energy_basis(f, m).
    """
    f = as_unipoly(f)
    if f.degree < 2 and not allow_low_degree:
        raise HypothesisViolation("lemma suite requires deg f >= 2")
    if not is_int(m_max) or m_max < 2:
        raise InvalidInput("m_max must be an integer >= 2")
    if f.degree >= 2 and _graded_reason(f.degree, m_max, (m_max + 1) // 2) is None:
        facts = _certified
    else:
        def facts(kind, m):
            s = solve_system(build_system(kind, m, f))
            return s.dimension, s.forced, kind != "Io" or s.basis == energy_basis(f, m)
    checks = [_check_one(kind, m, *facts(kind, m)) for kind in KINDS
              for m in range(2, m_max + 1) if (m % 2 == 1) == kind.endswith("o")]
    return LemmaSuiteReport(f=f, m_max=m_max, checks=tuple(checks))
