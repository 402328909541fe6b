"""Reference lemma suite: every (kind, m) system solved on its own.

``newtcomm.parity.check_lemma_suite`` reads each check off the rank-one
certificate when it passes, and otherwise makes one ``solve_system`` per
check.  This oracle builds and solves each (kind, m) system separately,
with one ``solve_system`` per check and one ``energy_basis(f, m)`` per Io
check, and formats the checks the same way, so the tests compare the two
reports by ``==``; on the path with no certificate the two take the same
route, and its independent checks are the tests of ``solve_system`` against
``matching_oracle`` and ``recurrence_oracle``.  ``space_at`` reads a half's
solution space at a smaller m off its basis, testing each unknown against
each kept element on its own: the oracle for the forced set of
``solve_system`` and for the certified facts read at every m.
"""

from __future__ import annotations

from newtcomm.commutant import _prefix, energy_basis
from newtcomm.parity import (
    KINDS,
    LemmaCheck,
    LemmaSuiteReport,
    ParitySystem,
    SolutionSpace,
    build_system,
    solve_system,
)
from newtcomm.poly import UniPoly, as_unipoly


def space_at(sys: ParitySystem, basis: tuple, m: int) -> SolutionSpace:
    """The solution space at m <= sys.m of the half of sys, read off its basis
    at sys.m: the prefix of y-degree <= m, and each unknown of index <= m
    tested against each of its elements.

    c_i is forced when y-row i of act_x is absent or empty in every basis
    element, d_i likewise in act_y."""
    basis = _prefix(basis, m)
    held = {"c": [g.act_x._rows for g in basis], "d": [g.act_y._rows for g in basis]}

    def is_forced(name: str) -> bool:
        i = int(name[2:])
        return all(i >= len(rows) or not rows[i][1] for rows in held[name[0]])

    return SolutionSpace(basis, frozenset(filter(is_forced, sys.unknowns[sys.m - m:])))


def check_one(kind: str, m: int, f: UniPoly) -> LemmaCheck:
    space = solve_system(build_system(kind, m, f))
    if kind == "Io":
        expected = (m + 1) // 2
        ok = space.dimension == expected
        detail = f"dimension {space.dimension}, expected {expected}"
        if ok:
            ok = space.basis == energy_basis(f, m)
            detail += ("; all solutions are energy-polynomial multiples" if ok
                       else "; solutions differ from the energy basis H^k*delta_f")
    else:
        target = f"d_{m}" if kind in ("Ie", "IIo") else f"c_{m}"
        ok = target in space.forced
        state = "forced to zero" if ok else "NOT forced to zero"
        detail = f"{target} {state}; dimension {space.dimension}"
    return LemmaCheck(name=f"{kind}_{m}", kind=kind, m=m, passed=ok,
                      dimension=space.dimension, forced=space.forced, detail=detail)


def lemma_suite(f: UniPoly, m_max: int) -> LemmaSuiteReport:
    """The report check_lemma_suite(f, m_max, allow_low_degree=True) gives."""
    f = as_unipoly(f)
    checks = tuple(check_one(kind, m, f) for kind in KINDS
                   for m in range(2, m_max + 1) if (m % 2 == 1) == kind.endswith("o"))
    return LemmaSuiteReport(f=f, m_max=m_max, checks=checks)
