"""Coefficient-matching reference solver for the commutant level system.

Every unknown c_i, d_i is capped at x-degree xcap, each level equation

    level j, x-component:  c_{j-1}' + (j+1) f c_{j+1} = d_j
    level j, y-component:  d_{j-1}' + (j+1) f d_{j+1} = f' c_j

is expanded into one row per power of x, and the exact nullspace of the
rows is returned in the same canonical echelon form the package uses.  It
shares no solving logic with the package's top-down integrator, so the
tests compare the two.  Completeness rests on the degree bound
deg d_{m-2k} <= k (deg f + 1): components of a y-degree <= M solution never
exceed ceil((M+1)/2) (deg f + 1) + 1, which default_xcap covers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from newtcomm import PlanarDerivation
from newtcomm.linsolve import Row, nullspace
from newtcomm.parity import ParitySystem, SolutionSpace
from newtcomm.poly import BiPoly, UniPoly

# a variable is addressed as (kind, i, e): coefficient of x^e in c_i or d_i
VarCol = Callable[[str, int, int], Optional[int]]


def column_layout(entries: list[tuple[str, int]], cap: int):
    """Column indices for unknown polynomials of x-degree <= cap, most
    significant first.

    entries lists (kind, i) pairs; ordering is y-degree descending, c before
    d at equal y-degree, then x-degree descending inside each polynomial.
    """
    ordered = sorted(entries, key=lambda p: (-p[1], p[0]))
    index: dict[tuple[str, int, int], int] = {}
    col = 0
    for kind, i in ordered:
        for e in range(cap, -1, -1):
            index[(kind, i, e)] = col
            col += 1
    return ordered, index, col


def vector_to_polys(vec: Row, index: dict[tuple[str, int, int], int]) -> dict[tuple[str, int], UniPoly]:
    by_poly: dict[tuple[str, int], dict[int, Fraction]] = {}
    inverse = {v: k for k, v in index.items()}
    for col, val in vec.items():
        kind, i, e = inverse[col]
        by_poly.setdefault((kind, i), {})[e] = val
    return {key: UniPoly.from_dict(d) for key, d in by_poly.items()}


def default_xcap(f: UniPoly, M: int) -> int:
    n = f.degree
    n = 0 if n < 0 else int(n)
    return ((M + 2) // 2) * (n + 1) + 1


def expand_level(form: str, j: int, f: UniPoly, xcap: int, var_col: VarCol) -> list[Row]:
    """x-coefficient rows of one level equation.

    form "C" is the x-component family, form "D" the y-component family.
    var_col maps (kind, i, e) to a column index, or None when the unknown
    is not part of the system (then the term is zero).
    """
    if form == "C":
        kind, rhs_kind, rhs_poly = "c", "d", UniPoly.const(-1)
    else:
        kind, rhs_kind, rhs_poly = "d", "c", -f.derivative()
    rows: dict[int, Row] = {}

    def add(s: int, col: Optional[int], val: Fraction):
        if col is None or val == 0:
            return
        row = rows.setdefault(s, {})
        nv = row.get(col, Fraction(0)) + val
        if nv:
            row[col] = nv
        else:
            row.pop(col, None)

    # derivative term: (kind j-1)' contributes e * x^(e-1)
    for e in range(1, xcap + 1):
        add(e - 1, var_col(kind, j - 1, e), Fraction(e))
    # multiplier term: (j+1) * f * (kind j+1)
    for n, fn in enumerate(f.coeffs):
        if fn:
            for e in range(xcap + 1):
                add(e + n, var_col(kind, j + 1, e), (j + 1) * fn)
    # right-hand side moved over: -d_j  (or  -f' c_j)
    for n, pn in enumerate(rhs_poly.coeffs):
        if pn:
            for e in range(xcap + 1):
                add(e + n, var_col(rhs_kind, j, e), pn)
    return [rows[s] for s in sorted(rows) if rows[s]]


def _rows(entries, levels, f: UniPoly, xcap: int):
    _, index, ncols = column_layout(entries, xcap)

    def var_col(kind: str, i: int, e: int):
        return index.get((kind, i, e))

    rows: list[Row] = []
    for form, j in levels:
        rows.extend(expand_level(form, j, f, xcap, var_col))
    return rows, index, ncols


def full_rows(f: UniPoly, M: int, xcap: int):
    """Rows, column index and column count of the whole y-degree <= M system."""
    entries = [(kind, i) for i in range(M + 1) for kind in ("c", "d")]
    levels = [(form, j) for j in range(M + 2) for form in ("C", "D")]
    return _rows(entries, levels, f, xcap)


def _entries(sys: ParitySystem) -> list[tuple[str, int]]:
    """The (kind, i) pair of each unknown of a parity system."""
    return [(name[0], int(name[2:])) for name in sys.unknowns]


def system_rows(sys: ParitySystem, xcap: int):
    """Rows over one parity system's own column layout."""
    entries = _entries(sys)
    return _rows(entries, [(eq.form, eq.level) for eq in sys.equations], sys.f, xcap)


def matching_commutant(f: UniPoly, M: int, xcap: int | None = None) -> list[PlanarDerivation]:
    """Canonical commutant basis with unknowns of x-degree <= xcap."""
    if xcap is None:
        xcap = default_xcap(f, M)
    rows, index, ncols = full_rows(f, M, xcap)
    return [_derivation(vector_to_polys(vec, index), M) for vec in nullspace(rows, ncols)]


def _derivation(polys: dict[tuple[str, int], UniPoly], M: int) -> PlanarDerivation:
    """The derivation with c_i = polys[("c", i)], d_i = polys[("d", i)], 0 if absent."""
    return PlanarDerivation(
        BiPoly([polys.get(("c", i), UniPoly.zero()) for i in range(M + 1)]),
        BiPoly([polys.get(("d", i), UniPoly.zero()) for i in range(M + 1)]),
    )


def matching_system(sys: ParitySystem, xcap: int | None = None) -> SolutionSpace:
    """Canonical solution space of one parity system, unknowns capped at xcap."""
    if xcap is None:
        xcap = default_xcap(sys.f, sys.m)
    rows, index, ncols = system_rows(sys, xcap)
    solutions = [vector_to_polys(vec, index) for vec in nullspace(rows, ncols)]
    forced = frozenset(name for name, key in zip(sys.unknowns, _entries(sys))
                       if all(polys.get(key, UniPoly.zero()).is_zero for polys in solutions))
    return SolutionSpace(basis=tuple(_derivation(polys, sys.m) for polys in solutions),
                         forced=forced)
