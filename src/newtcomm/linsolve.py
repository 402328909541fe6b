"""Sparse exact linear algebra over Q.

Rows are dicts mapping column index to a nonzero Fraction.  Column order is
semantic: callers arrange columns so that index 0 is the most significant
unknown, and the reduced echelon form is then a canonical basis usable as a
test fixture.
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, Fraction]


def _submul(target: Row, c: Fraction, source: Row) -> None:
    """target -= c * source, dropping entries that cancel to zero."""
    for k, v in source.items():
        nv = target.get(k, Fraction(0)) - c * v
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns (pivot_rows, pivot_cols) with pivot columns strictly increasing,
    each pivot entry 1, and zeros above and below every pivot.  Input rows
    are not modified.
    """
    remaining = [dict(r) for r in rows if r]
    pivot_rows: list[Row] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        candidates = [r for r in remaining if col in r]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        remaining.remove(pivot)
        inv = 1 / pivot[col]
        if inv != 1:
            pivot = {k: v * inv for k, v in pivot.items()}
        for r in remaining:
            if col in r:
                _submul(r, r[col], pivot)
        pivot_rows.append(pivot)
        pivot_cols.append(col)
        if not remaining:
            break
    # eliminate above the pivots
    for i in range(len(pivot_rows) - 1, 0, -1):
        col = pivot_cols[i]
        for j in range(i):
            c = pivot_rows[j].get(col)
            if c:
                _submul(pivot_rows[j], c, pivot_rows[i])
    return pivot_rows, pivot_cols


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Canonical basis of the solution set of rows * v = 0.

    The returned vectors are themselves in reduced echelon form with respect
    to the column order (leading entry 1, leading columns increasing), which
    makes the basis unique for the subspace.  The commutant integrator
    relies on this order: its columns are integration constants by y-index
    descending, and it reads its canonical basis straight off this one.
    """
    pivot_rows, pivot_cols = rref(rows, ncols)
    pivot_set = set(pivot_cols)
    vectors: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v: Row = {free: Fraction(1)}
        for prow, pcol in zip(pivot_rows, pivot_cols):
            a = prow.get(free)
            if a:
                v[pcol] = -a
        vectors.append(v)
    canonical, _ = rref(vectors, ncols)
    return canonical
