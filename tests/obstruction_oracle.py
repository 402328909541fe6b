"""Reference implementations for ``newtcomm.obstruction``.

``build_obstruction`` runs the T-chain on ``UniPoly`` ring operators: every
product and sum goes through the ring's own Fraction arithmetic.  The
package runs the continuant of the rows on integer coefficient lists, each
entry from its row index, and the tests compare the two by ``==``.

``ansatz_rows`` lists the rows of one weight piece, each entry an
(e0, e1) pair for e0 + e1 X, and the tests check them against the bracket
of the derivation kernel.  ``substitute_over_rows`` is the forward
substitution over those rows, each entry read off its row.  The package
computes each entry from its row index instead; the tests require the same
``(v, sups)``, or the same ``None``, on a grid of slopes.
"""

from __future__ import annotations

from fractions import Fraction

from newtcomm.obstruction import ObstructionPoly
from newtcomm.poly import UniPoly


def build_obstruction(m: int) -> ObstructionPoly:
    """P_m (odd m >= 3) from the chain T_m, ..., T_0 on ring operators."""
    X = UniPoly.x()
    one = UniPoly.one()
    T: dict[int, UniPoly] = {m: one, m - 1: one}
    for k in range(1, (m - 1) // 2 + 1):
        T[m - 2 * k] = X * T[m - 2 * k + 1] \
            - (m - 2 * k + 2) * ((k - 1) * (X + one) + one) * T[m - 2 * k + 2]
        T[m - 2 * k - 1] = T[m - 2 * k] \
            - (m - 2 * k + 1) * k * (X + one) * T[m - 2 * k + 1]
    P = (Fraction(m - 1, 2) * (X + one) + one) * T[1] - X * T[0]
    return ObstructionPoly(m=m, P=P)


def ansatz_rows(m: int, a: int = 1) -> list[tuple[tuple[int, int], ...]]:
    """Rows (sub, diagonal, super) of [d, gamma] = 0 for the ansatz of y-degree m and
    x-offset a in {0, 1}, on the unknowns u = b_0, c_0, b_1, c_1, ..., m + 1 of them
    (b_0 dropped at a = 0): row i is sub u_{i-1} + diagonal u_i + super u_{i+1} = 0,
    and an entry (e0, e1) is e0 + e1 X.  The rows run x_0, y_1, x_1, y_2, ...; x_0,
    which reads 0 = 0 at a = 0, is dropped there:

        x_l:      (m+1-2l) c_{l-1} - b_l + (a+(1+X)l) c_l = 0,
        y_{l+1}:  (m-2l) b_l - X c_l + (a+l+(l+1)X) b_{l+1} = 0."""
    rows = [row for l in range(m // 2 + 1) for row in  # x_l, y_{l+1}
            (((m + 1 - 2 * l, 0), (-1, 0), (a + l, l)), ((m - 2 * l, 0), (0, -1), (a + l, l + 1)))]
    return rows[1 - a:m + 1]


def substitute_over_rows(m: int, a: int, p: int, t: int = 1) -> tuple[list[int], list[int]] | None:
    """``obstruction.substitute`` as a loop over the rows of ``ansatz_rows(m, a)``:
    each row's (sub, diagonal, super) entries, affine in X, at X = p/t times t."""
    v, sups, u, w, q = [1], [], 1, 0, 1  # v_i, v_{i-1}, super_{i-1} (1 before row 0)
    for (s0, s1), (d0, d1), (q0, q1) in ansatz_rows(m, a):
        if not q:
            return None
        u, w, q = -((s0 * t + s1 * p) * q * w + (d0 * t + d1 * p) * u), u, q0 * t + q1 * p
        v.append(u)
        sups.append(q)
    return v, sups
