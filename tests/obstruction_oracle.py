"""Reference implementations for ``newtcomm.obstruction``.

``build_obstruction`` runs the T-chain on ``UniPoly`` ring operators: every
product and sum goes through the ring's own Fraction arithmetic.  The
package runs the same recurrence on integer coefficient lists, so the
tests compare the two by ``==``.

``substitute_over_rows`` is the forward substitution over the rows of
``obstruction.ansatz_rows``, each entry read off its row.  The package
computes each entry from its row index instead; the tests require the same
``(v, sups)``, or the same ``None``, on a grid of slopes.
"""

from __future__ import annotations

from fractions import Fraction

from newtcomm import obstruction
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


def substitute_over_rows(m: int, a: int, p: int, t: int = 1) -> tuple[list[int], list[int]] | None:
    """``obstruction.substitute`` as a loop over the rows of ``ansatz_rows(m, a)``:
    each row's (sub, diagonal, super) entries, affine in X, at X = p/t times t."""
    v, sups, u, w, q = [1], [], 1, 0, 1  # v_i, v_{i-1}, super_{i-1} (1 before row 0)
    for (s0, s1), (d0, d1), (q0, q1) in obstruction.ansatz_rows(m, a):
        if not q:
            return None
        u, w, q = -((s0 * t + s1 * p) * q * w + (d0 * t + d1 * p) * u), u, q0 * t + q1 * p
        v.append(u)
        sups.append(q)
    return v, sups
