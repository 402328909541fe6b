"""Reference implementations for ``newtcomm.obstruction``.

``build_obstruction`` runs the T-chain on ``UniPoly`` ring operators: every
product and sum goes through the ring's own Fraction arithmetic.  The
package runs the same recurrence on integer coefficient lists, so the
tests compare the two by ``==``.
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
