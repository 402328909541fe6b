"""Reference implementations for ``newtcomm.obstruction``.

``build_obstruction`` runs the T-chain on ``UniPoly`` ring operators: every
product and sum goes through the ring's own Fraction arithmetic.  The
package runs the same recurrence on integer coefficient lists, so the
tests compare the two by ``==``.

``squarefree_mod`` decides squarefreeness mod p by the pseudo-remainder
sequence of a and a' over Z, reduced mod p after each step.  The package
runs a monic Euclidean remainder sequence mod p instead.
"""

from __future__ import annotations

from fractions import Fraction

from newtcomm.obstruction import ObstructionPoly
from newtcomm.poly import UniPoly


def build_obstruction(m: int) -> ObstructionPoly:
    """The chain T_m, ..., T_0 and P_m (odd m >= 3) on ring operators."""
    X = UniPoly.x()
    one = UniPoly.one()
    T: dict[int, UniPoly] = {m: one, m - 1: one}
    for k in range(1, (m - 1) // 2 + 1):
        T[m - 2 * k] = X * T[m - 2 * k + 1] \
            - (m - 2 * k + 2) * ((k - 1) * (X + one) + one) * T[m - 2 * k + 2]
        T[m - 2 * k - 1] = T[m - 2 * k] \
            - (m - 2 * k + 1) * k * (X + one) * T[m - 2 * k + 1]
    P = (Fraction(m - 1, 2) * (X + one) + one) * T[1] - X * T[0]
    return ObstructionPoly(m=m, T=tuple(T[i] for i in range(m + 1)), P=P)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)^k * a by b, computed in Z[x]."""
    a = a[:]
    while len(a) >= len(b):
        top, shift = a[-1], len(a) - len(b)
        a = [c * b[-1] for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= top * c
        _trim(a)
    return a


def squarefree_mod(a: list[int], p: int) -> bool:
    """Whether the integer list a (constant term first, p not dividing its
    last entry) has no repeated factor mod p."""
    u = [c % p for c in a]
    v = _trim([c % p for c in [i * c for i, c in enumerate(a)][1:]])
    while v:  # lc(v) is a unit mod p, so a pseudo-remainder is a remainder
        u, v = v, _trim([c % p for c in _pseudo_rem(u, v)])
    return len(u) == 1
