"""Reference integrator for one half of the commutant level system.

The same top-down recurrence as ``newtcomm.commutant._integrate_half``

    u_{j-1}' = s_j u_j - (j+1) f u_{j+1},  s_j = 1 if u_{j-1} is a c, else f',

with level 0 imposed on the integration constants, but written on plain
``UniPoly`` values: every sum, product and antiderivative goes through the
ring's own Fraction operators.  The package runs the recurrence on integer
numerators over one denominator, so the tests compare the two by ``==``.
Unlike coefficient matching, it needs no x-degree cap, so it reaches y-degrees
the matching oracle cannot.
"""

from __future__ import annotations

from newtcomm.derivations import PlanarDerivation
from newtcomm.linsolve import nullspace
from newtcomm.poly import BiPoly, UniPoly


def _integrate_half(f: UniPoly, m: int, c_parity: int) -> list[PlanarDerivation]:
    """Canonical echelon basis of the half whose c-unknowns have index
    parity c_parity, as derivations (c_i in act_x, d_i in act_y, 0 <= i <= m)."""
    fprime = f.derivative()
    scaled_f = [-(j + 1) * f for j in range(m + 1)]
    zero, one = UniPoly.zero(), UniPoly.one()

    def rhs(u: list[UniPoly], j: int) -> UniPoly:
        lift = u[j] if (j - 1) % 2 == c_parity else fprime * u[j]
        return lift + scaled_f[j] * u[j + 1]

    runs = []
    for k in range(m + 1):
        u = [zero] * (m + 2)
        u[m - k] = one
        for j in range(m - k, 0, -1):
            u[j - 1] = rhs(u, j).integrate_dx()
        runs.append(u)
    residuals = [rhs(u, 0) for u in runs]
    width = max(len(r.coeffs) for r in residuals)
    rows = [{k: r.coeff(s) for k, r in enumerate(residuals) if r.coeff(s)}
            for s in range(width)]
    basis = []
    for omega in nullspace(rows, m + 1):
        u = [sum((w * runs[k][i] for k, w in omega.items()), zero) for i in range(m + 1)]
        basis.append(PlanarDerivation(
            BiPoly([q if i % 2 == c_parity else zero for i, q in enumerate(u)]),
            BiPoly([zero if i % 2 == c_parity else q for i, q in enumerate(u)]),
        ))
    return basis
