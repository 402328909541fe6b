"""Reference energy basis: each power of H by one ring product.

``newtcomm.commutant.energy_basis`` writes the y-rows of H^k delta_f
straight from the binomial expansion of H^k = (y^2 + G)^k on integer
numerators.  This oracle is the construction it replaced: delta_f, then
each next power by ``PlanarDerivation.scale(H)``, every product normalised
on its own, so the tests compare the two by ``==``.
"""

from __future__ import annotations

from newtcomm.derivations import PlanarDerivation, hamiltonian, newton_derivation
from newtcomm.poly import UniPoly


def energy_basis(f: UniPoly, M: int) -> tuple[PlanarDerivation, ...]:
    """(H^s delta_f, ..., H delta_f, delta_f), s = floor((M-1)/2); () if M <= 0."""
    H = hamiltonian(f)
    basis = [newton_derivation(f)] if M > 0 else []
    while len(basis) < (M + 1) // 2:
        basis.append(basis[-1].scale(H))
    return tuple(reversed(basis))
