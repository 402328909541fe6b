"""Commutant of the Newton derivation (y, f): basis computation and
energy-polynomial certificates.

Writing a candidate as gamma(x) = sum c_i(x) y^i, gamma(y) = sum d_i(x) y^i
with y-degree at most M, the commutation condition splits by powers of y
into two families of linear equations in the c_i, d_i (levels j = 0..M+1,
variables out of that range read as zero):

    level j, x-component:  c_{j-1}' + (j+1) f c_{j+1} = d_j
    level j, y-component:  d_{j-1}' + (j+1) f d_{j+1} = f' c_j

The x-component equation of level j involves c_{j-1}, c_{j+1} and d_j,
the y-component one d_{j-1}, d_{j+1} and c_j, so the system splits into
two independent halves: the c_i of odd index with the d_i of even index,
and the rest.  Inside a half, level j carries one equation, and it fixes
the derivative of the index-(j-1) unknown from unknowns of index j and
j+1.  Integrating from level M+1 down to level 1 therefore writes every
polynomial solution of a half in terms of M+1 integration constants, and
the level-0 equation, which has no derivative left, is a finite linear
condition on those constants.  The solution space is found exactly, with
no bound on the x-degree of the unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derivations import PlanarDerivation, hamiltonian, newton_derivation
from .errors import HypothesisViolation, InvalidInput, NotAMultiple, NotDivisible
from .linsolve import Row, nullspace, rref
from .poly import BiPoly, UniPoly, as_unipoly

# An unknown while integrating: integration-constant index -> polynomial
# weight; the unknown is the sum of constant * weight.
Combo = dict[int, UniPoly]


def _combine(*terms: tuple[UniPoly, Combo]) -> Combo:
    """sum of weight * combo over the (weight, combo) pairs."""
    out: Combo = {}
    for weight, combo in terms:
        for k, p in combo.items():
            out[k] = out.get(k, UniPoly.zero()) + weight * p
    return {k: p for k, p in out.items() if not p.is_zero}


def _integrate_half(f: UniPoly, m: int, c_parity: int) -> list[dict[tuple[str, int], UniPoly]]:
    """A basis of the polynomial solutions of one half of the level system.

    The half holds c_i with i % 2 == c_parity and d_i of the other parity,
    0 <= i <= m.  Level m+1 makes its top unknown a constant; level j >= 1
    integrates  c_{j-1}' = d_j - (j+1) f c_{j+1}  (x-component shape) or
    d_{j-1}' = f' c_j - (j+1) f d_{j+1}  (y-component shape), adding one
    constant each; level 0 says the same right-hand side vanishes, which is
    solved on the constants.  The basis is not in echelon form.
    """
    top = ("c" if m % 2 == c_parity else "d", m)
    unknowns: dict[tuple[str, int], Combo] = {top: {0: UniPoly.one()}}
    source = {"c": UniPoly.one(), "d": f.derivative()}
    residual: Combo = {}
    for j in range(m, -1, -1):
        low, high = ("c", "d") if j % 2 != c_parity else ("d", "c")
        rhs = _combine((source[low], unknowns.get((high, j), {})),
                       (-(j + 1) * f, unknowns.get((low, j + 1), {})))
        if j == 0:
            residual = rhs
        else:
            integrated = {k: p.integrate_dx() for k, p in rhs.items()}
            integrated[len(unknowns)] = UniPoly.one()
            unknowns[(low, j - 1)] = integrated
    width = max((len(p.coeffs) for p in residual.values()), default=0)
    rows = [{k: p.coeff(s) for k, p in residual.items() if p.coeff(s)}
            for s in range(width)]
    return [
        {key: sum((w * combo[k] for k, w in omega.items() if k in combo), UniPoly.zero())
         for key, combo in unknowns.items()}
        for omega in nullspace(rows, len(unknowns))
    ]


def solve_halves(f: UniPoly, m: int, c_parities: tuple[int, ...]) -> list[dict[tuple[str, int], UniPoly]]:
    """Canonical echelon basis of the solutions of the chosen halves.

    Each solution maps every (kind, i) of the halves to a polynomial.  The
    basis is the reduced echelon form over column_layout, so it is unique
    for the solution space.
    """
    solutions = [s for p in c_parities for s in _integrate_half(f, m, p)]
    entries = [("c" if i % 2 == p else "d", i) for p in c_parities for i in range(m + 1)]
    cap = max((len(q.coeffs) - 1 for s in solutions for q in s.values()), default=0)
    _, index, ncols = column_layout(entries, cap)
    vectors: list[Row] = [
        {index[(kind, i, e)]: cf for (kind, i), q in s.items()
         for e, cf in enumerate(q.coeffs) if cf}
        for s in solutions
    ]
    canonical, _ = rref(vectors, ncols)
    basis = []
    for vec in canonical:
        polys = vector_to_polys(vec, index)
        basis.append({key: polys.get(key, UniPoly.zero()) for key in entries})
    return basis


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


@dataclass(frozen=True)
class CommutantBasis:
    f: UniPoly
    M: int
    basis: tuple[PlanarDerivation, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def solve_commutant(f: UniPoly, M: int) -> CommutantBasis:
    """Basis of {gamma : [newton_derivation(f), gamma] = 0, deg_y gamma <= M}.

    The basis is complete for every f.  Degenerate f (zero or degree <= 1)
    is accepted for negative controls.
    """
    if not isinstance(M, int) or M < 0:
        raise InvalidInput("max y-degree M must be a non-negative integer")
    f = as_unipoly(f)
    basis = []
    for polys in solve_halves(f, M, (1, 0)):
        act_x = BiPoly([polys[("c", i)] for i in range(M + 1)])
        act_y = BiPoly([polys[("d", i)] for i in range(M + 1)])
        basis.append(PlanarDerivation(act_x, act_y))
    return CommutantBasis(f=f, M=M, basis=tuple(basis))


@dataclass(frozen=True)
class HDecomposition:
    """gamma = (sum_k q_coeffs[k] * H^k) * newton_derivation(f)."""

    q_coeffs: tuple[Fraction, ...]

    def reconstruct(self, f: UniPoly) -> PlanarDerivation:
        H = hamiltonian(f)
        q = BiPoly.zero()
        for k, a in enumerate(self.q_coeffs):
            q = q + a * H ** k
        return newton_derivation(f).scale(q)


def decompose_in_H(f: UniPoly, gamma: PlanarDerivation) -> HDecomposition:
    """Express gamma as q(H) * newton_derivation(f) or raise NotAMultiple.

    Peels the energy polynomial H = y^2 - 2 INT(f) off the quotient
    gamma(x)/y from the top y-degree down; each peeled leading coefficient
    must be a constant, and the remainder must vanish.
    """
    f = as_unipoly(f)
    try:
        q = gamma.act_x.divexact_y()
    except NotDivisible as exc:
        raise NotAMultiple(f"gamma(x) = {gamma.act_x} is not divisible by y") from exc
    if q * f != gamma.act_y:
        raise NotAMultiple("gamma(y) differs from (gamma(x)/y) * f")
    H = hamiltonian(f)
    coeffs: dict[int, Fraction] = {}
    while not q.is_zero:
        yd = q.y_degree
        if yd % 2:
            raise NotAMultiple(f"quotient has odd y-degree {yd}")
        s = yd // 2
        lead = q.ycoeff(yd)
        if lead.degree > 0:
            raise NotAMultiple(f"leading coefficient {lead} of y^{yd} is not constant")
        lam = lead.coeff(0)
        coeffs[s] = lam
        q = q - lam * H ** s
        if not q.is_zero and q.y_degree >= yd:
            raise NotAMultiple("peeling failed to lower the y-degree")
    if not coeffs:
        return HDecomposition(())
    top = max(coeffs)
    return HDecomposition(tuple(coeffs.get(k, Fraction(0)) for k in range(top + 1)))


@dataclass(frozen=True)
class RankOneCertificate:
    f: UniPoly
    M: int
    commutant: CommutantBasis
    decompositions: tuple[HDecomposition | None, ...]
    expected_dimension: int
    passed: bool
    failing_index: int | None
    reason: str | None

    @property
    def dimension(self) -> int:
        return self.commutant.dimension


def certify_rank_one(f: UniPoly, M: int) -> RankOneCertificate:
    """Certify that every commuting derivation up to y-degree M is an
    energy-polynomial multiple of the base derivation (needs deg f >= 2)."""
    f = as_unipoly(f)
    if f.degree < 2:
        raise HypothesisViolation("certification requires deg f >= 2")
    com = solve_commutant(f, M)
    expected = (M - 1) // 2 + 1 if M >= 1 else 0
    decs: list[HDecomposition | None] = []
    failing = None
    reason = None
    for idx, gamma in enumerate(com.basis):
        try:
            decs.append(decompose_in_H(f, gamma))
        except NotAMultiple as exc:
            decs.append(None)
            if failing is None:
                failing, reason = idx, str(exc)
    if failing is None and com.dimension != expected:
        reason = f"dimension {com.dimension} != expected {expected}"
    passed = failing is None and com.dimension == expected
    return RankOneCertificate(
        f=f,
        M=M,
        commutant=com,
        decompositions=tuple(decs),
        expected_dimension=expected,
        passed=passed,
        failing_index=failing,
        reason=reason,
    )
