"""Commutant of the Newton derivation (y, f): basis computation and the
rank-one certificate.

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
condition on those constants.  The integrator runs this recurrence once
per constant, with that constant 1 and the others 0, on integer numerators
over one denominator per unknown (the product kernel's form, see poly); the
solutions are the combinations of the runs whose level-0 residuals cancel.
The solution space is found exactly, with no bound on the x-degree of the
unknowns.

The null space of the level-0 condition is the only elimination.  Run k
sets the constant of the index-(m-k) unknown to 1, every unknown above it to
0 and every constant below it to 0, so a combination sum_k omega_k run_k
carries omega_k in the x^0 coefficient of the index-(m-k) unknown and leads
with its first nonzero omega_k.  The null space comes back in reduced
echelon form over k = 0..m, that is, over the unknowns by index descending,
so the combinations are already the reduced echelon basis of the half.  The
two halves hold disjoint unknowns: the canonical basis of the whole system
is the union of the two, sorted by leading unknown (index descending, c
before d at equal index).  Every solution, of a half or of the whole system,
is held as the PlanarDerivation gamma it defines: c_i in act_x, d_i in act_y.

A solve at y-degree M holds the canonical basis at every M' <= M, for every
f: its elements of y-degree <= M', in order (_prefix).  A run depends only on
the index its constant sets, not on m, so the solutions at M' are those at M
with omega_k = 0 wherever m-k > M'; in a reduced echelon basis they are
spanned by the vectors leading at such a k, the elements of y-degree <= M'.
The same prefix of energy_basis(f, M) is energy_basis(f, M') (y-degree 2k+1).

The rank-one certificate does not run the integrator; it rests on the
leading form of delta_f.  Let n = deg f >= 2 and c = lc(f), and give x the
weight 2 and y the weight n + 1.  Then delta_f = d_0 + terms of lower
weight, with d_0 = (y, c x^n) homogeneous, so the top-weight part gamma_0
of a gamma that commutes with delta_f commutes with d_0, and its y-degree is
at most that of gamma.  Among the commuting gamma of top weight <= w, those
whose weight-w part vanishes are the ones of lower top weight, so the
weight-w parts inject the quotient into the commutant of d_0, weight by
weight.  With C_M the commutant up to y-degree M:

    (M+1)//2 = len(energy_basis(f, M)) <= dim C_M(delta_f) <= dim C_M(d_0).

The lower bound holds because delta_f kills H, so every H^k delta_f
commutes, and the H^k delta_f lead at distinct unknowns.  For the upper
bound, c scales out: y -> sqrt(c) y carries d_0 to a multiple of (y, x^n),
and a nullity does not change under a field extension.  So dim C_M(d_0) is
the sum of the nullities of the weight pieces of (y, x^X) at X = n, the
ansatz systems of obstruction (rows x_l, y_l there) of y-degree at most M:
a = 1 with 1 <= m <= M (y-degree m) and a = 0 with 2 <= m <= M + 1 (y-degree
m - 1).  A piece whose x-offset is not 0 or 1 modulo n + 1 has only the
zero solution (see obstruction), and so has a = 0 at m = 1, where
gamma = (const, 0).  At X >= 1 every super entry but the last row's is
nonzero, so forward substitution from the top unknown leaves at most one
free unknown: a piece has nullity 1 exactly when obstruction.substitute at
X = n closes (its last value, the continuant up to sign, is 0), and its
solutions then have the piece's y-degree.  The certificate passes when the
pieces of nullity 1 are exactly those at a = 0 and even m, where the top forms
H_0^k d_0 of the energy basis lie: the bounds then meet, so C_M(delta_f) is
spanned by energy_basis(f, M), which is its canonical basis.  That tuple is
itself in reduced echelon form because H(0, y) = y^2 (hamiltonian
integrates f with constant term 0).  The verdict needs only the length of
that tuple, (M+1)//2, so certify_rank_one does not build it: the
certificate's commutant property spells the basis out anew on each read,
so a caller reads it once.  The certificate stores its verdict in one field,
reason, None when it passes; passed is read from it and the dimensions
from M.

The bounds hold half by half, so a passing certificate also gives each
half of the level system at y-degree M with no solve.  A piece (m, a) has
c-indices congruent to m - 1 and d-indices congruent to m (mod 2), so the
even-m pieces lie in the half of odd-index c's and even-index d's and the
odd-m pieces in the other half.  The top-weight part of gamma only drops
monomials, so it keeps a solution inside its half, and the weight-by-weight
injection above sends the solutions of a half into the pieces of that half:
the dimension of a half is at most the sum of its pieces' nullities.  Every
H^k delta_f lies in the first half, as delta_f = (y, f) does and H is even
in y.  So when the certificate passes, all pieces of nullity 1 are in the
first half, which is spanned by energy_basis(f, M), and the second half is
zero; parity.check_lemma_suite reads every lemma check off certify_rank_one
that way, and refuses an f whose certificate fails.

This is not a second solver of the level system: it decides the graded
system of d_0, and the lemma links that system to the one of delta_f.
selftest criterion 1 runs solve_commutant next to the certificate, so the
two check each other.  decompose_in_H tests one derivation by the echelon
argument: it reads q_k where H^k delta_f leads, and gamma is an energy
multiple exactly when q(H) delta_f rebuilds it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .derivations import PlanarDerivation, hamiltonian, newton_derivation
from .errors import HypothesisViolation, InvalidInput, NotAMultiple, RingMismatch, is_int
from .linsolve import nullspace
from .obstruction import substitute
from .poly import (_EMPTY, BiPoly, UniPoly, _common, _convolve, _grid, _integrate, _lincomb,
                   _ring_name, _trim, as_unipoly)


def _integrate_half(f: UniPoly, m: int, c_parity: int) -> list[PlanarDerivation]:
    """The canonical echelon basis of the polynomial solutions of one half
    of the level system.

    The half holds u_i = c_i for i % 2 == c_parity and u_i = d_i otherwise,
    0 <= i <= m.  Level j >= 1 is the recurrence

        u_{j-1}' = s_j u_j - (j+1) f u_{j+1},  s_j = 1 if u_{j-1} is a c, else f',

    and level 0 says its right-hand side vanishes; run k sets the integration
    constant of u_{m-k} to 1 and the others to 0 (module docstring).

    Inside a run every u_i is a pair (dense integer numerators, denominator).
    f = F / d_f and f' = F' / d_f are cleared once.  A right-hand side is
    one or two integer convolutions (by F' or by 1, and by F) added into
    one integer list over the lcm of their denominators; a term with an
    empty factor (f = 0, or f' = 0) is skipped.  _integrate keeps each u_i
    in lowest terms, and _lincomb only forms the null-space combinations.
    Fractions are built only for the level-0 rows handed to nullspace; each
    basis element is stored straight from the pairs, the c_i as the y-rows
    of act_x and the d_i as those of act_y over one lcm, each empty at the
    other half's indices.
    """
    F, df = _grid(f._rows, 0, 0), f._d  # (place, numerator) pairs: f = F / df
    FP = [(i - 1, i * n) for i, n in F if i]  # f' = FP / df

    def rhs(u: list, j: int) -> tuple[list, int]:
        (a, da), (b, db) = u[j], u[j + 1]
        s, da = ([(0, 1)], da) if (j - 1) % 2 == c_parity else (FP, da * df)  # s_j = 1 or f'
        den, out = lcm(da, db * df), []
        for w, g, nums in ((den // da, s, a), (-(j + 1) * (den // (db * df)), F, b)):
            if g and nums:  # out grows to the longest product
                out += [0] * (len(nums) + g[-1][0] - len(out))
                _convolve(enumerate(nums), [(i, w * n) for i, n in g], out)
        return _trim(out), den

    runs = []
    for k in range(m + 1):
        u = [([], 1)] * (m + 2)
        u[m - k] = ([1], 1)
        for j in range(m - k, 0, -1):
            u[j - 1] = _integrate(*rhs(u, j))
        runs.append(u)
    residuals = [rhs(u, 0) for u in runs]
    rows = [{k: Fraction(nums[s], d) for k, (nums, d) in enumerate(residuals)
             if s < len(nums) and nums[s]}
            for s in range(max(len(nums) for nums, _ in residuals))]
    is_c = [i % 2 == c_parity for i in range(m + 1)]
    basis = []
    for omega in nullspace(rows, m + 1):
        u = [_lincomb([(w, *runs[k][i]) for k, w in omega.items()]) for i in range(m + 1)]
        basis.append(PlanarDerivation(*(
            BiPoly._make(1, *_common([(0, *q) if c == half else (0, [], 1)
                                      for q, c in zip(u, is_c)])) for half in (True, False))))
    return basis


def solve_halves(f: UniPoly, m: int, c_parities: tuple[int, ...]) -> list[PlanarDerivation]:
    """Canonical echelon basis of the solutions of the chosen halves: reduced
    echelon over the unknowns by index descending, c before d, then x-degree
    descending, that is the union of the halves' bases sorted by leading
    unknown (y-degree descending, c before d)."""
    return sorted((g for p in c_parities for g in _integrate_half(f, m, p)),
                  key=lambda g: (-g.y_degree, g.act_x.y_degree < g.y_degree))


def _prefix(basis: tuple, M: int) -> tuple:
    """The canonical basis at y-degree M read off one at a larger y-degree
    (module docstring)."""
    return tuple(g for g in basis if g.y_degree <= M)


class CommutantBasis(NamedTuple):
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
    if not is_int(M) or M < 0:
        raise InvalidInput("max y-degree M must be a non-negative integer")
    f = as_unipoly(f)
    return CommutantBasis(f, M, tuple(solve_halves(f, M, (1, 0))))


class HDecomposition(NamedTuple):
    """gamma = (sum_k q_coeffs[k] * H^k) * newton_derivation(f)."""

    q_coeffs: tuple[Fraction, ...]

    def reconstruct(self, f: UniPoly) -> PlanarDerivation:
        """q(H) delta_f by ring products: Horner in H, then scale.  It stays
        apart from energy_basis's binomial rows, so that decompose_in_H (and
        every caller that rebuilds a basis element) checks them."""
        H, q = hamiltonian(f), BiPoly.zero()
        for a in reversed(self.q_coeffs):  # q(H) by Horner
            q = q * H + a
        return newton_derivation(f).scale(q)


def decompose_in_H(f: UniPoly, gamma: PlanarDerivation) -> HDecomposition:
    """Express gamma as q(H) * newton_derivation(f) or raise NotAMultiple.

    The echelon argument of energy_basis: H(0, y) = y^2, so a multiple
    gamma = sum_k q_k H^k delta_f has gamma(x)(0, y) = sum_k q_k y^(2k+1),
    and q_k is the x^0 coefficient of y^(2k+1) in gamma(x).  The
    coefficients read that way are the decomposition exactly when their
    rebuild equals gamma.
    """
    f = as_unipoly(f)
    if gamma.act_x._laurent:
        raise RingMismatch(f"gamma lies in {_ring_name(gamma.act_x)}, not in Q[x, y]")
    dec = HDecomposition(tuple(c.coeff(0) for c in gamma.act_x.ycoeffs[1::2]))
    rebuilt = dec.reconstruct(f)
    if rebuilt != gamma:  # name where, not the whole value: it may have a million terms
        v, a, b = (("x", rebuilt.act_x, gamma.act_x) if rebuilt.act_x != gamma.act_x
                   else ("y", rebuilt.act_y, gamma.act_y))
        i = next(i for i in range(max(len(a._rows), len(b._rows))) if a.ycoeff(i) != b.ycoeff(i))
        raise NotAMultiple(f"gamma({v}) is not that of any q(H) * delta_f: its y^{i} "
                           f"coefficient is the first that differs from the rebuild, "
                           f"H = {hamiltonian(f)}")
    return dec


def _times(a: list, b: list) -> list:
    """The product of the dense integer numerators a and b ([] is 0)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    _convolve([(i, n) for i, n in enumerate(a) if n], [(j, n) for j, n in enumerate(b) if n], out)
    return out


def energy_basis(f: UniPoly, M: int) -> tuple[PlanarDerivation, ...]:
    """(H^s delta_f, ..., H delta_f, delta_f), s = floor((M-1)/2); () if M <= 0.

    H = y^2 + G with G = g / D its y^0 row, so
    H^k = sum_j C(k, j) y^(2j) D^j g^(k-j) / D^k.  With f = F / d_f, the
    y-rows of H^k delta_f = (y H^k, f H^k) are written straight from the
    integer powers g^i and their products F g^i: act_x has row 2j+1 =
    C(k, j) D^j g^(k-j) over D^k, act_y row 2j = C(k, j) D^j F g^(k-j)
    over D^k d_f, each component normalised once.

    This is the reduced echelon basis of its span, which is unique:
    H^k delta_f leads with 1 at the x^0 coefficient of c_{2k+1}, where every
    other H^j delta_f is 0 because H(0, y) = y^2, that is g(0) = 0."""
    if not is_int(M):
        raise InvalidInput("max y-degree M must be an integer")
    H = hamiltonian(f)
    if M <= 0:
        return ()
    (sg, g), D = H._rows[0], H._d  # G = z^sg g / D; the y^2 row is D / D
    (sf, F), df = f._rows[0] if f._rows else _EMPTY, f._d
    gp = [[1]]  # gp[i]: the numerators of g^i, from z^(i sg)
    for _ in range((M - 1) // 2):
        gp.append(_times(gp[-1], g))
    fgp = [_times(F, p) for p in gp]  # F g^i, from z^(sf + i sg)
    Dj = [D ** j for j in range(len(gp))]
    basis = []
    for k in range(len(gp)):
        x_rows, y_rows = [_EMPTY] * (2 * k + 2), [_EMPTY] * (2 * k + 1)
        for j in range(k + 1):
            c = comb(k, j) * Dj[j]
            x_rows[2 * j + 1] = ((k - j) * sg, [c * n for n in gp[k - j]])
            y_rows[2 * j] = (sf + (k - j) * sg, [c * n for n in fgp[k - j]])
        basis.append(PlanarDerivation(BiPoly._make(1, x_rows, Dj[k]),
                                      BiPoly._make(1, y_rows, Dj[k] * df)))
    return tuple(reversed(basis))


def _graded_nullities(X: int, M: int) -> dict[tuple[int, int], int | None]:
    """The nullity of each weight piece (m, a) of (y, x^X) up to y-degree M, for an
    integer X >= 1 (None at a zero super entry); they sum to the commutant's dimension."""
    return {(m, a): None if (s := substitute(m, a, X)) is None else int(s[0][-1] == 0)
            for a in (1, 0) for m in range(2 - a, M + 2 - a)}


def _graded_reason(X: int, M: int) -> str | None:
    """None if the pieces of nullity 1 are exactly those at a = 0 and even m,
    and their count meets the lower bound (M+1)//2; else the first piece, or
    the bound, that fails."""
    nullity = _graded_nullities(X, M)
    for (m, a), k in nullity.items():
        if k != (want := int(a == 0 and m % 2 == 0)):
            return f"piece (m, a) = ({m}, {a}) at X = {X} has " + (
                "a zero super entry" if k is None else f"nullity {k}, not {want}")
    if (bound := sum(nullity.values())) != (lower := (M + 1) // 2):
        return f"the weight pieces at X = {X} bound the dimension by {bound}, not {lower}"
    return None


class RankOneCertificate(NamedTuple):
    """The verdict on the weight pieces: reason names the first piece, or the
    bound, that fails, and is None when the certificate passes.  The energy
    multiples, a basis of the whole commutant when passed, are not stored:
    each read of commutant builds energy_basis(f, M) anew, so read it once."""

    f: UniPoly
    M: int
    reason: str | None

    passed = property(lambda self: self.reason is None)

    @property
    def dimension(self) -> int:
        """len(energy_basis(f, M)), for every M >= 0."""
        return (self.M + 1) // 2

    @property
    def expected_dimension(self) -> int:
        """The theorem's floor((M-1)/2) + 1."""
        return (self.M - 1) // 2 + 1

    @property
    def commutant(self) -> CommutantBasis:
        return CommutantBasis(self.f, self.M, energy_basis(self.f, self.M))

    @property
    def decompositions(self) -> tuple[HDecomposition, ...]:
        """q = H^k for each basis element H^k delta_f, k descending."""
        return tuple(HDecomposition((Fraction(0),) * k + (Fraction(1),))
                     for k in reversed(range(self.dimension)))


def certify_rank_one(f: UniPoly, M: int) -> RankOneCertificate:
    """Certify that every commuting derivation up to y-degree M is an
    energy-polynomial multiple of the base derivation (needs deg f >= 2),
    from the weight pieces of its leading form (module docstring), without
    building the basis."""
    f = as_unipoly(f)
    if f.degree < 2:
        raise HypothesisViolation("certification requires deg f >= 2")
    if not is_int(M) or M < 0:
        raise InvalidInput("max y-degree M must be a non-negative integer")
    return RankOneCertificate(f=f, M=M, reason=_graded_reason(f.degree, M))
