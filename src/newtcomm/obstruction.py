"""Obstruction polynomials for Laurent-coefficient symmetries at negative slope.

Feeding the ansatz of x-power coefficients into the level equations at
y-degree m collapses them, after eliminating everything else, to a single
polynomial condition P_m on the slope variable X.  The roots of P_m are
the slopes at which a nontrivial symmetry can exist.  The T-chain below
reproduces that elimination as a two-term recurrence; P_m keeps its
integer content (nothing is divided out), so root sets rather than
coefficients are the stable interface.

Rational roots are found by p-adic lifting (Loos, "Computing rational
zeros of integral polynomials by p-adic expansion", SIAM J. Comput. 1983;
von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 15), never by
factoring integers: the content of P_m grows with m, so a divisor search
on its constant term is exponential in m, while lifting is polynomial.
Every reported root is confirmed by exact integer evaluation; nothing
here uses floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import InvalidInput
from .poly import UniPoly, as_unipoly


@dataclass(frozen=True)
class ObstructionPoly:
    m: int
    T: tuple[UniPoly, ...]  # T[0] .. T[m]
    P: UniPoly


def build_obstruction(m: int) -> ObstructionPoly:
    """The chain T_m, T_{m-1}, ..., T_0 and the obstruction P_m (odd m >= 3)."""
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
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


# Integer polynomials below are coefficient lists, constant term first,
# with a nonzero last entry (the zero polynomial is []).

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    g = -g if a[-1] < 0 else g
    return [c // g for c in a]


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


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


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero polynomials (primitive remainder sequence)."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for primitive b dividing a in Q[x]; the quotient is integral
    by Gauss's lemma, so every division below is exact."""
    a, n = a[:], len(b) - 1
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + n] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    return q


def _eval_mod(a: list[int], v: int, q: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * v + c) % q
    return acc


def _squarefree_mod(a: list[int], p: int) -> bool:
    """Whether a mod p (same degree as a) has no repeated factor over F_p."""
    u, v = [c % p for c in a], _trim([c % p for c in _derivative(a)])
    while v:  # lc(v) is a unit mod p, so a pseudo-remainder is a remainder
        u, v = v, _trim([c % p for c in _pseudo_rem(u, v)])
    return len(u) == 1


def _odd_primes() -> Iterator[int]:
    n = 3
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _is_root(a: list[int], r: Fraction) -> bool:
    """Exactly whether sum a_i num^i den^(n-i) vanishes, for r = num/den."""
    acc, den_pow = a[-1], 1
    for c in reversed(a[:-1]):
        den_pow *= r.denominator
        acc = acc * r.numerator + c * den_pow
    return acc == 0


def rational_roots(p: UniPoly) -> frozenset[Fraction]:
    """All rational roots of p, found exactly by p-adic lifting.

    Powers of x are stripped (contributing the root 0) and denominators
    cleared; f is the primitive squarefree part f / gcd(f, f') of what is
    left.  The first odd prime p that does not divide lead = lc(f) and
    keeps f mod p squarefree is chosen; only primes dividing lead or the
    discriminant of f fail, so the search ends.  The roots of f mod p are
    found by evaluation at 0..p-1 and Newton/Hensel-lifted to a modulus
    q > 2B, where B = min(|lead| + max_{i<n} |a_i|, |lead| |a_0|) bounds
    |lead * r| for every rational root r (Cauchy's bound, and r = num/den
    with num | a_0, den | lead).  For each lift, lead * lift mod q taken in
    the symmetric range is an integer c, and c / lead is kept only if it
    is an exact root of p.

    Complete: a rational root r = num/den has den invertible mod p, so
    r mod p is a root of f mod p, simple because f mod p is squarefree;
    its Hensel lift is unique, hence equals r mod q, and lead * r is the
    integer of absolute value <= B < q/2 congruent to lead * lift.
    """
    p = as_unipoly(p)
    if p.is_zero:
        raise InvalidInput("the zero polynomial has every root")
    coeffs = list(p.coeffs)
    v = 0
    while coeffs[v] == 0:
        v += 1
    roots = {Fraction(0)} if v else set()
    coeffs = coeffs[v:]
    if len(coeffs) == 1:
        return frozenset(roots)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    f = _primitive(ints)
    f = _quotient(f, _gcd(f, _derivative(f)))  # primitive, lead > 0 (Gauss)
    lead = f[-1]
    bound = min(lead + max(abs(c) for c in f[:-1]), lead * abs(f[0]))
    prime = next(q for q in _odd_primes() if lead % q and _squarefree_mod(f, q))
    df = _derivative(f)
    for r in range(prime):
        if _eval_mod(f, r, prime):
            continue
        q = prime
        while q <= 2 * bound:
            q *= q
            r = (r - _eval_mod(f, r, q) * pow(_eval_mod(df, r, q), -1, q)) % q
        c = lead * r % q
        cand = Fraction(c - q if c > q // 2 else c, lead)
        if _is_root(ints, cand):
            roots.add(cand)
    return frozenset(roots)


def expected_root_set(m: int) -> frozenset[Fraction]:
    """{1} together with -(2k+1)/(2k-1) for 1 <= k <= (m-1)/2."""
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    roots = {Fraction(1)}
    for k in range(1, (m - 1) // 2 + 1):
        roots.add(Fraction(-(2 * k + 1), 2 * k - 1))
    return frozenset(roots)
