"""Obstruction polynomials for Laurent-coefficient symmetries at negative slope.

Symmetries of d = (y, x^X) of y-degree m with x-offset a take the ansatz

    gamma(x) = sum_l c_l x^(a+(1+X)l) y^(m-1-2l),
    gamma(y) = sum_l b_l x^(a-1+(1+X)l) y^(m-2l),

over the l with a nonnegative y-power, and without b_0 at a = 0, where its
x-power would be x^(-1).  With weights 2 for x and X + 1 for y, d is
homogeneous, and each such ansatz is one weight piece of the commutation
condition; at integer X >= 1 a piece whose offset is not 0 or 1 modulo
X + 1 has only the zero solution.  [d, gamma] = 0 is a square tridiagonal
system in b_0, c_0, b_1, c_1, ..., solved at one slope by forward
substitution (``substitute``) for the certificate and ``family``.  Number
its rows x_0, y_1, x_1, ... from i = 0 (x_0, which reads 0 = 0 at a = 0, is
dropped there):

    x_l:      (m+1-2l) c_{l-1} - b_l + (a+(1+X)l) c_l = 0,
    y_{l+1}:  (m-2l) b_l - X c_l + (a+l+(l+1)X) b_{l+1} = 0,

so row i has sub entry m + 1 - i, diagonal -1 (i even) or -X (i odd) and
super entry a + floor(i/2) + ceil(i/2) X.  Both ``substitute`` and
``build_obstruction`` compute each entry from i by this one rule.
At a = 1 and odd m its determinant, a continuant, is -P_m: its roots are the
slopes with a symmetry.  P_m keeps its content and its Z[X] form on integer
lists, for root finding (on UniPoly operators it took 3-11 times as long).

Rational roots are found by p-adic lifting (Loos, "Computing rational
zeros of integral polynomials by p-adic expansion", SIAM J. Comput. 1983;
von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 15), never by
factoring integers: the content of P_m grows with m, so a divisor search
on its constant term is exponential in m, while lifting is polynomial.
Lifting needs only that each residue it lifts is a simple root mod p,
so the prime is chosen by checking P_m' at the roots its scan finds; the
squarefree part over Z is formed only when a short prime search finds no
such prime.  Lifting stops at the first exact root among its rational
reconstructions (Wang, Guy & Davenport, SIGSAM Bull. 1982; op. cit.
§5.10).  Every reported root is confirmed by exact integer evaluation;
nothing here uses floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import InvalidInput, is_int
from .poly import UniPoly, _trim, as_unipoly


class ObstructionPoly(NamedTuple):
    m: int
    P: UniPoly


def substitute(m: int, a: int, p: int, t: int = 1) -> tuple[list[int], list[int]] | None:
    """(v, super entries) of the piece of y-degree m and x-offset a in {0, 1} at
    X = p/t, entries times t: v_0 = 1, v_{k+1} = -(sub_k super_{k-1} v_{k-1} + diag_k v_k)
    = (-t)^(k+1) D_k(p/t) over its rows k = 0, 1, ... (D as in build_obstruction); None if
    a super entry but the last is 0.  Then u_k = v_k / (super_0 ... super_{k-1}), on the
    unknowns u = b_0, c_0, b_1, c_1, ... (b_0 dropped at a = 0), solves every row but the
    last, which holds iff v[-1] = 0.  Row k is row i = k + 1 - a of the module docstring,
    its entries computed from i."""
    if not is_int(a) or a not in (0, 1):
        raise InvalidInput("the x-offset a must be 0 or 1")
    if not is_int(m) or m < 2 - a:
        raise InvalidInput(f"m must be an integer >= {2 - a} at a = {a}")
    v, sups, u, w, q = [1], [], 1, 0, 1  # v_k, v_{k-1}, super_{k-1} (1 before row 0)
    for i in range(1 - a, m + 1):
        if not q:
            return None
        u, w, q = ((p if i & 1 else t) * u - (m + 1 - i) * t * q * w, u,
                   (a + i // 2) * t + (i + 1) // 2 * p)
        v.append(u)
        sups.append(q)
    return v, sups


def build_obstruction(m: int) -> ObstructionPoly:
    """P_m = -D_m (odd m >= 3) for the continuant D_i = diag_i D_{i-1} - sub_i super_{i-1}
    D_{i-2} of the piece at a = 1, D_{-2} = 0 and D_{-1} = 1, run on N_i = -D_i:
    N_i = -X^(i mod 2) N_{i-1} - (m + 1 - i) (1 + floor((i-1)/2) + ceil((i-1)/2) X) N_{i-2}.
    N_i has degree ceil(i/2), so the three lists below are of one length."""
    if not is_int(m) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    N2, N1 = [], [-1]  # N_{i-2}, N_{i-1}
    for i in range(m + 1):
        s, a, b = i - m - 1, (i - 1) // 2 + 1, i // 2  # -sub_i; super_{i-1} = a + b X
        N2, N1 = N1, [s * (a * c + b * d) - e
                      for c, d, e in zip(N2 + [0], [0] + N2, [0] + N1 if i & 1 else N1)]
    return ObstructionPoly(m=m, P=UniPoly._make(1, [(0, N1)]))


# Integer polynomials below are coefficient lists, constant term first,
# with a nonzero last entry (the zero polynomial is []).

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


def _odd_primes() -> Iterator[int]:
    n = 3
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _lifting_prime(f: list[int], tries: int | None = None) -> tuple[int, list[int]] | None:
    """The first odd prime p not dividing lc(f) at which every root of f mod
    p is simple, with those roots (found by evaluation at 0..p-1); None once
    `tries` such primes have failed (no bound if None)."""
    for p in islice((q for q in _odd_primes() if f[-1] % q), tries):
        fp = [c % p for c in f]  # reduced once, so the scan runs on small integers
        roots = [r for r in range(p) if not _eval_mod(fp, r, p)]
        dfp = _derivative(fp)
        if all(_eval_mod(dfp, r, p) for r in roots):
            return p, roots
    return None


def _is_root(a: list[int], r: Fraction) -> bool:
    """Exactly whether sum a_i num^i den^(n-i) vanishes, for r = num/den."""
    acc, den_pow = a[-1], 1
    for c in reversed(a[:-1]):
        den_pow *= r.denominator
        acc = acc * r.numerator + c * den_pow
    return acc == 0


def _reconstruct(r: int, q: int) -> Fraction:
    """The num/den = r (mod q) with |num|, den <= sqrt(q/2) if there is one: r_j / t_j
    at the first r_j <= sqrt(q/2) of the half-extended Euclid on (q, r), r_j = t_j r mod q."""
    half, r0, r1, t0, t1 = math.isqrt(q // 2), q, r, 0, 1
    while r1 > half:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1)


def rational_roots(p: UniPoly) -> frozenset[Fraction]:
    """All rational roots of p, found exactly by p-adic lifting.

    The row omits x^shift (the root 0 if shift > 0) and denominators are
    cleared; f is the primitive part of what is left, lead = lc(f) > 0.
    The lifting prime p is the first odd prime not dividing lead at which
    f' is nonzero mod p at every root r in 0..p-1 of f mod p.  A repeated
    rational root fails every prime, so once deg f primes have failed (a
    bound on work, not on correctness) f becomes f / gcd(f, f') and the
    search runs on without a bound; a squarefree f fails only at primes
    dividing its discriminant, so it ends.  Each root r mod p is
    Newton/Hensel-lifted, squaring q each step, until num/den, r mod q
    reconstructed, has den | lead and is an exact root of f; failing that,
    to q > 2B, where B = |lead| + max_{i<n} |a_i| bounds |lead * x| for
    every complex root x of f (Cauchy's bound |x| <= 1 + max_{i<n} |a_i| /
    |lead|).  There lead * lift mod q taken in the symmetric range is an
    integer c, and c / lead is kept only if it is an exact root of p.

    Complete: a rational root x = num/den of f has den | lead, so den is
    invertible mod p and x mod p is one of the roots the scan finds.  That
    root is simple by the choice of p, so its Hensel lift is unique, hence
    equals x mod q.  lead * x is an integer, as den | lead, of absolute
    value <= B < q/2 by Cauchy's bound, and it is congruent to lead * lift,
    so it is c.  An early stop loses no root: by Gauss's lemma, two
    rational roots of f in one residue would make it a double root mod p.
    """
    p = as_unipoly(p)
    if p.is_zero:
        raise InvalidInput("the zero polynomial has every root")
    ints = p._n  # p / x^shift times its denominator: the same nonzero roots
    roots = {Fraction(0)} if p.shift else set()
    if len(ints) == 1:
        return frozenset(roots)
    f = _primitive(ints)
    found = _lifting_prime(f, len(f) - 1)
    if found is None:
        f = _quotient(f, _gcd(f, _derivative(f)))  # primitive, lead > 0 (Gauss)
        found = _lifting_prime(f)
    prime, residues = found
    lead = f[-1]
    bound = lead + max(abs(c) for c in f[:-1])
    df = _derivative(f)
    for r in residues:
        q = prime
        while q <= 2 * bound:
            q *= q
            r = (r - _eval_mod(f, r, q) * pow(_eval_mod(df, r, q), -1, q)) % q
            cand = _reconstruct(r, q)
            if lead % cand.denominator == 0 and _is_root(f, cand):
                roots.add(cand)
                break
        else:
            c = lead * r % q
            cand = Fraction(c - q if c > q // 2 else c, lead)
            if _is_root(ints, cand):
                roots.add(cand)
    return frozenset(roots)


def expected_root_set(m: int) -> frozenset[Fraction]:
    """{1} together with -(2k+1)/(2k-1) for 1 <= k <= (m-1)/2."""
    if not is_int(m) or m < 3 or m % 2 == 0:
        raise InvalidInput("m must be an odd integer >= 3")
    roots = {Fraction(1)}
    for k in range(1, (m - 1) // 2 + 1):
        roots.add(Fraction(-(2 * k + 1), 2 * k - 1))
    return frozenset(roots)
