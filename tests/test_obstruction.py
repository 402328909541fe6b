"""Obstruction polynomials P_m and exact rational root finding."""

import inspect
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from newtcomm import (
    InvalidInput,
    LaurentBiPoly,
    LaurentDerivation,
    LaurentPoly,
    UniPoly,
    build_family,
    build_obstruction,
    expected_root_set,
    obstruction,
    parse_unipoly,
    rational_roots,
)
from newtcomm.linsolve import nullspace, rref

import obstruction_oracle
from divisor_oracle import divisor_oracle
from strategies import unipolys

# P_m for the first few odd m, computed independently by running the
# two-term downward recurrence by hand / in an exact scratch script.
FROZEN_P = {
    3: "2*x^2 + 4*x - 6",
    5: "-18*x^3 - 66*x^2 - 6*x + 90",
    7: "360*x^4 + 1824*x^3 + 1968*x^2 - 1632*x - 2520",
    9: "-12600*x^5 - 80040*x^4 - 150960*x^3 - 31440*x^2 + 161640*x + 113400",
    11: (
        "680400*x^6 + 5153760*x^5 + 13434480*x^4 + 11661120*x^3"
        " - 6653520*x^2 - 16791840*x - 7484400"
    ),
}
FROZEN_P_AT_MINUS_1 = {3: -8, 5: 48, 7: -384, 9: 3840, 11: -46080}


def _mutant(old: str, new: str):
    """obstruction.build_obstruction with the source text old replaced by new."""
    src = inspect.getsource(obstruction.build_obstruction)
    assert src.count(old) == 1
    namespace = dict(vars(obstruction))
    exec(src.replace(old, new), namespace)
    return namespace["build_obstruction"]


class TestBuildObstruction:
    def test_frozen_polynomials(self):
        for m, text in FROZEN_P.items():
            assert build_obstruction(m).P == parse_unipoly(text), m

    def test_degree_and_value_at_minus_one(self):
        for m in range(3, 32, 2):
            P = build_obstruction(m).P
            assert P.degree == (m + 1) // 2
            if m in FROZEN_P_AT_MINUS_1:
                assert P(Fraction(-1)) == FROZEN_P_AT_MINUS_1[m]
            else:
                assert P(Fraction(-1)) != 0

    def test_roots_are_exactly_the_expected_set(self):
        for m in range(3, 32, 2):
            P = build_obstruction(m).P
            assert rational_roots(P) == expected_root_set(m)

    def test_matches_ring_operator_oracle(self):
        for m in range(3, 62, 2):
            assert build_obstruction(m).P == obstruction_oracle.build_obstruction(m).P, m

    def test_pm_is_the_continuant_of_its_commutation_system(self):
        """P_m, the continuant of the piece's rows, is the T-chain's P_m for
        odd m <= 201: the hand elimination the package used before."""
        for m in range(3, 202, 2):
            assert build_obstruction(m).P == obstruction_oracle.build_obstruction(m).P, m

    def test_leading_coefficient_closed_form(self):
        """lc(P_{2k+1}) = (-1)^(k+1) (k+1)! (2k-1)!! for k <= 100."""
        for k in range(1, 101):
            double_factorial = math.prod(range(1, 2 * k, 2))
            want = (-1) ** (k + 1) * math.factorial(k + 1) * double_factorial
            assert build_obstruction(2 * k + 1).P.lc() == want, k

    @pytest.mark.parametrize("old, new", [
        ("(i - 1) // 2 + 1, i // 2", "(i - 1) // 2, i // 2"),  # super entry without its 1
        ("(i - 1) // 2 + 1, i // 2", "(i - 1) // 2 + 1, (i - 1) // 2"),  # ceil read as floor
        ("i - m - 1, (i - 1)", "i - m, (i - 1)"),  # sub entry m - i
    ])
    def test_row_rule_mutation_control(self, old, new):
        """Mutation controls: a wrong entry in the row rule changes P_m at
        every odd m <= 61, and the T-chain oracle sees it."""
        mutant = _mutant(old, new)
        for m in range(3, 62, 2):
            assert mutant(m).P != obstruction_oracle.build_obstruction(m).P, m

    def test_roots_at_m201_within_budget(self):
        t0 = time.perf_counter()
        assert rational_roots(build_obstruction(201).P) == expected_root_set(201)
        assert time.perf_counter() - t0 < 3.0

    @pytest.mark.parametrize("m", (301, 401, 601))
    def test_roots_at_large_m_within_budget(self, m):
        t0 = time.perf_counter()
        assert rational_roots(build_obstruction(m).P) == expected_root_set(m)
        assert time.perf_counter() - t0 < 3.0

    def test_expected_root_set_contents(self):
        assert expected_root_set(3) == frozenset({Fraction(1), Fraction(-3)})
        assert expected_root_set(5) == frozenset(
            {Fraction(1), Fraction(-3), Fraction(-5, 3)}
        )
        assert expected_root_set(7) == frozenset(
            {Fraction(1), Fraction(-3), Fraction(-5, 3), Fraction(-7, 5)}
        )

    def test_content_not_divided_out(self):
        # the recurrence output is kept verbatim: P_5 has content 6
        P = build_obstruction(5).P
        assert P.lc() == Fraction(-18)

    def test_bad_m(self):
        for bad in (2, 4, 1, -3, 0):
            with pytest.raises(InvalidInput):
                build_obstruction(bad)
        with pytest.raises(InvalidInput):
            expected_root_set(4)


def _ansatz_matrix_from_bracket(m: int, X: Fraction, a: int = 1) -> list[list[Fraction]]:
    """The commutation system of the ansatz of y-degree m and x-offset a at
    slope X (X != -1), read off the derivation kernel: entry (r, j) is the
    coefficient of row r's monomial in [d, e_j], for d = (y, x^X) and the
    basis derivations e_j of the unknowns b_0, c_0, b_1, c_1, ... (b_0 dropped
    at a = 0), in the ring of root index den(X).

    Row x_l is read at x^(a-1+(1+X)l) y^(m-2l) in act_x and row y_l at
    x^(a-2+(1+X)l) y^(m+1-2l) in act_y (x_0 dropped at a = 0); each [d, e_j]
    is asserted to hold no other term."""
    t, p = X.denominator, X.numerator
    step, shift = t + p, (a - 1) * t  # x^(1+X) = z^step, x^(a-1) = z^shift

    def mono(ze: int, ye: int) -> LaurentBiPoly:
        return LaurentBiPoly.y_pow(t, ye, LaurentPoly.term(t, ze))

    zero = LaurentBiPoly(t, [])
    unknowns, rows = [], []  # (act_y?, z-exponent, y-exponent) of each e_j
    for l in range(m // 2 + 1):
        unknowns.append((True, shift + step * l, m - 2 * l))  # b_l
        unknowns.append((False, shift + t + step * l, m - 1 - 2 * l))  # c_l
        rows.append((0, shift + step * l, m - 2 * l))  # x_l
        rows.append((1, shift + step * (l + 1) - t, m - 1 - 2 * l))  # y_{l+1}
    rows = rows[1 - a:m + 1]
    basis = [LaurentDerivation(t, *((zero, mono(ze, ye)) if on_y else (mono(ze, ye), zero)))
             for on_y, ze, ye in unknowns[1 - a:m + 1]]
    d = LaurentDerivation(t, LaurentBiPoly.y(t), mono(p, 0))
    matrix = [[Fraction(0)] * len(basis) for _ in rows]
    for j, e in enumerate(basis):
        br = d.bracket(e)
        rest = [br.act_x, br.act_y]
        for r, (part, ze, ye) in enumerate(rows):
            matrix[r][j] = c = rest[part].ycoeff(ye).coeff(ze)
            rest[part] = rest[part] - c * mono(ze, ye)
        assert rest[0].is_zero and rest[1].is_zero, (m, X, a, j)
    return matrix


def _ansatz_matrix(m: int, X: Fraction, a: int = 1) -> list[list[Fraction]]:
    """obstruction_oracle.ansatz_rows(m, a) at slope X, as a dense matrix of Fractions."""
    rows = obstruction_oracle.ansatz_rows(m, a)
    n = len(rows)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, (e0, e1) in zip((i - 1, i, i + 1), row):
            if 0 <= j < n:
                matrix[i][j] = e0 + e1 * X
    return matrix


def _sparse(matrix: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _nullity(matrix: list[list[Fraction]]) -> int:
    return len(matrix[0]) - len(rref(_sparse(matrix), len(matrix[0]))[1])


class TestAnsatzSystem:
    """The oracle's ansatz_rows is the commutation condition [d, gamma] = 0, as the
    derivation kernel computes it, at both x-offsets, and at a = 1 and odd m
    its null spaces are the slopes of expected_root_set and the beta of
    build_family."""

    @pytest.mark.parametrize("m", range(1, 42))
    def test_rows_are_the_bracket_of_the_ansatz(self, m):
        """Every entry is affine in X, so agreement at two X is identity, for
        both offsets and both parities of m.  Neither X is a closing slope of
        a piece, so only the pieces at a = 0 and even m, which hold H_0^k d_0
        for every X, have a null vector."""
        for a in (1, 0) if m >= 2 else (1,):
            for X in (Fraction(2), Fraction(-1, 3)):
                assert _ansatz_matrix_from_bracket(m, X, a) == _ansatz_matrix(m, X, a), (m, X, a)
                assert _nullity(_ansatz_matrix(m, X, a)) == (a == 0 and m % 2 == 0), (m, X, a)

    @pytest.mark.parametrize("m", [2, 3, 8, 9])
    def test_dropped_offset_term_is_caught(self, m, monkeypatch):
        """Mutation control: the a-term of y_1's super entry dropped (a + 0 + X
        read as X) changes the rows at a = 1 only, and the bracket sees it."""
        rows = obstruction_oracle.ansatz_rows

        def dropped(m, a=1):
            out = rows(m, a)
            s, d, (q0, q1) = out[a]  # y_1, after x_0 at a = 1
            return out[:a] + [(s, d, (q0 - a, q1))] + out[a + 1:]

        monkeypatch.setattr(obstruction_oracle, "ansatz_rows", dropped)
        X = Fraction(2)
        assert _ansatz_matrix_from_bracket(m, X, 1) != _ansatz_matrix(m, X, 1)
        assert _ansatz_matrix_from_bracket(m, X, 0) == _ansatz_matrix(m, X, 0)

    def test_bad_offset_or_degree(self):
        for m, a in ((0, 1), (1, 0), (-2, 0), (2.0, 1)):
            with pytest.raises(InvalidInput, match=f"^m must be an integer >= {2 - a} at a = {a}$"):
                obstruction.substitute(m, a, 2)
        for m, a in ((3, 2), (3, -1), (3, "1"), (3, 1.0)):
            with pytest.raises(InvalidInput, match="^the x-offset a must be 0 or 1$"):
                obstruction.substitute(m, a, 2)

    @pytest.mark.parametrize("m", range(3, 42, 2))
    def test_null_space_at_every_expected_root(self, m):
        for X in expected_root_set(m):
            assert _nullity(_ansatz_matrix(m, X)) >= 1, (m, X)

    @pytest.mark.parametrize("m", range(3, 42, 2))
    def test_substitution_ends_at_the_continuant(self, m):
        """The pointwise substitution and the Z[X] continuant are one
        recurrence: at a = 1 its last value is -t^(m+1) P_m(p/t)."""
        P = build_obstruction(m).P
        for X in (Fraction(2), Fraction(-1, 3), Fraction(5, 7), Fraction(-3), Fraction(9)):
            p, t = X.numerator, X.denominator
            v, sups = obstruction.substitute(m, 1, p, t)
            assert v[-1] == -t ** (m + 1) * P(X), (m, X)
            assert len(v) == m + 2 and len(sups) == m + 1, (m, X)

    # Every slope that zeroes a super entry a + floor(i/2) + ceil(i/2) X:
    # -(j+1)/j and -1 at a = 1, -j/(j+1), -1 and 0 at a = 0; and others around them
    SLOPES = sorted({Fraction(p, t) for p in range(-7, 8) for t in (1, 2, 3, 5)}
                    | {Fraction(-(j + 1), j) for j in range(1, 21)}
                    | {Fraction(-j, j + 1) for j in range(1, 21)})

    @pytest.mark.parametrize("m", range(1, 42))
    def test_substitution_is_the_loop_over_the_rows(self, m):
        """substitute computes each entry from its row index; the oracle reads
        the entries off its ansatz_rows.  Same values, and None at the same slopes."""
        nones = 0
        for a in (1, 0) if m >= 2 else (1,):
            for X in self.SLOPES:
                got = obstruction.substitute(m, a, X.numerator, X.denominator)
                assert got == obstruction_oracle.substitute_over_rows(
                    m, a, X.numerator, X.denominator), (m, a, X)
                nones += got is None
        assert nones or m == 1, m  # at m = 1 the only super entry read is a = 1

    def test_zero_super_entry_gives_none(self):
        """Super entry of x_1 at a = 1 is 2 + X, of y_1 at a = 0 is X; neither is the last."""
        assert obstruction.substitute(4, 1, -2) is None
        assert obstruction.substitute(3, 0, 0) is None

    @pytest.mark.parametrize("k", range(1, 21))
    def test_null_vector_at_minus_rho_is_beta(self, k):
        """At m = 2k+1 and X = -rho, the null space is spanned by
        a_{2k+1}, ..., a_0 of build_family(k) (a_{2k+1} = 1)."""
        m = 2 * k + 1
        null = nullspace(_sparse(_ansatz_matrix(m, Fraction(-m, 2 * k - 1))), m + 1)
        assert null == _sparse([list(reversed(build_family(k).a))])


NOT_SQUAREFREE = "(x - 1)^3 * (2*x + 3)^2 * (x^2 + 1)"
NOT_SQUAREFREE_ROOTS = frozenset({Fraction(1), Fraction(-3, 2)})


class TestRationalRoots:
    def test_no_rational_roots(self):
        assert rational_roots(parse_unipoly("x^2 + 1")) == frozenset()

    def test_integer_roots_with_zero(self):
        assert rational_roots(parse_unipoly("x^3 - x")) == frozenset(
            {Fraction(0), Fraction(1), Fraction(-1)}
        )

    def test_fractional_roots(self):
        assert rational_roots(parse_unipoly("x^2 - 1/4")) == frozenset(
            {Fraction(1, 2), Fraction(-1, 2)}
        )
        assert rational_roots(parse_unipoly("2*x - 3")) == frozenset(
            {Fraction(3, 2)}
        )

    def test_repeated_roots_reported_once(self):
        p = parse_unipoly("x^2 - 2*x + 1")
        assert rational_roots(p) == frozenset({Fraction(1)})

    def test_rational_coefficients_cleared(self):
        assert rational_roots(parse_unipoly("1/6*x^2 - 1/6")) == frozenset(
            {Fraction(1), Fraction(-1)}
        )

    def test_constants(self):
        assert rational_roots(parse_unipoly("5")) == frozenset()
        with pytest.raises(InvalidInput):
            rational_roots(UniPoly.zero())

    def test_pure_power(self):
        assert rational_roots(parse_unipoly("x^4")) == frozenset({Fraction(0)})

    def test_bad_small_primes(self):
        # lead 15015 = 3*5*7*11*13 rules those primes out, and the roots 1
        # and 7430 agree mod 17, 19 and 23, so f mod p has a double root
        # at each of them: the first usable prime is 29
        assert (7430 - 1) % (17 * 19 * 23) == 0
        p = UniPoly.one()
        for d in (3, 5, 7, 11, 13):
            p = p * parse_unipoly(f"{d}*x - 1")
        p = p * parse_unipoly("x - 1") * parse_unipoly("x - 7430") * parse_unipoly("x^2 + 1")
        assert p.lc() == 15015
        assert rational_roots(p) == frozenset(
            {Fraction(1, d) for d in (3, 5, 7, 11, 13)} | {Fraction(1), Fraction(7430)}
        )

    def test_not_squarefree(self):
        p = parse_unipoly(NOT_SQUAREFREE)
        assert rational_roots(p) == NOT_SQUAREFREE_ROOTS

    def test_gcd_only_when_the_prime_search_fails(self, monkeypatch):
        real, calls = obstruction._gcd, []
        monkeypatch.setattr(obstruction, "_gcd", lambda a, b: calls.append(a) or real(a, b))
        for m in range(3, 62, 2):
            rational_roots(build_obstruction(m).P)
        assert calls == []
        assert rational_roots(parse_unipoly(NOT_SQUAREFREE)) == NOT_SQUAREFREE_ROOTS
        assert len(calls) == 1
        # squarefree, but the roots agree mod 3 and mod 5: deg f = 2 primes fail
        assert rational_roots(parse_unipoly("(x - 1) * (x - 16)")) == {1, 16}
        assert len(calls) == 2
        # a repeated factor with no root mod 3 does not stop 3 from lifting
        assert rational_roots(parse_unipoly("(x^2 + 1)^2 * (x - 2)")) == {2}
        assert rational_roots(parse_unipoly("(x^2 + 1)^2")) == frozenset()
        assert len(calls) == 2

    def test_accepting_every_prime_is_caught(self, monkeypatch):
        """Mutation control: a prime search that skips the f' test lets
        the repeated roots of NOT_SQUAREFREE reach the lifting step."""
        def first_usable_prime(f, tries=None):
            p = next(q for q in obstruction._odd_primes() if f[-1] % q)
            return p, [r for r in range(p) if not obstruction._eval_mod(f, r, p)]

        monkeypatch.setattr(obstruction, "_lifting_prime", first_usable_prime)
        try:
            wrong = rational_roots(parse_unipoly(NOT_SQUAREFREE)) != NOT_SQUAREFREE_ROOTS
        except ValueError:  # f' vanishes mod p at a repeated root: no Newton step
            wrong = True
        assert wrong

    def test_accepting_every_candidate_is_caught(self, monkeypatch):
        """Mutation control: with the exact check accepting every candidate,
        the first reconstruction whose denominator divides lc(f) is reported.
        On (999983x - 1000003)(x^2 + 1), lifted from the residue 2 mod 3, that
        is 2.  (x^2 - 2)(3x - 1) would not show it: 2 has no square root mod
        its lifting prime 5, and the one residue, 1/3 mod 5, reconstructs to
        1/3 at once."""
        p = parse_unipoly("(999983*x - 1000003) * (x^2 + 1)")
        assert rational_roots(p) == {Fraction(1000003, 999983)}
        monkeypatch.setattr(obstruction, "_is_root", lambda a, r: True)
        assert rational_roots(p) == {Fraction(2)}

    @pytest.mark.parametrize("text", ("(999983*x - 1000003) * (x^2 + 1)",
                                      "(1000033*x + 999979) * (x^4 - 29)"))
    def test_wrong_early_reconstructions_are_rejected(self, text, monkeypatch):
        """A root whose numerator and denominator are near 10^6 is not the
        reconstruction at small q: the exact check rejects what comes first,
        and lifting goes on to the root."""
        real, seen = obstruction._is_root, []
        monkeypatch.setattr(obstruction, "_is_root", lambda a, r: seen.append(r) or real(a, r))
        roots = rational_roots(parse_unipoly(text))
        assert roots == divisor_oracle(parse_unipoly(text)) and len(roots) == 1
        assert seen[-1] in roots and any(r not in roots for r in seen)

    def test_constant_term_with_two_large_prime_factors(self):
        # a divisor search on a0 would trial-divide up to ~2^60
        n = 576460752303423619 * 1152921504606847009
        p = UniPoly([Fraction(-n), Fraction(1)]) * parse_unipoly("x^2 + 1")
        assert rational_roots(p) == frozenset({Fraction(n)})

    def test_root_of_large_height(self):
        r = Fraction(10**40, 7)
        p = UniPoly([-r, Fraction(1)]) * parse_unipoly("x^2 + x + 1")
        assert rational_roots(p) == frozenset({r})

    @pytest.mark.parametrize("k", range(1, 6))
    def test_power_of_x_times_g(self, k):
        g = parse_unipoly("(2*x - 3) * (x + 5) * (x^2 + 1)")
        p = UniPoly.from_dict({k: 1}) * g
        assert p.shift == k
        assert rational_roots(p) == frozenset({Fraction(0), Fraction(3, 2), Fraction(-5)})
        assert rational_roots(g) == frozenset({Fraction(3, 2), Fraction(-5)})

    def test_fraction_coefficients_negative_lead_zero_root(self):
        p = parse_unipoly("-2/3*x^12") * parse_unipoly("x - 1/2") \
            * parse_unipoly("x + 5/7")
        assert p.lc() < 0
        assert rational_roots(p) == frozenset(
            {Fraction(0), Fraction(1, 2), Fraction(-5, 7)}
        )


linear_factors = st.tuples(st.integers(-30, 30), st.integers(1, 30)).map(
    lambda ab: UniPoly([Fraction(-ab[0]), Fraction(ab[1])])
)


@given(st.lists(linear_factors, min_size=1, max_size=4),
       unipolys().filter(lambda u: not u.is_zero))
def test_matches_divisor_oracle(factors, cofactor):
    p = cofactor
    for lin in factors:
        p = p * lin
    assert rational_roots(p) == divisor_oracle(p)


near_a_million = st.integers(10**6 - 10**3, 10**6 + 10**3)


@given(near_a_million, near_a_million, st.sampled_from((1, -1)),
       st.sampled_from(("x^2 + 1", "x^4 - 29", "x^2 + x + 1")))
def test_large_planted_root_matches_divisor_oracle(num, den, sign, cofactor):
    """A root num/den near 10^6 over a cofactor with no rational root: the
    reconstructions at small q are not the root, so lifting must go on."""
    p = UniPoly([Fraction(-sign * num), Fraction(den)]) * parse_unipoly(cofactor)
    assert rational_roots(p) == divisor_oracle(p) == {Fraction(sign * num, den)}


PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
small_ints = st.lists(st.integers(-40, 40), min_size=1, max_size=4)


@st.composite
def polys_mod_p(draw):
    """(integer list, prime p not dividing its last entry), with square
    factors and derivatives that vanish mod p drawn often: inputs whose
    roots mod small primes are often repeated."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("random", "square", "no derivative")))
    if kind == "random":
        a = draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=9))
    elif kind == "square":
        g = UniPoly(draw(small_ints) + [draw(st.integers(1, 9))])
        h = UniPoly(draw(small_ints) + [draw(st.integers(1, 9))])
        a = [c.numerator for c in (g * g * h).coeffs]
    else:  # g(x^p) + p h(x), so a' = 0 mod p
        g = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=3))
        a = [p * c for c in draw(st.lists(st.integers(-9, 9), min_size=p * (len(g) - 1) + 1,
                                          max_size=p * (len(g) - 1) + 1))]
        for i, c in enumerate(g):
            a[i * p] += c
    assume(a[-1] % p)
    return a, p


@given(polys_mod_p())
def test_repeated_roots_mod_p_match_divisor_oracle(case):
    a, _ = case
    assert rational_roots(UniPoly(a)) == divisor_oracle(UniPoly(a))
